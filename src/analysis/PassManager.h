//===- analysis/PassManager.h - Static-pipeline pass manager ---*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static preparation pipeline as an iterative pass manager, the
/// IterativeModulePass idiom of whole-program analysis frameworks: each
/// stage of suite preparation — cost-model binding, typing, error
/// injection, transition marking, instrumentation, flat-image fusion —
/// is a named ProgramPass over per-program state, and the manager runs
/// doInitialization for every pass, iterates every pass's doProgramPass
/// over every program until a full round reports no change (the
/// cross-program fixpoint), then runs doFinalization. Passes are
/// idempotent (they report a change only when they computed something
/// that was not there yet), so the fixpoint is reached in one working
/// round plus one quiescent round today; passes with genuine
/// cross-program propagation can extend the loop without touching the
/// manager.
///
/// Per-program steps are independent and fan out over a ThreadPool with
/// by-index writes, so pipeline output is bit-identical to the serial
/// loop — and to the pre-pass-manager monolithic prepareSuite, which is
/// the promotion contract tests/passmanager_test.cpp enforces.
///
/// The pipeline finishes with self-verification: VerifyPass is a static
/// analysis of our *own* IR and derived images that checks structural
/// invariants — Program::verify, CFG/dominator/loop consistency, typing
/// shape, mark-placement legality, flat-image global-block-id
/// contiguity, cost-table binding, superblock-chain summaries
/// re-walked against the exact block walk, and every cost-table and
/// chain-sum entry on the exact cycle grid (sim/CostModel.h). Under the verify-IR toggle
/// (driver `--verify-ir` or env `PBT_VERIFY_IR`) the manager reruns the
/// verification sweep after every pass of every round, so a pass that
/// corrupts state is caught at the pass boundary that broke it.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_ANALYSIS_PASSMANAGER_H
#define PBT_ANALYSIS_PASSMANAGER_H

#include "analysis/BlockTyping.h"
#include "core/Transitions.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pbt {

class CostModel;
class FlatImage;
class InstrumentedProgram;
class ThreadPool;
struct MachineConfig;
struct PreparedSuite;
struct TechniqueSpec;

/// The evolving prepared state of one program as it moves through the
/// pipeline. Stages fill their slot and leave the rest alone; the
/// "present" flags (and null tests on the shared_ptrs) are what makes
/// every pass idempotent.
struct ProgramPrep {
  /// The source program; owned by the caller, outlives the run.
  const Program *Prog = nullptr;
  /// Cost-model binding of Prog to the machine (cost-model pass).
  std::shared_ptr<const CostModel> Cost;
  /// Phase-type assignment (typing pass; absent for the baseline).
  ProgramTyping Typing;
  bool Typed = false;
  /// Whether the clustering-error pass already perturbed Typing.
  bool ErrorInjected = false;
  /// Transition analysis output (transitions pass). Moved into the
  /// image by the instrument pass, after which Image carries the marks.
  MarkingResult Marking;
  bool Marked = false;
  /// Instrumented program (instrument pass).
  std::shared_ptr<const InstrumentedProgram> Image;
  /// Fused flat execution image (flatten pass).
  std::shared_ptr<const FlatImage> Flat;
};

/// Everything a pipeline run sees: the preparation request plus one
/// ProgramPrep per program. Pointees are owned by the caller.
struct PipelineContext {
  const MachineConfig *Machine = nullptr;
  const TechniqueSpec *Tech = nullptr;
  uint64_t TypingSeed = 42;
  /// Run the verification sweep after every pass (see VerifyPass).
  bool VerifyIR = false;
  std::vector<ProgramPrep> Programs;
  /// Pool for the per-program fan-out; the global pool when null.
  ThreadPool *Pool = nullptr;
};

/// One named stage of the static pipeline. Implementations must be
/// idempotent: doProgramPass returns true only when it computed state
/// that was not present yet, so a quiescent round ends the fixpoint.
/// doProgramPass may run concurrently for different programs and must
/// touch only its own ProgramPrep (plus the read-only context).
class ProgramPass {
public:
  virtual ~ProgramPass();

  virtual const char *name() const = 0;

  /// Whole-context setup before the first round. Returns true when it
  /// changed pipeline state.
  virtual bool doInitialization(PipelineContext &Ctx);

  /// One per-program step; returns true when it changed \p PC.
  virtual bool doProgramPass(ProgramPrep &PC,
                             const PipelineContext &Ctx) = 0;

  /// Whole-context wrap-up after the fixpoint. Returns true when it
  /// changed pipeline state.
  virtual bool doFinalization(PipelineContext &Ctx);
};

/// Per-pass counters of one pipeline run (or the process-wide
/// cumulative view). ProgramsChanged and Invocations are deterministic;
/// Seconds is wall time and must never feed a byte-compared artifact
/// (the driver surfaces it only in BENCH_driver.json, which is excluded
/// from every byte-identity check).
struct PassStats {
  std::string Name;
  /// doProgramPass calls, summed over rounds.
  uint64_t Invocations = 0;
  /// Calls that reported a change.
  uint64_t ProgramsChanged = 0;
  /// Wall time of the pass's sweeps (init + per-program + finalize).
  double Seconds = 0;
};

/// Outcome of one PassManager::run.
struct PipelineStats {
  /// Full rounds executed, including the quiescent one that ended the
  /// fixpoint.
  uint32_t Rounds = 0;
  std::vector<PassStats> Passes;
};

/// Runs registered passes over a PipelineContext to the cross-program
/// fixpoint, collecting per-pass stats. See the file comment for the
/// exact phase order.
class PassManager {
public:
  PassManager();
  PassManager(PassManager &&) = default;
  PassManager &operator=(PassManager &&) = default;
  ~PassManager();

  void add(std::unique_ptr<ProgramPass> Pass);
  size_t size() const { return Passes.size(); }

  /// Runs the pipeline on \p Ctx: every pass's doInitialization, then
  /// rounds of every pass's doProgramPass over every program until a
  /// round reports no change, then every pass's doFinalization. When
  /// Ctx.VerifyIR is set, a verification sweep runs after every pass
  /// (throwing std::runtime_error naming the pass, program, and broken
  /// invariant on failure). Stats are also accumulated into the
  /// process-wide cumulativePipelineStats().
  PipelineStats run(PipelineContext &Ctx) const;

private:
  std::vector<std::unique_ptr<ProgramPass>> Passes;
};

/// The fixed preparation pipeline: cost-model, typing, error-inject,
/// transitions, instrument, flatten. prepareSuite runs exactly this.
PassManager buildPreparationPipeline();

/// Builds a PipelineContext for preparing \p Programs (which must
/// outlive the context) with the VerifyIR flag seeded from the
/// process-wide toggle.
PipelineContext makePipelineContext(const std::vector<Program> &Programs,
                                    const MachineConfig &Machine,
                                    const TechniqueSpec &Tech,
                                    uint64_t TypingSeed,
                                    ThreadPool *Pool = nullptr);

/// VerifyPass's per-program check, usable standalone: validates every
/// artifact present in \p PC against the invariants in the file
/// comment. On failure writes a diagnostic to \p ErrorOut (when
/// non-null) and returns false.
bool verifyPrep(const ProgramPrep &PC, const PipelineContext &Ctx,
                std::string *ErrorOut = nullptr);

/// Verifies a finished suite (freshly prepared or loaded from the
/// store): every program's image, cost binding, and flat image.
bool verifyPrepared(const PreparedSuite &Suite, const MachineConfig &Machine,
                    std::string *ErrorOut = nullptr);

/// Process-wide verify-IR toggle. Defaults to the PBT_VERIFY_IR
/// environment variable (any non-empty value other than "0" enables);
/// the driver's `--verify-ir` flag calls the setter.
void setVerifyIR(bool Enabled);
bool verifyIREnabled();

/// Cumulative per-pass stats over every pipeline run of this process
/// (passes in first-seen order), for the driver's summary block.
PipelineStats cumulativePipelineStats();

} // namespace pbt

#endif // PBT_ANALYSIS_PASSMANAGER_H
