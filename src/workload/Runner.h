//===- workload/Runner.h - Experiment preparation & execution --*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Glue between the static pipeline and the simulator: prepares
/// instrumented benchmark images for a *technique* (baseline or a
/// phase-tuning variant), measures isolated runtimes (the t_i of the
/// paper's fairness metrics), and replays slot/queue workloads.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_WORKLOAD_RUNNER_H
#define PBT_WORKLOAD_RUNNER_H

#include "core/ErrorInjection.h"
#include "core/Instrument.h"
#include "core/Transitions.h"
#include "core/Tuner.h"
#include "scenario/Scenario.h"
#include "sim/Machine.h"
#include "support/ThreadPool.h"
#include "workload/Workload.h"

#include <memory>
#include <string>
#include <vector>

namespace pbt {

/// A named configuration under test.
struct TechniqueSpec {
  /// Baseline = uninstrumented programs under the oblivious scheduler
  /// (the paper's "standard Linux assignment").
  bool Baseline = false;
  /// Phase-marking configuration (ignored for the baseline).
  TransitionConfig Transition;
  /// Dynamic-analysis configuration (ignored for the baseline).
  TunerConfig Tuner;
  /// Use the proof-of-concept static k-means typing instead of the
  /// behavioural oracle (Sec. II-A3 ablation).
  bool UseStaticTyping = false;
  /// Clustering-error fraction injected after typing (Fig. 7).
  double TypingError = 0;
  /// Instrumentation cost profile.
  MarkCostModel Cost = MarkCostModel::tuned();

  /// Unambiguous display label: "Linux" (baseline) or the transition
  /// label with static-typing / typing-error markers appended
  /// ("Loop[45]", "Loop[45]+static", "BB[15,0]+err10%"), so sweep cells
  /// labeled by technique are self-describing. OS-level strategies are
  /// not techniques: the HASS-style comparator lives on the scheduler
  /// axis (SchedulerSpec::hassStatic()).
  std::string label() const;

  static TechniqueSpec baseline() {
    TechniqueSpec T;
    T.Baseline = true;
    return T;
  }

  static TechniqueSpec tuned(TransitionConfig Transition, TunerConfig Tuner) {
    TechniqueSpec T;
    T.Transition = Transition;
    T.Tuner = Tuner;
    return T;
  }

  bool operator==(const TechniqueSpec &Other) const {
    return samePreparation(Other) && Tuner == Other.Tuner;
  }
  bool operator!=(const TechniqueSpec &Other) const {
    return !(*this == Other);
  }

  /// True when \p Other prepares bit-identical suites: every field except
  /// Tuner, which only parameterizes the dynamic analysis at spawn time
  /// and never affects typing/marking/instrumentation/flat images. The
  /// suite cache keys on this relation, so sweeps that vary only the
  /// tuner reuse prepared images.
  bool samePreparation(const TechniqueSpec &Other) const {
    return Baseline == Other.Baseline && Transition == Other.Transition &&
           UseStaticTyping == Other.UseStaticTyping &&
           TypingError == Other.TypingError && Cost == Other.Cost;
  }

  /// Stable content hash mirroring samePreparation (Tuner excluded).
  uint64_t preparationHash() const;
};

/// Stable content hash over every TechniqueSpec field.
uint64_t hashValue(const TechniqueSpec &Tech);

/// Ready-to-run benchmark images for one technique on one machine.
/// Deliberately scheduler-free: the same prepared suite replays under
/// any SchedulerSpec (OS-level assignment, including the HASS-static
/// comparator's spawn pinning, lives entirely in the scheduler policy).
struct PreparedSuite {
  /// One fused flat execution image per benchmark, shared by every
  /// process spawned from this suite. Each owns its instrumented
  /// program (FlatImage::program()) and cost model (FlatImage::cost()).
  std::vector<std::shared_ptr<const FlatImage>> Flats;
  std::vector<std::string> Names;
  TunerConfig Tuner;
};

/// Runs the static preparation pipeline over \p Programs for \p Tech on
/// \p Machine and returns one flat image per input, in input order: the
/// unit of incremental preparation, which exp/SuiteCache assembles
/// suites from and stores individually as its phase marks alone
/// (`pbt-prog-v4` entries, reloaded through imageFromMarks).
/// \p TypingSeed drives k-means and error injection.
///
/// The pipeline is a fixed sequence of stages — cost-model, typing,
/// error-inject, transitions, instrument, flatten — each run as one
/// parallelFor over the programs on \p Pool (the global thread pool when
/// null), with by-index writes, so output is bit-identical regardless of
/// pool size. The baseline skips typing and error-inject, and
/// error-inject runs only when Tech.TypingError > 0. Under the verify-IR
/// toggle the verifyPrep sweep runs after every stage and throws
/// std::runtime_error naming the stage, program and broken invariant.
/// Per-stage counters accumulate into cumulativePipelineStats()
/// (analysis/PassManager.h).
///
/// The cost-model stage binds each program to its technique-invariant
/// base: one immutable copy of the program plus its CostModel (whose
/// cycle table every flat image reads), CFG facts, oracle typing and
/// static k-means typing per typing seed (built on first use), shared
/// process-wide by every preparation of an equal program on an equal
/// machine while any result still holds it. The typing stage copies the
/// base's oracle or static typing and the transitions stage reads its
/// facts. Every image is built on that shared program, so the returned
/// Flat->program().program() is the base copy, not the caller's object.
/// A base is reused only after full structural equality of program and
/// machine; the registry counters
/// analysis.cost_models_built and analysis.cost_models_shared count
/// fresh builds and reuses, and analysis.static_typings_built and
/// analysis.static_typings_shared the same for the static typings.
std::vector<std::shared_ptr<const FlatImage>>
preparePrograms(const std::vector<Program> &Programs,
                const MachineConfig &Machine, const TechniqueSpec &Tech,
                uint64_t TypingSeed = 42, ThreadPool *Pool = nullptr);

/// Rebuilds the flat image of \p Prog prepared with phase marks
/// \p Marking and mark cost \p Cost: binds \p Prog to its shared base on
/// \p Machine (the cost-model stage's, built if none is live) and runs
/// the instrument and flatten stages' constructors on it, so the image
/// shares its program and cost model with every preparation of an equal
/// program in the process. \p Marking must be legal for \p Prog: every
/// mark's procedure and block in range, SuccIndex < 2, no two marks on
/// one anchor. The store's load path (exp/CacheStore).
std::shared_ptr<const FlatImage>
imageFromMarks(const Program &Prog, const MachineConfig &Machine,
               MarkingResult Marking, const MarkCostModel &Cost);

/// Types + marks + instruments every program for \p Tech on \p Machine
/// (see preparePrograms) and assembles the results into a suite.
PreparedSuite prepareSuite(const std::vector<Program> &Programs,
                           const MachineConfig &Machine,
                           const TechniqueSpec &Tech,
                           uint64_t TypingSeed = 42,
                           ThreadPool *Pool = nullptr);

/// The evolving prepared state of one program between pipeline stages.
/// Each stage fills its slot; Typed and Marked tell verifyPrep which of
/// the intermediate results are present.
struct ProgramPrep {
  /// The program being prepared: the caller's until the cost-model
  /// stage, which rebinds it to Base.
  const Program *Prog = nullptr;
  /// The shared, equal-content program every later stage and the image
  /// build on (cost-model stage).
  std::shared_ptr<const Program> Base;
  /// Cost-model binding of Prog to the machine (cost-model stage);
  /// shared with every preparation of the same base.
  std::shared_ptr<const CostModel> Cost;
  /// Phase-type assignment (typing and error-inject stages).
  ProgramTyping Typing;
  bool Typed = false;
  /// Transition analysis output (transitions stage). Moved into the
  /// image by the instrument stage, after which Image carries the marks.
  MarkingResult Marking;
  bool Marked = false;
  /// Instrumented program (instrument stage).
  std::shared_ptr<const InstrumentedProgram> Image;
  /// Flat execution image: the base's layout with the image's mark
  /// table (flatten stage).
  std::shared_ptr<const FlatImage> Flat;
};

/// Validates every artifact present in \p PC: Program::verify,
/// CFG/dominator/loop consistency, typing shape, mark-placement
/// legality, flat-image block-id contiguity, record decoding and
/// cost-table binding, and every cycle-table entry on the exact cycle
/// grid. When \p Tech is non-null
/// the image's mark-cost model must match it. On failure writes a
/// diagnostic to \p ErrorOut (when non-null) and returns false.
bool verifyPrep(const ProgramPrep &PC, const TechniqueSpec *Tech,
                std::string *ErrorOut = nullptr);

/// Verifies a finished suite (freshly prepared or loaded from the
/// store): every flat image with the program and cost model it owns.
bool verifyPrepared(const PreparedSuite &Suite, const MachineConfig &Machine,
                    std::string *ErrorOut = nullptr);

/// Process-wide verify-IR toggle. Defaults to the PBT_VERIFY_IR
/// environment variable (any non-empty value other than "0" enables);
/// the driver's `--verify-ir` flag calls the setter.
void setVerifyIR(bool Enabled);
bool verifyIREnabled();

/// Isolated runtime t_i of each program: uninstrumented, alone on the
/// machine, canonical branch seed. The per-program simulations are
/// independent, so they run concurrently on the global thread pool;
/// results are ordered (and bit-identical to) the serial loop.
std::vector<double> isolatedRuntimes(const std::vector<Program> &Programs,
                                     const MachineConfig &Machine,
                                     const SimConfig &Sim = SimConfig());

/// isolatedRuntimes over an already prepared baseline suite (callers
/// with a suite cache avoid re-running the static pipeline; exp::Lab
/// uses this so isolated-runtime measurement shares cached images).
std::vector<double> isolatedRuntimes(const PreparedSuite &BaselineSuite,
                                     const MachineConfig &Machine,
                                     const SimConfig &Sim = SimConfig());

/// One finished job of a workload run.
struct CompletedJob {
  uint32_t Bench = 0;
  int32_t Slot = -1;
  /// When the job arrived: for open scenarios the *scheduled* arrival
  /// instant of the stream — turnaround and slowdown include any
  /// door-queue (MaxInFlight) and quantum-alignment wait — and for
  /// batch runs the spawn time, as always.
  double Arrival = 0;
  /// When the job entered the machine (spawn). Equals Arrival for
  /// batch runs; >= Arrival for open scenarios (Admitted - Arrival is
  /// the admission delay).
  double Admitted = 0;
  double Completion = 0;
  /// Isolated runtime t_i of the benchmark (0 when not supplied).
  double Isolated = 0;
  ProcessStats Stats;
};

/// Outcome of a workload run.
struct RunResult {
  /// Simulated end of the run: the requested horizon for classic batch
  /// runs without a stop rule; the actual clock (quantized to whole
  /// timeslices) for open-scenario runs and for any run with a
  /// job-count stop rule, which may end early.
  double Horizon = 0;
  /// Instructions retired machine-wide within the horizon (throughput).
  uint64_t InstructionsRetired = 0;
  /// Completed jobs in canonical order: the one input of every latency
  /// and fairness metric (metrics/Latency, metrics/Fairness).
  std::vector<CompletedJob> Completed;
  /// Jobs completed within the horizon; always Completed.size(). Kept
  /// as its own field because external harnesses read the job count
  /// from it.
  size_t CompletedCount = 0;
  /// Aggregates over all processes (finished or not).
  uint64_t TotalSwitches = 0;
  uint64_t TotalMarks = 0;
  uint64_t CounterWaits = 0;
  double TotalOverheadCycles = 0;
  double TotalCycles = 0;
  /// Per-core busy fraction over the horizon (utilization diagnostic).
  std::vector<double> CoreBusy;
  /// Machine-wide scheduler telemetry summed over all processes,
  /// indexed by core type: what ran where (see SchedTelemetry).
  /// Sweeps export it into artifacts only on request
  /// (SweepGrid::ExportTelemetry).
  std::vector<uint64_t> InstsByType;
  std::vector<double> CyclesByType;
};

/// Replays \p W on \p MachineCfg for \p Horizon simulated seconds under
/// the OS policy named by \p Sched (the oblivious Linux-like baseline by
/// default — the exact policy every pre-scheduler-axis experiment ran)
/// and the traffic scenario \p Scenario (batch-at-zero by default — the
/// classic closed system, bit-identical to the pre-scenario path; open
/// scenarios ignore \p W's queues entirely and draw their own seeded
/// job stream over the suite). \p Isolated, when non-empty,
/// supplies per-benchmark t_i values copied into CompletedJob::Isolated
/// (the slowdown oracle of metrics/Latency). RunResult::Completed is
/// canonically ordered (completion time, then slot/arrival/bench as
/// tie-breaks) so downstream tables are stable however the run was
/// scheduled.
///
/// \p Trace, when non-null, attaches a Plane-1 trace sink for the
/// replay (obs/Trace.h): the simulation is bit-identical with or
/// without it — tracing only observes.
RunResult runWorkload(const PreparedSuite &Suite, const Workload &W,
                      const MachineConfig &MachineCfg, const SimConfig &Sim,
                      double Horizon,
                      const std::vector<double> &Isolated = {},
                      const SchedulerSpec &Sched = SchedulerSpec(),
                      const ScenarioSpec &Scenario = ScenarioSpec(),
                      obs::TraceSink *Trace = nullptr);

/// One workload replay request for the parallel runner. Pointees must
/// outlive the runWorkloads call.
struct WorkloadJob {
  const PreparedSuite *Suite = nullptr;
  const Workload *W = nullptr;
  const MachineConfig *Machine = nullptr;
  SimConfig Sim;
  double Horizon = 0;
  /// Optional per-benchmark t_i values (see runWorkload).
  const std::vector<double> *Isolated = nullptr;
  /// OS scheduling policy of this replay (oblivious by default).
  SchedulerSpec Sched;
  /// Traffic scenario of this replay (classic batch-at-zero by default).
  ScenarioSpec Scenario;
  /// Plane-1 trace identity of this replay: when non-empty AND tracing
  /// is enabled process-wide, the runner opens a per-unit sink named
  /// TRACE_<experiment>.g<TraceGroup>.<TraceUnit>.json. Unit ids come
  /// from the sweep plan, so file names — and contents — are
  /// independent of thread scheduling.
  std::string TraceUnit;
  uint64_t TraceGroup = 0;
};

/// Replays all jobs concurrently on the global thread pool. Each job is
/// a fully independent simulation (own machine, own process RNG streams
/// derived from the workload's deterministic seeds), so every result is
/// bit-identical to a serial runWorkload call, and results are returned
/// in input order regardless of completion order.
std::vector<RunResult> runWorkloads(const std::vector<WorkloadJob> &Jobs);

/// Runs benchmark \p Bench of \p Suite alone to completion; returns the
/// finished process's record (Table 1 / Fig. 5 per-benchmark data).
/// Always runs under the oblivious scheduler: the isolated runtime t_i
/// is *defined* against the paper's Linux baseline, so the fairness
/// metrics stay comparable across scheduler-axis sweeps. Throws
/// std::runtime_error naming the benchmark when it has not finished
/// after 1e7 simulated seconds.
CompletedJob runIsolated(const PreparedSuite &Suite, uint32_t Bench,
                         const MachineConfig &MachineCfg,
                         const SimConfig &Sim, uint64_t Seed = 1);

} // namespace pbt

#endif // PBT_WORKLOAD_RUNNER_H
