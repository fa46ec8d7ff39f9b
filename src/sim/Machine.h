//===- sim/Machine.h - AMP simulation driver --------------------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discrete quantum-stepped AMP simulator. Each core runs the
/// front of its runqueue for one timeslice; the execution engine walks
/// the process's CFG charging analytic block costs, fires phase marks on
/// instrumented edges and call sites, performs counter-based monitoring,
/// and carries out affinity switches. Shared-L2 contention is modeled by
/// halving the effective cache per active sharer of the L2 group,
/// re-evaluated every quantum. Runs of steady quanta (every queue front
/// in a budget-exhausting unmarked self-loop) are charged in one step,
/// bit-identical to stepping them (see Machine::run).
///
/// The phase-tuned and baseline configurations differ *only* in the
/// program image (marks or no marks), matching the paper's transparent-
/// deployment claim: the OS scheduler policy is identical in both runs.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SIM_MACHINE_H
#define PBT_SIM_MACHINE_H

#include "sim/FlatImage.h"
#include "sim/MachineConfig.h"
#include "sim/PerfCounters.h"
#include "sim/Process.h"
#include "sim/Scheduler.h"
#include "support/Rng.h"

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

namespace pbt {

namespace obs {
class TraceSink;
}

/// Which interpreter advances processes through their programs. Both
/// produce bit-identical results: cycle costs sit on an exact dyadic
/// grid (see CostModel.h), so the Flat engine's one-step charges equal
/// the Reference interpreter's block-at-a-time adds.
enum class ExecEngine : uint8_t {
  /// Flat-image engine: one indexed load per block, mark-free superblock
  /// chains and unmarked self-loop runs charged in O(1).
  Flat,
  /// Block-at-a-time interpreter over the IR + CostModel + mark lookup,
  /// retained as the differential-testing oracle.
  Reference,
};

/// Stable display name of \p Engine ("flat", "reference") — used by
/// artifact cell labels.
const char *engineName(ExecEngine Engine);

/// Simulation knobs independent of the machine's hardware shape.
struct SimConfig {
  /// Scheduler timeslice, simulated seconds.
  double Timeslice = 0.004;
  /// Load-balance period, simulated seconds (Linux rebalances busy cores
  /// on the order of 100 ms).
  double BalancePeriod = 0.1;
  /// Concurrent hardware-counter monitoring slots (0 = unlimited).
  /// Counters are per-core resources virtualized across context
  /// switches; two contexts per core of the paper's quad is the default.
  uint32_t CounterSlots = 8;
  /// Cycles of one affinity-API call (no migration).
  uint32_t AffinityApiCycles = 150;
  /// Cycles lost when a counter slot was unavailable (retry at next mark).
  uint32_t CounterWaitCycles = 500;
  /// Master seed for process RNG derivation.
  uint64_t Seed = 0x5EED;
  /// Execution engine (Flat and Reference are bit-identical).
  ExecEngine Engine = ExecEngine::Flat;
};

/// The simulated machine: cores, runqueues, clock, counter slots.
class Machine {
public:
  /// Throws std::invalid_argument when \p Sim is inconsistent:
  /// non-positive Timeslice or BalancePeriod, or a Timeslice longer than
  /// the BalancePeriod (balancing would never observe a settled quantum).
  Machine(MachineConfig Config, SimConfig Sim,
          std::unique_ptr<SchedulerPolicy> Policy);

  /// Called when a process completes; may spawn replacements.
  using ExitHandler = std::function<void(Machine &, Process &)>;
  void setExitHandler(ExitHandler Handler) { OnExit = std::move(Handler); }

  /// Creates a process running \p IProg and enqueues it. \p Seed drives
  /// the process's branch outcomes, so identical seeds give identical
  /// dynamic traces across scheduler configurations (the paper's
  /// same-queues methodology). Returns the pid.
  /// \p InitialAffinity restricts the process's allowed cores from birth
  /// (0 = all cores), modeling externally pinned processes; the
  /// scheduling policy's onSpawn hook runs afterwards and may narrow the
  /// mask further (e.g. HassStaticScheduler's whole-program pinning).
  /// \p Flat, when non-null, supplies a prebuilt execution image (the
  /// workload runner shares one per benchmark); otherwise the machine
  /// builds and caches one per (program, cost model) pair.
  uint32_t spawn(std::shared_ptr<const InstrumentedProgram> IProg,
                 std::shared_ptr<const CostModel> Cost,
                 const TunerConfig &TunerCfg, uint64_t Seed,
                 int32_t Slot = -1, uint64_t InitialAffinity = 0,
                 std::shared_ptr<const FlatImage> Flat = nullptr);

  /// Schedules \p Fn for deterministic mid-run injection at simulated
  /// time \p Time: it fires at the start of the first quantum whose
  /// clock has reached \p Time — before the balance check, so a policy
  /// balancing at that instant already sees the injected work. Events
  /// fire in (time, insertion order); a callback may spawn processes
  /// (the traffic-scenario layer injects job arrivals this way, firing
  /// the policy's onSpawn hook exactly like a direct spawn) or schedule
  /// further events. Events beyond the current run() window stay
  /// pending for later calls. Scheduling at or before now() fires at
  /// the next quantum start.
  void scheduleAt(double Time, std::function<void(Machine &)> Fn);

  /// Events scheduled but not yet fired.
  size_t pendingEvents() const { return Events.size(); }

  /// Advances simulated time to \p Until (absolute seconds), or to the
  /// end of the quantum in which requestStop() was called. Runs of
  /// steady quanta are charged in one step (see fuseSteadyQuanta);
  /// the result is bit-identical to stepping them.
  void run(double Until);

  /// Ends the simulation: the current run() call returns at the end of
  /// the current quantum, and later calls return at once. Exit handlers
  /// call it to implement stop rules (a job count, a drained stream).
  void requestStop() { StopRequested = true; }

  /// Quanta simulated one by one, and quanta charged inside fused
  /// windows of steady quanta (Plane-2 diagnostics; their sum is every
  /// quantum this machine simulated).
  uint64_t quantaStepped() const { return QuantaStepped; }
  uint64_t quantaFused() const { return QuantaFused; }

  double now() const { return Now; }

  /// Sum of instructions retired by all processes (throughput metric).
  uint64_t totalInstructions() const;

  /// Fraction of elapsed cycles core \p Core spent executing (utilization
  /// diagnostic; 0 before the first quantum).
  double coreBusyFraction(uint32_t Core) const;

  const MachineConfig &config() const { return Config; }
  const SimConfig &simConfig() const { return Sim; }
  const CounterManager &counters() const { return Counters; }

  const std::vector<std::unique_ptr<Process>> &processes() const {
    return Procs;
  }
  Process &process(uint32_t Pid) { return *Procs[Pid]; }

  /// Scheduler-policy API: runqueue inspection and queued-process moves.
  uint32_t queueLength(uint32_t Core) const {
    return static_cast<uint32_t>(Queues[Core].size());
  }
  const std::deque<uint32_t> &queue(uint32_t Core) const {
    return Queues[Core];
  }
  /// Moves a queued process to \p ToCore (affinity permitting); returns
  /// false when the process is not queued on \p FromCore or not allowed.
  bool moveQueued(uint32_t Pid, uint32_t FromCore, uint32_t ToCore);

  /// Scheduler-policy telemetry for \p Pid: counter-derived instructions
  /// and cycles per core type plus the last execution window's IPC —
  /// what an asymmetry-aware OS policy is allowed to observe (see
  /// SchedTelemetry). Maintained for every process; never influences
  /// the simulation unless a policy acts on it.
  const SchedTelemetry &telemetry(uint32_t Pid) const {
    return Telem[Pid];
  }

  /// Attaches the Plane-1 trace sink (nullptr detaches). The machine
  /// emits core-track metadata immediately and simulated-time events
  /// from then on; the caller keeps ownership and must outlive the
  /// machine or detach first. With no sink attached the only cost is a
  /// pointer test per quantum/advance — no virtual calls, nothing in
  /// the engines' block loops (see obs/Trace.h).
  void setTraceSink(obs::TraceSink *Sink);
  obs::TraceSink *traceSink() const { return Trace; }

private:
  struct AdvanceResult {
    double CyclesUsed = 0;
    /// Instructions retired by this advance call (scheduler telemetry;
    /// filled by every engine so run() never re-reads cold stats).
    uint64_t InstsDelta = 0;
    bool Finished = false;
    bool Migrated = false;
  };

  /// Hot lane of one process: the fields the execution engines touch
  /// every quantum, split out of the cold Process body into one dense
  /// per-pid array (the SoA hot/cold split — Process keeps identity,
  /// call stack, tuner, lifecycle; the lane keeps the per-quantum
  /// invariant cache). CfgOff is the block-cost config offset for
  /// (LastCore, LastSharers): loop-invariant within a quantum and
  /// across consecutive quanta on the same core with the same sharer
  /// count, so engines recompute it only when either changes
  /// (migration, or an L2 neighbour going idle/busy). configOffset is
  /// a pure function of (core type, sharers), so the cache can never
  /// change results — tests/flatimage_test.cpp locks this in against
  /// the per-block recomputing reference engine.
  ///
  /// The Steady* fields cache the process's steady-turn shape for
  /// fuseSteadyQuanta, keyed by (SteadyCur, SteadyCfg, SteadyRem) =
  /// (CurGlobal, CfgOff, LoopRemaining[CurGlobal]): a pure function of
  /// the key, so a stale entry is never used and a hit saves the
  /// division that finds the turn's iteration count.
  struct HotProc {
    uint32_t LastCore = ~0u;
    uint32_t LastSharers = 0;
    uint32_t CfgOff = 0;
    uint32_t SteadyCur = ~0u;
    uint32_t SteadyCfg = 0;
    uint32_t SteadyRem = 0;
    /// Steady turns left from the keyed state (0 = not steady).
    uint32_t SteadyTurns = 0;
    /// Self-loop iterations one steady turn runs (J).
    uint32_t SteadyIters = 0;
    /// Instructions one steady turn retires (J * block insts).
    uint64_t SteadyInsts = 0;
    /// Cycles one steady turn charges (J * block cycles).
    double SteadyCharge = 0;
  };

  /// CfgOff for \p P on (\p Core, \p Sharers), served from the hot
  /// lane's per-quantum invariant cache.
  uint32_t configOffsetCached(const Process &P, uint32_t Core,
                              uint32_t Sharers) {
    HotProc &H = Hot[P.Pid];
    if (Core != H.LastCore || Sharers != H.LastSharers) {
      H.CfgOff = P.Flat->configOffset(coreType(Core), Sharers);
      H.LastCore = Core;
      H.LastSharers = Sharers;
    }
    return H.CfgOff;
  }

  /// Steady turns \p P has left on \p Core with \p Sharers L2 sharers:
  /// consecutive front-of-queue turns, each one run of J unmarked
  /// self-loop iterations that exhausts the quantum budget and changes
  /// nothing but counters and the trip count. 0 when the next turn is
  /// not steady. Fills the process's HotProc steady cache.
  uint32_t steadyTurns(const Process &P, uint32_t Core, uint32_t Sharers);

  /// Charges the run of steady quanta starting at the current quantum
  /// in one step when there are at least two, advancing Now past them;
  /// returns false (nothing changed) when the quantum must be stepped.
  /// GroupActive must hold this quantum's sharer counts.
  bool fuseSteadyQuanta(double Until);

  /// Runs \p P on \p Core for at most \p BudgetCycles (dispatches on
  /// SimConfig::Engine).
  AdvanceResult advanceProcess(Process &P, uint32_t Core,
                               double BudgetCycles, uint32_t Sharers);

  /// Flat-image engine (see FlatImage.h).
  AdvanceResult advanceProcessFlat(Process &P, uint32_t Core,
                                   double BudgetCycles, uint32_t Sharers);

  /// Block-at-a-time reference interpreter (differential oracle).
  AdvanceResult advanceProcessReference(Process &P, uint32_t Core,
                                        double BudgetCycles,
                                        uint32_t Sharers);

  /// Executes one phase mark; returns true when the process must migrate
  /// off its current core. Adds overhead cycles to \p Cycles.
  bool fireMark(Process &P, const PhaseMark &Mark, uint32_t Core,
                double &Cycles);

  /// Completes an in-flight monitoring session, delivering the sample.
  void finishMonitor(Process &P);

  /// Enqueues a ready process via the scheduling policy; returns the
  /// selected core (trace hooks record placements).
  uint32_t placeProcess(uint32_t Pid);

  /// Emits the quantum's buffered execution windows as core-track
  /// slices with instruction-proportional widths (see obs/Trace.h).
  void flushTraceWindows();

  uint32_t coreType(uint32_t Core) const {
    return Config.Cores[Core].TypeId;
  }
  double coreFrequency(uint32_t Core) const {
    return Config.CoreTypes[coreType(Core)].Frequency;
  }

  MachineConfig Config;
  SimConfig Sim;
  std::unique_ptr<SchedulerPolicy> Policy;
  ExitHandler OnExit;
  /// Pending injection events, ordered by (time, insertion order) —
  /// multimap preserves insertion order among equal keys, which is what
  /// keeps same-instant arrivals deterministic.
  std::multimap<double, std::function<void(Machine &)>> Events;
  CounterManager Counters;
  double Now = 0;
  double NextBalance = 0;
  bool StopRequested = false;
  uint64_t QuantaStepped = 0;
  uint64_t QuantaFused = 0;
  std::vector<std::deque<uint32_t>> Queues;
  std::vector<std::unique_ptr<Process>> Procs;
  /// Per-process hot lanes, indexed like Procs (see HotProc).
  std::vector<HotProc> Hot;
  /// Per-process scheduler telemetry, indexed like Procs.
  std::vector<SchedTelemetry> Telem;
  std::vector<double> BusyCycles;
  /// Per-quantum scratch, hoisted out of run() so timeslices allocate
  /// nothing: active cores per L2 group, and used cycles per core.
  std::vector<uint32_t> GroupActive;
  std::vector<double> Used;
  /// Flat images built on demand for direct spawn() callers, keyed by
  /// (program, cost model) identity; entries stay alive with the
  /// processes holding them.
  std::map<std::pair<const void *, const void *>,
           std::shared_ptr<const FlatImage>>
      FlatCache;
  Rng Gen;
  /// Plane-1 trace sink; nullptr = tracing off (the common case).
  obs::TraceSink *Trace = nullptr;
  /// One buffered execution window (advanceProcess call) of the
  /// current quantum; flushed into slices at quantum end so widths can
  /// be instruction-proportional shares of the whole quantum.
  struct TraceWindow {
    uint32_t Core;
    uint32_t Pid;
    uint64_t Insts;
  };
  /// Per-quantum trace scratch (members so tracing allocates nothing
  /// steady-state).
  std::vector<TraceWindow> TraceWindows;
  std::vector<uint64_t> TraceCoreInsts;
  std::vector<double> TraceCoreCursor;
};

} // namespace pbt

#endif // PBT_SIM_MACHINE_H
