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
/// re-evaluated every quantum. A core whose queue is steady (every
/// front it will run sits in a budget-exhausting unmarked self-loop)
/// defers its quanta and charges them in one step later, bit-identical
/// to stepping them; a turn that is not steady is stepped inside the
/// deferred window while the round-robin schedule holds, and a process
/// placed on the core joins the window (see Machine::run).
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

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
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
  /// Flat-image engine: one indexed load per block, unmarked self-loop
  /// runs charged in O(1).
  Flat,
  /// Block-at-a-time interpreter over the IR + CostModel + mark table,
  /// retained as the differential-testing oracle.
  Reference,
};

/// Stable display name of \p Engine ("flat", "reference") — used by
/// artifact cell labels.
const char *engineName(ExecEngine Engine);

/// Why a deferred window was settled: one cause per call site of
/// Machine's settle (Plane-2 diagnostics, see Machine::windowSettles).
enum class SettleCause : uint8_t {
  /// The turn at a window's end broke the schedule (stepInWindow).
  WindowEnd,
  /// The L2 group's active-core count changed, so the turns' price did.
  L2Change,
  /// A policy edited or read the order of a queue: moveQueued,
  /// pullTail, the non-const queue().
  QueueEdit,
  /// An injection event is due.
  Event,
  /// The machine's exit handler runs.
  ExitHandler,
  /// A policy reading Anything is called: onSpawn, selectCore, balance,
  /// onExit.
  Policy,
  /// run() returns.
  RunEnd,
};
constexpr size_t NumSettleCauses = 7;

/// Stable counter-name suffix of \p Cause ("window_end", "l2_change",
/// "queue_edit", "event", "exit_handler", "policy", "run_end").
const char *settleCauseName(SettleCause Cause);

/// Simulation knobs independent of the machine's hardware shape.
struct SimConfig {
  /// Scheduler timeslice, simulated seconds.
  double Timeslice = 0.004;
  /// Load-balance period, simulated seconds (Linux rebalances busy cores
  /// on the order of 100 ms).
  double BalancePeriod = 0.1;
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

  /// Creates a process running the prepared image \p Flat (shared by
  /// every process of one benchmark) and enqueues it. \p Seed drives
  /// the process's branch outcomes, so identical seeds give identical
  /// dynamic traces across scheduler configurations (the paper's
  /// same-queues methodology). Returns the pid.
  /// \p InitialAffinity restricts the process's allowed cores from birth
  /// (0 = all cores), modeling externally pinned processes; the
  /// scheduling policy's onSpawn hook runs afterwards and may narrow the
  /// mask further (e.g. HassStaticScheduler's whole-program pinning).
  /// Throws std::invalid_argument when \p Flat's cost model was built
  /// for a machine with a different number of core types: its cycle
  /// rows would not line up with this machine's core types.
  uint32_t spawn(std::shared_ptr<const FlatImage> Flat,
                 const TunerConfig &TunerCfg, uint64_t Seed,
                 int32_t Slot = -1, uint64_t InitialAffinity = 0);

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
  /// end of the quantum in which requestStop() was called. On the Flat
  /// engine without a trace sink, each core whose queue is steady for
  /// two or more quanta opens a deferred window and is charged later in
  /// one step (settle); only the other cores step, and when every busy
  /// core is deferred the clock jumps to the earliest window end, event,
  /// required balance or \p Until. At its window's end a deferred core
  /// steps the one turn that is not steady and keeps the window open
  /// when that turn used its whole budget; a process placed on a
  /// deferred core joins its window. Balance instants that cannot move
  /// anything are skipped; the others run on deferred state unless the
  /// policy reads Anything (see PolicyReads). Every window is settled
  /// and every queued process's CpuSeconds written before run()
  /// returns, and the result is bit-identical to stepping every
  /// quantum.
  void run(double Until);

  /// Ends the simulation: the current run() call returns at the end of
  /// the current quantum, and later calls return at once. Exit handlers
  /// call it to implement stop rules (a job count, a drained stream).
  void requestStop() { StopRequested = true; }

  /// Core-quanta stepped one by one, and core-quanta charged inside
  /// deferred windows or jumped over on idle cores (Plane-2
  /// diagnostics). Their sum is cores times the quanta simulated; the
  /// Reference engine and traced runs step them all.
  uint64_t quantaStepped() const { return QuantaStepped; }
  uint64_t quantaFused() const { return QuantaFused; }
  /// Balance instants skipped because the policy could not move
  /// anything there (see PolicyReads).
  uint64_t balancesSkipped() const { return BalanceSkipped; }
  /// Deferred windows opened, windows settled (charged and closed),
  /// turns stepped inside a window that stayed open, placements that
  /// joined an open window, and catch-ups that charged a window's due
  /// turns for a telemetry read without closing it (Plane-2
  /// diagnostics; all 0 on the Reference engine and traced runs).
  uint64_t windowsOpened() const { return WindowsOpened; }
  uint64_t windowSettles() const {
    return std::accumulate(SettlesByCause.begin(), SettlesByCause.end(),
                           uint64_t{0});
  }
  /// Window settles made for \p Cause (see SettleCause).
  uint64_t windowSettles(SettleCause Cause) const {
    return SettlesByCause[static_cast<size_t>(Cause)];
  }
  uint64_t windowSteps() const { return WindowSteps; }
  uint64_t windowAbsorbs() const { return WindowAbsorbs; }
  uint64_t windowCatchUps() const { return WindowCatchUps; }

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
  /// A queue is the pids queued on a core, front (running next) first,
  /// in one contiguous vector. Queue lengths and the set of queued
  /// processes are exact at every call; the order of a deferred core's
  /// queue is not. The non-const queue() settles \p Core first, so the
  /// order it shows is the one stepping would; the const one shows the
  /// stored order, exact between run() calls and wherever the core
  /// holds no window. The reference is valid until the next call that
  /// may edit a queue (a spawn, a move, run()).
  uint32_t queueLength(uint32_t Core) const {
    return static_cast<uint32_t>(Queues[Core].size());
  }
  const std::vector<uint32_t> &queue(uint32_t Core) const {
    return Queues[Core];
  }
  const std::vector<uint32_t> &queue(uint32_t Core) {
    settle(Core, SettleCause::QueueEdit);
    return Queues[Core];
  }
  /// Moves a queued process to \p ToCore (affinity permitting); returns
  /// false when the process is not queued on \p FromCore or not allowed.
  /// \p FromCore is settled; the process joins \p ToCore's window if it
  /// holds one, as a placement does.
  bool moveQueued(uint32_t Pid, uint32_t FromCore, uint32_t ToCore);
  /// Moves the tail-most (coldest) process queued on \p FromCore that
  /// is allowed on \p ToCore; false when none is. Whether one is does
  /// not depend on queue order, so \p FromCore is settled only when a
  /// move happens.
  bool pullTail(uint32_t FromCore, uint32_t ToCore);

  /// Scheduler-policy telemetry for \p Pid: counter-derived instructions
  /// and cycles per core type plus the last execution window's IPC —
  /// what an asymmetry-aware OS policy is allowed to observe (see
  /// SchedTelemetry). Maintained for every process; never influences
  /// the simulation unless a policy acts on it. The non-const one first
  /// charges the turns due on \p Pid's deferred core, without closing
  /// its window, so it is exact at every call; the const one shows the
  /// stored counters, exact between run() calls and wherever the core
  /// holds no window.
  const SchedTelemetry &telemetry(uint32_t Pid) const {
    return Telem[Pid];
  }
  const SchedTelemetry &telemetry(uint32_t Pid) {
    TelemetryRead = true;
    // A process queued in an open window was last priced on its core
    // (openWindow, stepInWindow and enqueue call steadyTurns).
    uint32_t Core = Hot[Pid].LastCore;
    if (Core < Windows.size() && Windows[Core].Open)
      catchUp(Core);
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
  /// deferred windows, keyed by (SteadyCur, SteadyCfg, SteadyRem) =
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
    /// Turns of its core's open window already charged to the process
    /// (steady turns and turns stepped inside the window); reset when
    /// the window opens or the process joins it. Negative after the
    /// window is re-based (enqueue): the turns it ran before the new
    /// start and still owes.
    int64_t WindowTurns = 0;
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

  /// A core's deferred window: quanta [Start, End) whose steady turns
  /// are charged later, in one step, by settle(), plus the turns its
  /// processes owe from before Start (see HotProc::WindowTurns). The
  /// turn at End is stepped inside the window (stepInWindow), which
  /// may extend it.
  struct CoreWindow {
    bool Open = false;
    uint64_t Start = 0;
    uint64_t End = 0;
    /// The L2 group's active-core count the turns were priced at.
    uint32_t Active = 0;
    /// The core's BusyCycles once every turn in [Start, End) and every
    /// owed one is charged.
    double Busy = 0;
    /// Quanta through which the last catch-up charged the window's
    /// turns (see catchUp); UINT64_MAX when none did since it opened.
    uint64_t CaughtUp = UINT64_MAX;
  };

  /// True when quanta may be deferred: the Reference interpreter is the
  /// oracle and traced runs emit per-quantum events, so both step.
  bool fusing() const { return Sim.Engine == ExecEngine::Flat && !Trace; }

  /// True when the balance instant at hand cannot move anything: the
  /// policy reads only Shape, or reads Telemetry and the last balance
  /// read none; no queue or mask changed since the last balance, which
  /// made no move.
  bool balanceSkippable() const {
    return (Reads == PolicyReads::Shape ||
            (Reads == PolicyReads::Telemetry && !TelemetryRead)) &&
           !ShapeDirty && fusing();
  }

  /// Opens a deferred window on the busy \p Core at the current quantum
  /// when its queue is steady for at least two quanta; returns false
  /// when the core must step. GroupActive must hold this quantum's
  /// sharer counts.
  bool openWindow(uint32_t Core);

  /// The core's BusyCycles once the turns of \p Core's window through
  /// its first \p Quanta quanta, and the owed ones, that are not
  /// charged yet are; at least ExactCycleBound when charging them would
  /// take any accumulator they touch to the bound (then the products
  /// would not be exact).
  double windowBusy(uint32_t Core, uint64_t Quanta) const;

  /// Plans the end of \p Core's window: the first quantum in which a
  /// turn is not steady, cut by halving what lies past \p Floor until
  /// charging the window is exact. The window through \p Floor must be
  /// exact, and W.Busy must hold its busy-cycle sum when \p Floor is
  /// past W.Start.
  void planEnd(uint32_t Core, uint64_t Floor);

  /// Charges \p Turns steady turns of \p P on \p Core's window.
  void chargeSteady(uint32_t Core, Process &P, int64_t Turns);

  /// Charges the turns of \p Core's window through its first \p Quanta
  /// quanta, and the owed ones, that are not charged yet; the window
  /// stays as it is.
  void chargeWindow(uint32_t Core, uint64_t Quanta);

  /// Charges the turns \p Core's open window has run so far (through
  /// the current quantum when the core's turn in it has run), without
  /// closing, rotating or re-planning it, so its processes' telemetry
  /// is exact. Once per quantum and visit side.
  void catchUp(uint32_t Core);

  /// Appends \p Pid to \p Core's queue. When the core holds a window
  /// the process joins it instead of settling it: the window is
  /// re-based to start now, the queue rotates by the quanta it has run,
  /// those quanta's turns stay uncharged as owed turns, and the end is
  /// re-planned with the newcomer in the rotation.
  void enqueue(uint32_t Core, uint32_t Pid);

  /// Steps, inside \p Core's window, the turn at its planned end: that
  /// of the process whose steady run ends there, or the first turn past
  /// a cut made for exactness. When the turn used its whole budget
  /// and the busy-cycle sum stays exact, the window stays open and is
  /// re-planned (true). Otherwise the window is settled through the
  /// previous quantum and the turn is finished as a stepped one, so the
  /// core steps the rest of the quantum (false).
  bool stepInWindow(uint32_t Core);

  /// Charges \p Core's open window and closes it: through the current
  /// quantum when the core's turn in it has run (Core < VisitPos), else
  /// through the previous one. \p Cause tags the settle's counter.
  void settle(uint32_t Core, SettleCause Cause);
  void settleAll(SettleCause Cause);

  /// Writes \p P's CpuSeconds from its per-type cycle sums.
  void publishCpuSeconds(Process &P) const;

  /// Books one stepped turn of \p P on \p Core: busy cycles, process
  /// stats, telemetry and the trace window.
  void chargeTurn(uint32_t Core, Process &P, const AdvanceResult &R);

  /// Books the turn \p R of \p Core's front process \p P (Used[Core]
  /// already counts it), then exits, migrates or rotates the process.
  void finishTurn(uint32_t Core, Process &P, const AdvanceResult &R);

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
  /// SchedulerPolicy::reads() of Policy (fixed for its life).
  PolicyReads Reads = PolicyReads::Anything;
  /// A queue gained or lost a process, or a mask changed, since the
  /// last balance call.
  bool ShapeDirty = true;
  /// The non-const telemetry() was called since the last balance call
  /// started.
  bool TelemetryRead = false;
  uint64_t QuantaStepped = 0;
  uint64_t QuantaFused = 0;
  uint64_t BalanceSkipped = 0;
  uint64_t WindowsOpened = 0;
  std::array<uint64_t, NumSettleCauses> SettlesByCause{};
  uint64_t WindowSteps = 0;
  uint64_t WindowAbsorbs = 0;
  uint64_t WindowCatchUps = 0;
  /// Index of the quantum starting at Now.
  uint64_t Quantum = 0;
  /// Inside a stepped quantum, the cores below VisitPos have had their
  /// turn in it (NumCores once the first pass is done); 0 elsewhere.
  uint32_t VisitPos = 0;
  std::vector<std::vector<uint32_t>> Queues;
  std::vector<CoreWindow> Windows;
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
