//===- sim/Machine.cpp - AMP simulation driver -----------------------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Machine.h"

#include "obs/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

using namespace pbt;

/// Concurrent hardware-counter monitoring slots. Counters are per-core
/// resources virtualized across context switches: two contexts per core
/// of the paper's quad.
static constexpr uint32_t CounterSlots = 8;

const char *pbt::engineName(ExecEngine Engine) {
  switch (Engine) {
  case ExecEngine::Flat:
    return "flat";
  case ExecEngine::Reference:
    return "reference";
  }
  return "unknown";
}

const char *pbt::settleCauseName(SettleCause Cause) {
  switch (Cause) {
  case SettleCause::WindowEnd:
    return "window_end";
  case SettleCause::L2Change:
    return "l2_change";
  case SettleCause::QueueEdit:
    return "queue_edit";
  case SettleCause::Event:
    return "event";
  case SettleCause::ExitHandler:
    return "exit_handler";
  case SettleCause::Policy:
    return "policy";
  case SettleCause::RunEnd:
    return "run_end";
  }
  return "unknown";
}

Machine::Machine(MachineConfig ConfigIn, SimConfig SimIn,
                 std::unique_ptr<SchedulerPolicy> PolicyIn)
    : Config(std::move(ConfigIn)), Sim(SimIn), Policy(std::move(PolicyIn)),
      Counters(CounterSlots), Queues(Config.numCores()),
      Windows(Config.numCores()), BusyCycles(Config.numCores(), 0.0),
      Used(Config.numCores(), 0.0), Gen(SimIn.Seed) {
  // Validate the SimConfig up front: these inconsistencies would not
  // crash, they would silently simulate nonsense (a zero timeslice
  // never advances the clock; a timeslice past the balance period makes
  // balancing fire every quantum instead of periodically).
  if (!(Sim.Timeslice > 0))
    throw std::invalid_argument(
        "SimConfig::Timeslice must be positive (simulated seconds)");
  if (!(Sim.BalancePeriod > 0))
    throw std::invalid_argument(
        "SimConfig::BalancePeriod must be positive (simulated seconds)");
  if (Sim.Timeslice > Sim.BalancePeriod)
    throw std::invalid_argument(
        "SimConfig::Timeslice must not exceed BalancePeriod: balancing "
        "happens between quanta, every BalancePeriod seconds");
  assert(Config.numCores() >= 1 && Config.numCores() <= 64 &&
         "machine must have 1..64 cores");
  assert(Policy && "machine needs a scheduling policy");
  Reads = Policy->reads();
  uint32_t NumGroups = 0;
  for (const CoreDesc &Core : Config.Cores)
    NumGroups = std::max(NumGroups, Core.L2Group + 1);
  GroupActive.resize(NumGroups, 0);
}

uint32_t Machine::spawn(std::shared_ptr<const FlatImage> Flat,
                        const TunerConfig &TunerCfg, uint64_t Seed,
                        int32_t Slot, uint64_t InitialAffinity) {
  assert(Flat && "spawn needs a prepared image");
  if (Flat->numCoreTypes() != Config.numCoreTypes())
    throw std::invalid_argument("Machine::spawn: image's cost model has " +
                                std::to_string(Flat->numCoreTypes()) +
                                " core types, the machine has " +
                                std::to_string(Config.numCoreTypes()));
  uint32_t Pid = static_cast<uint32_t>(Procs.size());
  auto P = std::make_unique<Process>(Pid, std::move(Flat), TunerCfg,
                                     Config.numCoreTypes(), Seed,
                                     Config.allCoresMask());
  if (InitialAffinity != 0) {
    assert((InitialAffinity & Config.allCoresMask()) != 0 &&
           "initial affinity excludes every core");
    P->AffinityMask = InitialAffinity & Config.allCoresMask();
  }
  P->ArrivalTime = Now;
  P->Slot = Slot;
  Procs.push_back(std::move(P));
  Hot.push_back(HotProc{});
  SchedTelemetry T;
  T.InstsByType.resize(Config.numCoreTypes(), 0);
  T.CyclesByType.resize(Config.numCoreTypes(), 0.0);
  Telem.push_back(std::move(T));
  // The policy sees the process before its first placement and may
  // narrow the affinity mask (OS-level static assignment).
  if (Reads == PolicyReads::Anything)
    settleAll(SettleCause::Policy);
  Policy->onSpawn(*this, *Procs[Pid]);
  assert((Procs[Pid]->AffinityMask & Config.allCoresMask()) != 0 &&
         "policy onSpawn left no allowed core");
  uint32_t Core = placeProcess(Pid);
  if (Trace)
    Trace->spawn(Trace->cycles(Now), Pid, Core, Slot);
  return Pid;
}

uint32_t Machine::placeProcess(uint32_t Pid) {
  Process &P = *Procs[Pid];
  // Deferred windows keep queue lengths, so a policy that does not read
  // Anything places on unsettled state, and the process joins the
  // receiving core's window if it holds one.
  if (Reads == PolicyReads::Anything)
    settleAll(SettleCause::Policy);
  uint32_t Core = Policy->selectCore(*this, P);
  assert(P.allowedOn(Core) && "policy violated the affinity mask");
  enqueue(Core, Pid);
  ShapeDirty = true;
  return Core;
}

void Machine::setTraceSink(obs::TraceSink *Sink) {
  Trace = Sink;
  if (!Trace)
    return;
  // Timestamps are simulated cycles on the reference core type (type
  // 0), a pure function of quantized simulated time — never of cycle
  // accumulators, so trace bytes cannot depend on how costs are summed.
  Trace->setCyclesPerSecond(Config.CoreTypes[0].Frequency);
  for (uint32_t Core = 0; Core < Config.numCores(); ++Core)
    Trace->coreTrack(Core, Config.CoreTypes[coreType(Core)].Name +
                               std::to_string(Core));
  Trace->machineTrack(Config.numCores());
  TraceCoreInsts.assign(Config.numCores(), 0);
  TraceCoreCursor.assign(Config.numCores(), 0.0);
  TraceWindows.reserve(64);
}

bool Machine::moveQueued(uint32_t Pid, uint32_t FromCore, uint32_t ToCore) {
  if (FromCore == ToCore)
    return false;
  Process &P = *Procs[Pid];
  if (!P.allowedOn(ToCore))
    return false;
  settle(FromCore, SettleCause::QueueEdit);
  auto &From = Queues[FromCore];
  auto It = std::find(From.begin(), From.end(), Pid);
  if (It == From.end())
    return false;
  From.erase(It);
  enqueue(ToCore, Pid);
  ShapeDirty = true;
  if (Trace)
    // Policy reassignment with its IPC evidence (the last execution
    // window the policy could observe; 0 before the first window).
    Trace->reassign(Trace->cycles(Now), Pid, FromCore, ToCore,
                    Telem[Pid].WindowIpc);
  return true;
}

bool Machine::pullTail(uint32_t FromCore, uint32_t ToCore) {
  const std::vector<uint32_t> &From = Queues[FromCore];
  if (std::none_of(From.begin(), From.end(), [&](uint32_t Pid) {
        return Procs[Pid]->allowedOn(ToCore);
      }))
    return false;
  // Which process is the tail-most depends on the rotation.
  settle(FromCore, SettleCause::QueueEdit);
  for (auto It = From.rbegin(); It != From.rend(); ++It)
    if (Procs[*It]->allowedOn(ToCore))
      return moveQueued(*It, FromCore, ToCore);
  return false;
}

double Machine::coreBusyFraction(uint32_t Core) const {
  if (Now <= 0)
    return 0;
  return BusyCycles[Core] / (Now * coreFrequency(Core));
}

uint64_t Machine::totalInstructions() const {
  uint64_t Total = 0;
  for (const auto &P : Procs)
    Total += P->Stats.InstsRetired;
  return Total;
}

void Machine::scheduleAt(double Time, std::function<void(Machine &)> Fn) {
  Events.emplace(Time, std::move(Fn));
}

void Machine::run(double Until) {
  // Queues and masks may have been edited between calls.
  ShapeDirty = true;
  uint32_t NumCores = Config.numCores();
  while (Now < Until && !StopRequested) {
    // Deterministic mid-run injection: fire every event due by now, in
    // (time, insertion) order, before balancing — an arrival landing on
    // a balance instant is visible to the balancer, and batch arrivals
    // at time zero reproduce the classic spawn-before-run state bit for
    // bit. Callbacks see settled state and may edit anything.
    if (!Events.empty() && Events.begin()->first <= Now) {
      settleAll(SettleCause::Event);
      while (!Events.empty() && Events.begin()->first <= Now) {
        std::function<void(Machine &)> Fn = std::move(Events.begin()->second);
        Events.erase(Events.begin());
        if (Trace)
          Trace->inject(Trace->cycles(Now));
        Fn(*this);
      }
      ShapeDirty = true;
    }

    if (Now >= NextBalance) {
      // Trace order: the balance instant precedes the reassign events
      // the policy emits through moveQueued.
      if (Trace)
        Trace->balance(Trace->cycles(Now));
      if (balanceSkippable()) {
        ++BalanceSkipped;
      } else {
        // A policy that does not read Anything runs on deferred state:
        // what it reads is exact there or caught up on demand
        // (telemetry()), and the order it may read settles on demand
        // (queue(), pullTail, moveQueued).
        if (Reads == PolicyReads::Anything)
          settleAll(SettleCause::Policy);
        ShapeDirty = false;
        TelemetryRead = false;
        Policy->balance(*this);
      }
      NextBalance = Now + Sim.BalancePeriod;
    }

    // Effective cache sharing this quantum: active cores per L2 group.
    // GroupActive/Used are members so no timeslice allocates.
    std::fill(GroupActive.begin(), GroupActive.end(), 0u);
    for (uint32_t Core = 0; Core < NumCores; ++Core)
      if (!Queues[Core].empty())
        ++GroupActive[Config.Cores[Core].L2Group];

    // A window ends early when its turns' price changes (the L2
    // group's active count); a core without one opens a new window if
    // it can, and steps otherwise. A window at its planned end steps
    // its one turn that is not steady in this quantum's step loop. Idle
    // cores hold no window: they have nothing to charge.
    bool AllDeferred = fusing();
    uint32_t Idle = 0;
    if (AllDeferred) {
      for (uint32_t Core = 0; Core < NumCores; ++Core) {
        CoreWindow &W = Windows[Core];
        if (W.Open && W.Active != GroupActive[Config.Cores[Core].L2Group])
          settle(Core, SettleCause::L2Change);
        if (Queues[Core].empty())
          ++Idle;
        else if (W.Open ? Quantum >= W.End : !openWindow(Core))
          AllDeferred = false;
      }
    }

    if (AllDeferred) {
      // Nothing happens until a window reaches its planned end, an event
      // is due, a balance must run, or Until. The clock walks by repeated adds of
      // Timeslice (not a dyadic value), exactly as stepping would. A
      // quantum start where anything else happens goes back to the top,
      // which fires its events before its balance; skippable balance
      // instants in between replay NextBalance.
      uint64_t Stop = UINT64_MAX;
      for (const CoreWindow &W : Windows)
        if (W.Open)
          Stop = std::min(Stop, W.End);
      uint64_t First = Quantum;
      for (;;) {
        Now += Sim.Timeslice;
        ++Quantum;
        if (Quantum >= Stop || !(Now < Until) ||
            (!Events.empty() && Events.begin()->first <= Now) ||
            (Now >= NextBalance && !balanceSkippable()))
          break;
        if (Now >= NextBalance) {
          ++BalanceSkipped;
          NextBalance = Now + Sim.BalancePeriod;
        }
      }
      QuantaFused += Idle * (Quantum - First);
      continue;
    }

    // Work-conserving quantum: after the main pass, cores with leftover
    // budget re-check their queues so work migrated from later-visited
    // cores (or spawned mid-quantum) starts immediately instead of
    // idling until the next tick — as on a real machine, where an idle
    // core picks up a migrated task at once. Deferred cores sit it out:
    // their turn in this quantum is charged when they settle, or, at a
    // window's end, stepped in pass 0 at the core's visit position, as
    // stepping would. When that turn breaks the schedule the window is
    // settled and the core steps the rest of the quantum.
    std::fill(Used.begin(), Used.end(), 0.0);
    for (int Pass = 0; Pass < 4; ++Pass) {
      bool Progress = false;
      for (uint32_t Core = 0; Core < NumCores; ++Core) {
        const CoreWindow &W = Windows[Core];
        if (Pass == 0) {
          VisitPos = Core;
          if (!W.Open)
            ++QuantaStepped;
        }
        if (W.Open) {
          if (Pass != 0 || Quantum < W.End || stepInWindow(Core))
            continue;
          Progress = true;
        }
        double Budget = Sim.Timeslice * coreFrequency(Core);
        uint32_t Sharers =
            std::max(1u, GroupActive[Config.Cores[Core].L2Group]);

        while (Used[Core] < Budget && !Queues[Core].empty()) {
          Progress = true;
          Process &P = *Procs[Queues[Core].front()];
          AdvanceResult R =
              advanceProcess(P, Core, Budget - Used[Core], Sharers);
          Used[Core] += R.CyclesUsed;
          finishTurn(Core, P, R);
        }
      }
      VisitPos = NumCores;
      if (!Progress)
        break;
    }
    VisitPos = 0;

    if (Trace)
      flushTraceWindows();

    Now += Sim.Timeslice;
    ++Quantum;
  }
  settleAll(SettleCause::RunEnd);
  for (const std::vector<uint32_t> &Q : Queues)
    for (uint32_t Pid : Q)
      publishCpuSeconds(*Procs[Pid]);
}

void Machine::publishCpuSeconds(Process &P) const {
  // Each per-type sum is an exact grid sum, equal across engines and
  // however turns were grouped into charges, so this is too.
  const std::vector<double> &Cycles = Telem[P.Pid].CyclesByType;
  double Seconds = 0;
  for (uint32_t Ct = 0; Ct < Config.numCoreTypes(); ++Ct)
    Seconds += Cycles[Ct] / Config.CoreTypes[Ct].Frequency;
  P.Stats.CpuSeconds = Seconds;
}

void Machine::chargeTurn(uint32_t Core, Process &P, const AdvanceResult &R) {
  uint32_t Ct = coreType(Core);
  BusyCycles[Core] += R.CyclesUsed;
  P.Stats.CyclesConsumed += R.CyclesUsed;

  // Scheduler telemetry: the counters an OS policy may observe. Pure
  // bookkeeping — it never feeds back into the simulation unless a
  // policy acts on it.
  SchedTelemetry &T = Telem[P.Pid];
  T.InstsByType[Ct] += R.InstsDelta;
  T.CyclesByType[Ct] += R.CyclesUsed;
  if (R.CyclesUsed > 0) {
    T.WindowIpc = static_cast<double>(R.InstsDelta) / R.CyclesUsed;
    T.WindowCoreType = Ct;
  }

  if (Trace)
    TraceWindows.push_back(TraceWindow{Core, P.Pid, R.InstsDelta});
}

void Machine::finishTurn(uint32_t Core, Process &P, const AdvanceResult &R) {
  chargeTurn(Core, P, R);
  uint32_t Pid = P.Pid;
  if (R.Finished) {
    double Freq = coreFrequency(Core);
    P.CompletionTime = Now + std::min(Used[Core], Sim.Timeslice * Freq) / Freq;
    publishCpuSeconds(P);
    Queues[Core].erase(Queues[Core].begin());
    ShapeDirty = true;
    if (P.MonActive)
      finishMonitor(P);
    if (Trace)
      // Timestamped at the quantum start (CompletionTime is
      // cycle-derived; traces use quantized time only).
      Trace->exitProcess(Trace->cycles(Now), Pid, P.Stats.InstsRetired);
    if (Reads == PolicyReads::Anything)
      settleAll(SettleCause::Policy);
    Policy->onExit(*this, P);
    if (OnExit) {
      settleAll(SettleCause::ExitHandler);
      OnExit(*this, P);
    }
    return;
  }
  if (R.Migrated) {
    Queues[Core].erase(Queues[Core].begin());
    uint32_t To = placeProcess(Pid);
    if (Trace)
      Trace->migrate(Trace->cycles(Now), Pid, Core, To);
    return;
  }
  // Timeslice exhausted: round-robin rotate.
  std::vector<uint32_t> &Q = Queues[Core];
  std::rotate(Q.begin(), Q.begin() + 1, Q.end());
}

void Machine::flushTraceWindows() {
  if (TraceWindows.empty())
    return;
  // Slice widths are instruction-proportional shares of the quantum.
  // Everything here is a function of quantized Now, config constants,
  // and integer instruction counts — identical across engines, so the
  // emitted bytes are too. Cycle-exact widths would not be.
  double QuantumStart = Trace->cycles(Now);
  double QuantumCycles = Trace->cycles(Sim.Timeslice);
  std::fill(TraceCoreInsts.begin(), TraceCoreInsts.end(), 0);
  std::fill(TraceCoreCursor.begin(), TraceCoreCursor.end(), 0.0);
  for (const TraceWindow &W : TraceWindows)
    TraceCoreInsts[W.Core] += W.Insts;
  for (const TraceWindow &W : TraceWindows) {
    uint64_t Total = TraceCoreInsts[W.Core];
    double Dur = Total == 0 ? 0.0
                            : QuantumCycles * (static_cast<double>(W.Insts) /
                                               static_cast<double>(Total));
    Trace->window(QuantumStart + TraceCoreCursor[W.Core], Dur, W.Core,
                  W.Pid, W.Insts);
    TraceCoreCursor[W.Core] += Dur;
  }
  TraceWindows.clear();
}

Machine::AdvanceResult Machine::advanceProcess(Process &P, uint32_t Core,
                                               double BudgetCycles,
                                               uint32_t Sharers) {
  uint64_t InstsBefore = P.Stats.InstsRetired;
  AdvanceResult R =
      Sim.Engine == ExecEngine::Flat
          ? advanceProcessFlat(P, Core, BudgetCycles, Sharers)
          : advanceProcessReference(P, Core, BudgetCycles, Sharers);
  R.InstsDelta = P.Stats.InstsRetired - InstsBefore;
  return R;
}

namespace {

/// True when adding \p Add cycles to \p Used — and to the monitoring
/// accumulator, when a session is live — keeps both below
/// ExactCycleBound. Below it every sum of grid costs is exact, so one
/// fused charge is bit-equal to the block-at-a-time adds it replaces.
bool exactCharge(const Process &P, double Used, double Add) {
  return Used + Add < ExactCycleBound &&
         (!P.MonActive || P.MonCycles + Add < ExactCycleBound);
}

/// Back-edge iterations of an unmarked self-loop that the quantum runs
/// before its budget check fails or only the exit iteration is left:
/// min(\p BackEdges, smallest j >= 1 with Used + j*C >= Budget). Every
/// Used + j*C below ExactCycleBound is exact, so the comparisons
/// reproduce the stepwise loop's budget checks exactly.
uint64_t selfLoopRun(double Used, double Budget, double C,
                     uint64_t BackEdges) {
  if (C <= 0 || (Budget - Used) / C >= static_cast<double>(BackEdges))
    return BackEdges;
  uint64_t J = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil((Budget - Used) / C)));
  while (J > 1 && Used + static_cast<double>(J - 1) * C >= Budget)
    --J;
  while (Used + static_cast<double>(J) * C < Budget)
    ++J;
  return std::min(J, BackEdges);
}

/// Turns each queue position runs in a window's first S quanta over a
/// queue of Len (position Pos runs at quanta k = Pos mod Len): S / Len,
/// plus one below S mod Len. One division per window, not per position.
class TurnsInWindow {
public:
  TurnsInWindow(uint64_t S, uint64_t Len) : Whole(S / Len), Rest(S % Len) {}
  int64_t operator()(uint64_t Pos) const {
    return static_cast<int64_t>(Whole + (Pos < Rest));
  }

private:
  uint64_t Whole;
  uint64_t Rest;
};

} // namespace

uint32_t Machine::steadyTurns(const Process &P, uint32_t Core,
                              uint32_t Sharers) {
  HotProc &H = Hot[P.Pid];
  uint32_t CfgOff = configOffsetCached(P, Core, Sharers);
  uint32_t Cur = P.CurGlobal;
  uint32_t Rem = P.LoopRemaining[Cur];
  if (Cur == H.SteadyCur && CfgOff == H.SteadyCfg && Rem == H.SteadyRem)
    return H.SteadyTurns;
  H.SteadyCur = Cur;
  H.SteadyCfg = CfgOff;
  H.SteadyRem = Rem;
  H.SteadyTurns = 0;

  // The shape advanceProcessFlat charges as one O(1) self-loop run.
  const FlatBlock &B = P.Flat->blocks()[Cur];
  if (B.Op != FlatOp::Loop || B.Succ[0] != Cur ||
      P.Flat->blockMarks(Cur).EdgeMark[0] >= 0)
    return 0;
  double C = P.Flat->cycleTable()[B.CycleRow + CfgOff];
  uint32_t Left = Rem == 0 ? B.TripCount : Rem;
  if (!(C > 0) || Left < 2)
    return 0;
  // A turn starts at Used = 0 and runs the engine's J back edges. It is
  // steady when they reach the budget: J is then the smallest count
  // that does, every later turn runs J too, and each leaves Left - J.
  double Budget = Sim.Timeslice * coreFrequency(Core);
  uint64_t J = selfLoopRun(0, Budget, C, Left - 1);
  double Charge = static_cast<double>(J) * C;
  if (!(Charge >= Budget) || !(Charge < ExactCycleBound))
    return 0;
  H.SteadyIters = static_cast<uint32_t>(J);
  H.SteadyInsts = J * B.Insts;
  H.SteadyCharge = Charge;
  H.SteadyTurns = static_cast<uint32_t>((Left - 1) / J);
  return H.SteadyTurns;
}

bool Machine::openWindow(uint32_t Core) {
  // S: steady quanta ahead, counting this one. The process at position
  // i of a queue of length len runs at quanta i, i + len, ...; it has
  // T_i steady turns left, so the queue stays steady for i + len*T_i
  // quanta.
  const std::vector<uint32_t> &Q = Queues[Core];
  uint64_t Len = Q.size();
  uint32_t Active = GroupActive[Config.Cores[Core].L2Group];
  // Every position's steady turns are cached for the window's
  // re-planning (only the first two can make S < 2).
  uint64_t S = UINT64_MAX;
  for (uint64_t Pos = 0; Pos < Len; ++Pos) {
    S = std::min(S, Pos + Len * steadyTurns(*Procs[Q[Pos]], Core, Active));
    if (S < 2)
      return false;
  }
  for (uint32_t Pid : Q)
    Hot[Pid].WindowTurns = 0;
  // Any shorter window is steady too: halve until the charges are exact.
  double Busy = windowBusy(Core, S);
  while (!(Busy < ExactCycleBound)) {
    S /= 2;
    if (S < 2)
      return false;
    Busy = windowBusy(Core, S);
  }
  CoreWindow &W = Windows[Core];
  W.Open = true;
  W.Start = Quantum;
  W.End = Quantum + S;
  W.Active = Active;
  W.Busy = Busy;
  W.CaughtUp = UINT64_MAX;
  ++WindowsOpened;
  return true;
}

double Machine::windowBusy(uint32_t Core, uint64_t Quanta) const {
  // Grid sums are exact below ExactCycleBound, so k turns charged as
  // one product equal k adds only while each accumulator stays below
  // it. Checked from the current values for every turn not charged
  // yet, so every prefix a settle or catch-up charges is exact too.
  // Owed turns make any position pending, whatever Quanta is.
  const std::vector<uint32_t> &Q = Queues[Core];
  uint64_t Len = Q.size();
  uint32_t Ct = coreType(Core);
  double Busy = BusyCycles[Core];
  TurnsInWindow Turns(Quanta, Len);
  for (uint64_t Pos = 0; Pos < Len; ++Pos) {
    const Process &P = *Procs[Q[Pos]];
    const HotProc &H = Hot[P.Pid];
    int64_t Pending = Turns(Pos) - H.WindowTurns;
    if (Pending == 0)
      continue;
    double Charge = static_cast<double>(Pending) * H.SteadyCharge;
    Busy += Charge;
    if (!(Busy < ExactCycleBound) ||
        !(P.Stats.CyclesConsumed + Charge < ExactCycleBound) ||
        !(Telem[P.Pid].CyclesByType[Ct] + Charge < ExactCycleBound) ||
        (P.MonActive && !(P.MonCycles + Charge < ExactCycleBound)))
      return ExactCycleBound;
  }
  return Busy;
}

void Machine::chargeSteady(uint32_t Core, Process &P, int64_t Turns) {
  assert(Turns >= 0 && "a window never charges a turn twice");
  if (Turns == 0)
    return;
  HotProc &H = Hot[P.Pid];
  H.WindowTurns += Turns;
  uint64_t Insts = static_cast<uint64_t>(Turns) * H.SteadyInsts;
  double Charge = static_cast<double>(Turns) * H.SteadyCharge;
  P.Stats.InstsRetired += Insts;
  P.Stats.BlocksExecuted += static_cast<uint64_t>(Turns) * H.SteadyIters;
  P.Stats.CyclesConsumed += Charge;
  BusyCycles[Core] += Charge;
  if (P.MonActive) {
    P.MonInsts += Insts;
    P.MonCycles += Charge;
  }
  uint32_t Ct = coreType(Core);
  SchedTelemetry &T = Telem[P.Pid];
  T.InstsByType[Ct] += Insts;
  T.CyclesByType[Ct] += Charge;
  T.WindowIpc = static_cast<double>(H.SteadyInsts) / H.SteadyCharge;
  T.WindowCoreType = Ct;
  // Advance the trip count and re-key the steady cache to match.
  uint32_t &Rem = P.LoopRemaining[P.CurGlobal];
  uint32_t Left = Rem == 0 ? P.Flat->blocks()[P.CurGlobal].TripCount : Rem;
  Rem = Left - static_cast<uint32_t>(Turns * H.SteadyIters);
  H.SteadyRem = Rem;
  H.SteadyTurns -= static_cast<uint32_t>(Turns);
}

bool Machine::stepInWindow(uint32_t Core) {
  CoreWindow &W = Windows[Core];
  assert(Quantum == W.End && "a window steps at its planned end");
  const std::vector<uint32_t> &Q = Queues[Core];
  uint64_t Len = Q.size();
  uint64_t Elapsed = Quantum - W.Start;
  uint64_t Front = Elapsed % Len;
  Process &P = *Procs[Q[Front]];
  HotProc &H = Hot[P.Pid];
  // The process's steady turns before this one first, owed ones
  // included, so its adds keep their stepping order.
  chargeSteady(Core, P, static_cast<int64_t>(Elapsed / Len) - H.WindowTurns);
  AdvanceResult R = advanceProcess(P, Core, Sim.Timeslice * coreFrequency(Core),
                                   W.Active);
  // Every turn the window planned lies before this quantum, so W.Busy
  // is the busy-cycle sum with the other processes' turns still
  // pending. Busy cycles are the one accumulator this turn shares with
  // them: adding its charge before theirs is exact while the whole sum
  // stays below the bound.
  if (R.Finished || R.Migrated || !(W.Busy + R.CyclesUsed < ExactCycleBound)) {
    // Settled through the previous quantum, P is at the front again.
    settle(Core, SettleCause::WindowEnd);
    ++QuantaStepped;
    Used[Core] += R.CyclesUsed;
    finishTurn(Core, P, R);
    return false;
  }
  // A full turn: P goes to the back of the rotation, as the window
  // already assumes.
  chargeTurn(Core, P, R);
  W.Busy += R.CyclesUsed;
  ++H.WindowTurns;
  ++WindowSteps;
  // Re-plan. Only P's T changed; the others' are cached from the
  // window's opening or their joining it. Through this quantum every
  // charge is exact.
  steadyTurns(P, Core, W.Active);
  planEnd(Core, Quantum + 1);
  return true;
}

void Machine::planEnd(uint32_t Core, uint64_t Floor) {
  CoreWindow &W = Windows[Core];
  const std::vector<uint32_t> &Q = Queues[Core];
  uint64_t Len = Q.size();
  // The process at position i breaks the schedule at its turn
  // WindowTurns + T_i, in quantum Start + i + len * that; owed turns
  // were steady, so that turn never lies before Start.
  uint64_t End = UINT64_MAX;
  for (uint64_t Pos = 0; Pos < Len; ++Pos) {
    const HotProc &O = Hot[Q[Pos]];
    int64_t Turn = O.WindowTurns + O.SteadyTurns;
    assert(Turn >= 0 && "owed turns are steady");
    End = std::min(End, W.Start + Pos + Len * static_cast<uint64_t>(Turn));
  }
  // Halve what lies past Floor until it is exact too.
  while (End > Floor) {
    double Busy = windowBusy(Core, End - W.Start);
    if (Busy < ExactCycleBound) {
      W.Busy = Busy;
      break;
    }
    End = Floor + (End - Floor) / 2;
  }
  if (End == W.Start) {
    // Nothing but owed turns: a prefix of what an earlier plan checked.
    W.Busy = windowBusy(Core, 0);
    assert(W.Busy < ExactCycleBound && "owed turns were planned exact");
  }
  W.End = End;
}

void Machine::settle(uint32_t Core, SettleCause Cause) {
  CoreWindow &W = Windows[Core];
  if (!W.Open)
    return;
  W.Open = false;
  ++SettlesByCause[static_cast<size_t>(Cause)];
  // Cores are visited in index order, so inside a stepped quantum the
  // turn of a core below VisitPos has already run, and the settled core
  // must then sit out the quantum's work-conserving re-passes.
  bool Ran = Core < VisitPos;
  uint64_t Quanta = Quantum + (Ran ? 1 : 0) - W.Start;
  QuantaFused += Quanta;
  std::vector<uint32_t> &Q = Queues[Core];
  assert(!Q.empty() && "windows open on busy cores only");
  if (Ran)
    Used[Core] = Sim.Timeslice * coreFrequency(Core);
  chargeWindow(Core, Quanta);
  std::rotate(Q.begin(),
              Q.begin() + static_cast<ptrdiff_t>(Quanta % Q.size()), Q.end());
}

void Machine::chargeWindow(uint32_t Core, uint64_t Quanta) {
  // Every position: owed turns are pending even where Quanta gives the
  // position none.
  const std::vector<uint32_t> &Q = Queues[Core];
  uint64_t Len = Q.size();
  TurnsInWindow Turns(Quanta, Len);
  for (uint64_t Pos = 0; Pos < Len; ++Pos) {
    Process &P = *Procs[Q[Pos]];
    chargeSteady(Core, P, Turns(Pos) - Hot[P.Pid].WindowTurns);
  }
}

void Machine::catchUp(uint32_t Core) {
  CoreWindow &W = Windows[Core];
  // The visit-order rule of settle: the core's turn in this quantum has
  // run when the core is below VisitPos.
  uint64_t Through = Quantum + (Core < VisitPos ? 1 : 0);
  if (W.CaughtUp == Through)
    return;
  W.CaughtUp = Through;
  ++WindowCatchUps;
  chargeWindow(Core, Through - W.Start);
}

void Machine::enqueue(uint32_t Core, uint32_t Pid) {
  CoreWindow &W = Windows[Core];
  std::vector<uint32_t> &Q = Queues[Core];
  if (!W.Open) {
    Q.push_back(Pid);
    return;
  }
  uint64_t Len = Q.size();
  // Re-base at the first quantum the newcomer can run in: after this
  // one when the core's turn in it has run. The turns of the quanta
  // before it stay uncharged, owed, and the queue rotates past them as
  // settle would rotate it.
  uint64_t Elapsed = Quantum + (Core < VisitPos ? 1 : 0) - W.Start;
  TurnsInWindow Turns(Elapsed, Len);
  for (uint64_t Pos = 0; Pos < Len; ++Pos)
    Hot[Q[Pos]].WindowTurns -= Turns(Pos);
  std::rotate(Q.begin(), Q.begin() + static_cast<ptrdiff_t>(Elapsed % Len),
              Q.end());
  QuantaFused += Elapsed;
  W.Start += Elapsed;
  Q.push_back(Pid);
  Hot[Pid].WindowTurns = 0;
  steadyTurns(*Procs[Pid], Core, W.Active);
  ++WindowAbsorbs;
  // The owed turns are a prefix of the turns the window was planned
  // with, so charging them is exact.
  planEnd(Core, W.Start);
}

void Machine::settleAll(SettleCause Cause) {
  for (uint32_t Core = 0; Core < Config.numCores(); ++Core)
    settle(Core, Cause);
}

/// The flat-image interpreter. Same block sequence, same RNG draws, and
/// the same cycle totals as advanceProcessReference, so both engines
/// produce bit-identical ProcessStats. The difference is mechanical:
/// each step is one indexed load from the layout plus one from the mark
/// table instead of pointer chases through Program, CostModel and
/// InstrumentedProgram, and a run of unmarked self-loop iterations is
/// charged in O(1) (k * cost).
/// Costs are on the exact cycle grid (CostModel.h), so that product
/// equals the adds it replaces.
Machine::AdvanceResult Machine::advanceProcessFlat(Process &P, uint32_t Core,
                                                   double BudgetCycles,
                                                   uint32_t Sharers) {
  AdvanceResult R;
  const FlatImage &FI = *P.Flat;
  const FlatBlock *Blk = FI.blocks();
  const BlockMarks *Rows = FI.markTable();
  const double *Cyc = FI.cycleTable();
  const PhaseMark *Marks = FI.marks();
  // Per-quantum invariant, cached across quanta in the hot lane and
  // recomputed only on migration or a sharer-count change. Pure
  // function of (core type, sharers), so caching cannot change results.
  uint32_t CfgOff = configOffsetCached(P, Core, Sharers);
  uint32_t Cur = P.CurGlobal;
  // The cycle sum lives in a register, written to R once per exit:
  // through R, or with its address taken, it would be stored and
  // reloaded on every block. Marks add their overhead through a copy.
  double Used = 0;

  while (!P.Finished && Used < BudgetCycles) {
    const FlatBlock *B = &Blk[Cur];
    double Cycles = Cyc[B->CycleRow + CfgOff];
    uint32_t Insts = B->Insts;

    if (B->Op == FlatOp::Loop && B->Succ[0] == Cur &&
        Rows[Cur].EdgeMark[0] < 0) {
      // O(1) self-loop: run every back-edge iteration this quantum
      // reaches at once. Latch executions left in this activation,
      // counting the exit one (a fresh activation starts at TripCount).
      uint32_t &Rem = P.LoopRemaining[Cur];
      uint32_t Left = Rem == 0 ? B->TripCount : Rem;
      if (Left > 1) {
        uint64_t K = selfLoopRun(Used, BudgetCycles, Cycles, Left - 1);
        double Charge = static_cast<double>(K) * Cycles;
        if (exactCharge(P, Used, Charge)) {
          Used += Charge;
          P.Stats.InstsRetired += K * Insts;
          P.Stats.BlocksExecuted += K;
          if (P.MonActive) {
            P.MonInsts += K * Insts;
            P.MonCycles += Charge;
          }
          Rem = Left - static_cast<uint32_t>(K);
          continue; // The exit iteration takes the path below.
        }
      }
    }

    Used += Cycles;
    P.Stats.InstsRetired += Insts;
    ++P.Stats.BlocksExecuted;
    if (P.MonActive) {
      P.MonInsts += Insts;
      P.MonCycles += Cycles;
    }

    const PhaseMark *TakenMark = nullptr;
    switch (B->Op) {
    case FlatOp::Jump: {
      int32_t Mark = Rows[Cur].EdgeMark[0];
      if (Mark >= 0)
        TakenMark = Marks + Mark;
      Cur = B->Succ[0];
      break;
    }
    case FlatOp::Call: {
      // The call site's own mark fires now; the continuation edge's
      // waits for the matching return.
      const BlockMarks &Row = Rows[Cur];
      P.CallStack.push_back(CallFrame{0, 0, Row.EdgeMark[0], B->Succ[0]});
      if (Row.CallMark >= 0)
        TakenMark = Marks + Row.CallMark;
      Cur = B->Callee;
      break;
    }
    case FlatOp::Loop: {
      uint32_t &Rem = P.LoopRemaining[Cur];
      if (Rem == 0)
        Rem = B->TripCount; // First latch execution of this activation.
      uint32_t Index;
      if (Rem > 1) {
        --Rem;
        Index = 0;
      } else {
        Rem = 0;
        Index = 1;
      }
      int32_t Mark = Rows[Cur].EdgeMark[Index];
      if (Mark >= 0)
        TakenMark = Marks + Mark;
      Cur = B->Succ[Index];
      break;
    }
    case FlatOp::Cond: {
      uint32_t Index = P.Gen.nextBool(B->TakenProb) ? 0 : 1;
      int32_t Mark = Rows[Cur].EdgeMark[Index];
      if (Mark >= 0)
        TakenMark = Marks + Mark;
      Cur = B->Succ[Index];
      break;
    }
    case FlatOp::Ret: {
      if (P.CallStack.empty()) {
        P.Finished = true;
        R.Finished = true;
        R.CyclesUsed = Used;
        P.CurGlobal = Cur;
        return R;
      }
      CallFrame Frame = P.CallStack.back();
      P.CallStack.pop_back();
      Cur = Frame.ContGlobal;
      if (Frame.ContMarkIndex >= 0)
        TakenMark = Marks + Frame.ContMarkIndex;
      break;
    }
    }

    if (TakenMark) {
      double Cycles = Used;
      bool Migrate = fireMark(P, *TakenMark, Core, Cycles);
      Used = Cycles;
      if (Migrate) {
        R.Migrated = true;
        R.CyclesUsed = Used;
        P.CurGlobal = Cur;
        return R;
      }
    }
  }
  R.CyclesUsed = Used;
  P.CurGlobal = Cur;
  return R;
}

Machine::AdvanceResult
Machine::advanceProcessReference(Process &P, uint32_t Core,
                                 double BudgetCycles, uint32_t Sharers) {
  AdvanceResult R;
  const InstrumentedProgram &IP = P.Flat->program();
  const Program &Prog = IP.program();
  const CostModel &Cost = P.Flat->cost();

  while (!P.Finished && R.CyclesUsed < BudgetCycles) {
    const BasicBlock &BB = Prog.Procs[P.CurProc].Blocks[P.CurBlock];
    uint32_t Ct = coreType(Core);

    double Cycles = Cost.blockCycles(P.CurProc, P.CurBlock, Ct, Sharers);
    uint32_t Insts = Cost.blockInsts(P.CurProc, P.CurBlock);
    R.CyclesUsed += Cycles;
    P.Stats.InstsRetired += Insts;
    ++P.Stats.BlocksExecuted;
    if (P.MonActive) {
      P.MonInsts += Insts;
      P.MonCycles += Cycles;
    }

    // Resolve the terminator and collect the mark (if any) on the taken
    // edge. Call sites fire their own mark immediately; the continuation
    // edge's mark is deferred until the matching return.
    const PhaseMark *TakenMark = nullptr;
    switch (BB.Term) {
    case TermKind::Jump: {
      int32_t Callee = BB.calleeOrNone();
      if (Callee >= 0) {
        const PhaseMark *ContMark = IP.edgeMark(P.CurProc, P.CurBlock, 0);
        int32_t ContIndex =
            ContMark
                ? static_cast<int32_t>(ContMark - IP.marks().data())
                : -1;
        P.CallStack.push_back({P.CurProc, BB.Succs[0], ContIndex,
                               P.Flat->globalId(P.CurProc, BB.Succs[0])});
        const PhaseMark *CallMark = IP.callMark(P.CurProc, P.CurBlock);
        P.CurProc = static_cast<uint32_t>(Callee);
        P.CurBlock = 0;
        if (CallMark && fireMark(P, *CallMark, Core, R.CyclesUsed)) {
          R.Migrated = true;
          return R;
        }
        continue;
      }
      TakenMark = IP.edgeMark(P.CurProc, P.CurBlock, 0);
      P.CurBlock = BB.Succs[0];
      break;
    }
    case TermKind::Loop: {
      uint32_t &Rem =
          P.LoopRemaining[P.Flat->globalId(P.CurProc, P.CurBlock)];
      if (Rem == 0)
        Rem = BB.TripCount; // First latch execution of this activation.
      if (Rem > 1) {
        --Rem;
        TakenMark = IP.edgeMark(P.CurProc, P.CurBlock, 0);
        P.CurBlock = BB.Succs[0];
      } else {
        Rem = 0;
        TakenMark = IP.edgeMark(P.CurProc, P.CurBlock, 1);
        P.CurBlock = BB.Succs[1];
      }
      break;
    }
    case TermKind::Cond: {
      // verify() admits single-successor Cond blocks; fold both edges
      // onto the only successor, exactly like the flat image does.
      uint32_t Index = P.Gen.nextBool(BB.TakenProb) ? 0 : 1;
      if (BB.Succs.size() < 2)
        Index = 0;
      TakenMark = IP.edgeMark(P.CurProc, P.CurBlock, Index);
      P.CurBlock = BB.Succs[Index];
      break;
    }
    case TermKind::Ret: {
      if (P.CallStack.empty()) {
        P.Finished = true;
        R.Finished = true;
        return R;
      }
      CallFrame Frame = P.CallStack.back();
      P.CallStack.pop_back();
      P.CurProc = Frame.Proc;
      P.CurBlock = Frame.ContBlock;
      if (Frame.ContMarkIndex >= 0)
        TakenMark = &IP.marks()[static_cast<size_t>(Frame.ContMarkIndex)];
      break;
    }
    }

    if (TakenMark && fireMark(P, *TakenMark, Core, R.CyclesUsed)) {
      R.Migrated = true;
      return R;
    }
  }
  return R;
}

bool Machine::fireMark(Process &P, const PhaseMark &Mark, uint32_t Core,
                       double &Cycles) {
  const MarkCostModel &MC = P.Flat->program().cost();
  ++P.Stats.MarksFired;
  uint64_t MaskBefore = P.AffinityMask;
  uint32_t Ct = coreType(Core);
  double Overhead = static_cast<double>(MC.MarkInsts) * 0.5;

  // Every transition closes an in-flight monitoring session: a section
  // ends where the next phase mark begins.
  if (P.MonActive)
    finishMonitor(P);

  PhaseTuner::Decision D = P.Tuner.onMark(Mark.PhaseType, Ct);

  bool NeedMigrate = false;
  if (D.SwitchAllCores) {
    Overhead += Sim.AffinityApiCycles;
    P.AffinityMask = Config.allCoresMask();
  } else if (D.TargetCoreType >= 0) {
    uint64_t Want =
        Config.coreMaskOfType(static_cast<uint32_t>(D.TargetCoreType));
    if (static_cast<uint32_t>(D.TargetCoreType) != Ct) {
      // Cross-type switch: affinity call plus migration penalty.
      P.AffinityMask = Want;
      Overhead += Sim.AffinityApiCycles + MC.SwitchCycles;
      ++P.Stats.CoreSwitches;
      NeedMigrate = true;
    } else if (P.AffinityMask != Want) {
      P.AffinityMask = Want;
      Overhead += Sim.AffinityApiCycles;
    }
  }

  if (D.StartMonitor && !NeedMigrate) {
    if (Counters.acquire()) {
      P.MonActive = true;
      P.MonPhaseType = Mark.PhaseType;
      P.MonCoreType = Ct;
      P.MonInsts = 0;
      P.MonCycles = 0;
      ++P.Stats.MonitorSessions;
      Overhead += MC.MonitorSetupCycles;
      // Pin to the sampled core type so the sample is attributable.
      uint64_t Want = Config.coreMaskOfType(Ct);
      if (P.AffinityMask != Want) {
        P.AffinityMask = Want;
        Overhead += Sim.AffinityApiCycles;
      }
    } else {
      // PAPI-style wait: retry at the next phase mark.
      ++P.Stats.CounterWaits;
      Overhead += Sim.CounterWaitCycles;
    }
  }

  Cycles += Overhead;
  P.Stats.OverheadCycles += Overhead;
  if (P.AffinityMask != MaskBefore)
    ShapeDirty = true;
  return NeedMigrate;
}

void Machine::finishMonitor(Process &P) {
  assert(P.MonActive && "no monitoring session in flight");
  P.MonActive = false;
  Counters.release();
  if (P.MonInsts > 0 && P.MonCycles > 0)
    P.Tuner.recordSample(P.MonPhaseType, P.MonCoreType, P.MonInsts,
                         static_cast<uint64_t>(P.MonCycles));
}
