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

using namespace pbt;

const char *pbt::engineName(ExecEngine Engine) {
  switch (Engine) {
  case ExecEngine::Flat:
    return "flat";
  case ExecEngine::Reference:
    return "reference";
  }
  return "unknown";
}

Machine::Machine(MachineConfig ConfigIn, SimConfig SimIn,
                 std::unique_ptr<SchedulerPolicy> PolicyIn)
    : Config(std::move(ConfigIn)), Sim(SimIn), Policy(std::move(PolicyIn)),
      Counters(SimIn.CounterSlots), Queues(Config.numCores()),
      BusyCycles(Config.numCores(), 0.0), Used(Config.numCores(), 0.0),
      Gen(SimIn.Seed) {
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
  uint32_t NumGroups = 0;
  for (const CoreDesc &Core : Config.Cores)
    NumGroups = std::max(NumGroups, Core.L2Group + 1);
  GroupActive.resize(NumGroups, 0);
}

uint32_t Machine::spawn(std::shared_ptr<const InstrumentedProgram> IProg,
                        std::shared_ptr<const CostModel> Cost,
                        const TunerConfig &TunerCfg, uint64_t Seed,
                        int32_t Slot, uint64_t InitialAffinity,
                        std::shared_ptr<const FlatImage> Flat) {
  if (!Flat) {
    auto Key = std::make_pair(static_cast<const void *>(IProg.get()),
                              static_cast<const void *>(Cost.get()));
    auto &Cached = FlatCache[Key];
    if (!Cached)
      Cached = std::make_shared<const FlatImage>(IProg, Cost);
    Flat = Cached;
  }
  uint32_t Pid = static_cast<uint32_t>(Procs.size());
  auto P = std::make_unique<Process>(Pid, std::move(IProg), std::move(Cost),
                                     TunerCfg, Config.numCoreTypes(), Seed,
                                     Config.allCoresMask());
  P->Flat = std::move(Flat);
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
  uint32_t Core = Policy->selectCore(*this, P);
  assert(P.allowedOn(Core) && "policy violated the affinity mask");
  Queues[Core].push_back(Pid);
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
  auto &From = Queues[FromCore];
  auto It = std::find(From.begin(), From.end(), Pid);
  if (It == From.end())
    return false;
  From.erase(It);
  Queues[ToCore].push_back(Pid);
  if (Trace)
    // Policy reassignment with its IPC evidence (the last execution
    // window the policy could observe; 0 before the first window).
    Trace->reassign(Trace->cycles(Now), Pid, FromCore, ToCore,
                    Telem[Pid].WindowIpc);
  return true;
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
  while (Now < Until && !StopRequested) {
    // Deterministic mid-run injection: fire every event due by now, in
    // (time, insertion) order, before balancing — an arrival landing on
    // a balance instant is visible to the balancer, and batch arrivals
    // at time zero reproduce the classic spawn-before-run state bit for
    // bit.
    while (!Events.empty() && Events.begin()->first <= Now) {
      std::function<void(Machine &)> Fn = std::move(Events.begin()->second);
      Events.erase(Events.begin());
      if (Trace)
        Trace->inject(Trace->cycles(Now));
      Fn(*this);
    }

    if (Now >= NextBalance) {
      // Trace order: the balance instant precedes the reassign events
      // the policy emits through moveQueued.
      if (Trace)
        Trace->balance(Trace->cycles(Now));
      Policy->balance(*this);
      NextBalance = Now + Sim.BalancePeriod;
    }

    // Effective cache sharing this quantum: active cores per L2 group.
    // GroupActive/Used are members so no timeslice allocates.
    uint32_t NumCores = Config.numCores();
    std::fill(GroupActive.begin(), GroupActive.end(), 0u);
    for (uint32_t Core = 0; Core < NumCores; ++Core)
      if (!Queues[Core].empty())
        ++GroupActive[Config.Cores[Core].L2Group];

    if (fuseSteadyQuanta(Until))
      continue;
    ++QuantaStepped;

    // Work-conserving quantum: after the main pass, cores with leftover
    // budget re-check their queues so work migrated from later-visited
    // cores (or spawned mid-quantum) starts immediately instead of
    // idling until the next tick — as on a real machine, where an idle
    // core picks up a migrated task at once.
    std::fill(Used.begin(), Used.end(), 0.0);
    for (int Pass = 0; Pass < 4; ++Pass) {
      bool Progress = false;
      for (uint32_t Core = 0; Core < NumCores; ++Core) {
        double Freq = coreFrequency(Core);
        double Budget = Sim.Timeslice * Freq;
        uint32_t Ct = coreType(Core);
        uint32_t Sharers =
            std::max(1u, GroupActive[Config.Cores[Core].L2Group]);

        while (Used[Core] < Budget && !Queues[Core].empty()) {
          Progress = true;
          uint32_t Pid = Queues[Core].front();
          Process &P = *Procs[Pid];
          AdvanceResult R =
              advanceProcess(P, Core, Budget - Used[Core], Sharers);
          Used[Core] += R.CyclesUsed;
          BusyCycles[Core] += R.CyclesUsed;
          P.Stats.CyclesConsumed += R.CyclesUsed;
          P.Stats.CpuSeconds += R.CyclesUsed / Freq;

          // Scheduler telemetry: the counters an OS policy may observe.
          // Pure bookkeeping — it never feeds back into the simulation
          // unless a policy acts on it.
          SchedTelemetry &T = Telem[Pid];
          uint64_t WindowInsts = R.InstsDelta;
          T.InstsByType[Ct] += WindowInsts;
          T.CyclesByType[Ct] += R.CyclesUsed;
          if (R.CyclesUsed > 0) {
            T.WindowIpc = static_cast<double>(WindowInsts) / R.CyclesUsed;
            T.WindowCoreType = Ct;
          }

          if (Trace)
            TraceWindows.push_back(TraceWindow{Core, Pid, WindowInsts});

          if (R.Finished) {
            P.CompletionTime = Now + std::min(Used[Core], Budget) / Freq;
            Queues[Core].pop_front();
            if (P.MonActive)
              finishMonitor(P);
            if (Trace)
              // Timestamped at the quantum start (CompletionTime is
              // cycle-derived; traces use quantized time only).
              Trace->exitProcess(Trace->cycles(Now), Pid,
                                 P.Stats.InstsRetired);
            Policy->onExit(*this, P);
            if (OnExit)
              OnExit(*this, P);
            continue;
          }
          if (R.Migrated) {
            Queues[Core].pop_front();
            uint32_t To = placeProcess(Pid);
            if (Trace)
              Trace->migrate(Trace->cycles(Now), Pid, Core, To);
            continue;
          }
          // Timeslice exhausted: round-robin rotate.
          Queues[Core].pop_front();
          Queues[Core].push_back(Pid);
        }
      }
      if (!Progress)
        break;
    }

    if (Trace)
      flushTraceWindows();

    Now += Sim.Timeslice;
  }
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

/// Turns the process at queue position \p Pos of a queue of \p Len
/// runs in a window of \p S quanta (one per quantum k = Pos mod Len).
uint64_t turnsInWindow(uint64_t S, uint64_t Pos, uint64_t Len) {
  return S > Pos ? (S - Pos + Len - 1) / Len : 0;
}

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
  if (B.Op != FlatOp::Loop || B.Succ[0] != Cur || B.EdgeMark[0] >= 0)
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

bool Machine::fuseSteadyQuanta(double Until) {
  // The Reference interpreter is the oracle and traced runs emit
  // per-quantum events: both always step.
  if (Sim.Engine != ExecEngine::Flat || Trace)
    return false;
  uint32_t NumCores = Config.numCores();

  // S: steady quanta ahead, counting this one. The process at position
  // i of a queue of length len runs at quanta i, i + len, ...; it has
  // T_i steady turns left, so the queue stays steady for i + len*T_i
  // quanta. Empty cores never limit S.
  uint64_t S = UINT64_MAX;
  for (uint32_t Core = 0; Core < NumCores && S >= 2; ++Core) {
    const std::deque<uint32_t> &Q = Queues[Core];
    uint64_t Len = Q.size();
    uint32_t Sharers = std::max(1u, GroupActive[Config.Cores[Core].L2Group]);
    for (uint64_t Pos = 0; Pos < Len && Pos < S; ++Pos)
      S = std::min(S, Pos + Len * steadyTurns(*Procs[Q[Pos]], Core, Sharers));
  }
  if (S < 2)
    return false;

  // No quantum start inside the window may fire an event, balance, or
  // reach Until. The clock walks by repeated adds of Timeslice (not a
  // dyadic value), exactly as stepping would, so Now stays bit-equal.
  double Limit = std::min(Until, NextBalance);
  if (!Events.empty())
    Limit = std::min(Limit, Events.begin()->first);
  double End = Now + Sim.Timeslice;
  uint64_t Window = 1;
  while (Window < S && End < Limit) {
    End += Sim.Timeslice;
    ++Window;
  }
  if (Window < 2)
    return false;

  // Grid sums are exact below ExactCycleBound, so k turns charged as
  // one product equal k adds only while each accumulator stays below
  // it. Checked from the current values; any miss steps the quantum.
  for (uint32_t Core = 0; Core < NumCores; ++Core) {
    const std::deque<uint32_t> &Q = Queues[Core];
    uint64_t Len = Q.size();
    uint32_t Ct = coreType(Core);
    double Busy = BusyCycles[Core];
    for (uint64_t Pos = 0; Pos < Len && Pos < Window; ++Pos) {
      const Process &P = *Procs[Q[Pos]];
      double Charge = static_cast<double>(turnsInWindow(Window, Pos, Len)) *
                      Hot[P.Pid].SteadyCharge;
      Busy += Charge;
      if (!(Busy < ExactCycleBound) ||
          !(P.Stats.CyclesConsumed + Charge < ExactCycleBound) ||
          !(Telem[P.Pid].CyclesByType[Ct] + Charge < ExactCycleBound) ||
          (P.MonActive && !(P.MonCycles + Charge < ExactCycleBound)))
        return false;
    }
  }

  for (uint32_t Core = 0; Core < NumCores; ++Core) {
    std::deque<uint32_t> &Q = Queues[Core];
    uint64_t Len = Q.size();
    if (Len == 0)
      continue;
    double Freq = coreFrequency(Core);
    uint32_t Ct = coreType(Core);
    for (uint64_t Pos = 0; Pos < Len && Pos < Window; ++Pos) {
      Process &P = *Procs[Q[Pos]];
      HotProc &H = Hot[P.Pid];
      uint64_t Turns = turnsInWindow(Window, Pos, Len);
      uint64_t Insts = Turns * H.SteadyInsts;
      double Charge = static_cast<double>(Turns) * H.SteadyCharge;
      P.Stats.InstsRetired += Insts;
      P.Stats.BlocksExecuted += Turns * H.SteadyIters;
      P.Stats.CyclesConsumed += Charge;
      BusyCycles[Core] += Charge;
      if (P.MonActive) {
        P.MonInsts += Insts;
        P.MonCycles += Charge;
      }
      // CpuSeconds adds Charge/Freq, which is off the grid: replay the
      // per-turn adds so rounding happens exactly as when stepping.
      double TurnSeconds = H.SteadyCharge / Freq;
      for (uint64_t Turn = 0; Turn < Turns; ++Turn)
        P.Stats.CpuSeconds += TurnSeconds;
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
    std::rotate(Q.begin(), Q.begin() + static_cast<ptrdiff_t>(Window % Len),
                Q.end());
  }

  Now = End;
  QuantaFused += Window;
  return true;
}

/// The flat-image interpreter. Same block sequence, same RNG draws, and
/// the same cycle totals as advanceProcessReference, so both engines
/// produce bit-identical ProcessStats. The difference is mechanical:
/// each step is one indexed load from the FlatImage instead of pointer
/// chases through Program, CostModel, and InstrumentedProgram, and two
/// shapes are charged in O(1) — a mark-free superblock chain that fits
/// the remaining budget (its precomputed sum), and a run of unmarked
/// self-loop iterations (k * cost). Costs are on the exact cycle grid
/// (CostModel.h), so both equal the adds they replace.
Machine::AdvanceResult Machine::advanceProcessFlat(Process &P, uint32_t Core,
                                                   double BudgetCycles,
                                                   uint32_t Sharers) {
  AdvanceResult R;
  const FlatImage &FI = *P.Flat;
  const FlatBlock *Blk = FI.blocks();
  const double *Cyc = FI.cycleTable();
  const double *ChainCyc = FI.chainCycleTable();
  const PhaseMark *Marks = FI.marks();
  // Per-quantum invariant, cached across quanta in the hot lane and
  // recomputed only on migration or a sharer-count change. Pure
  // function of (core type, sharers), so caching cannot change results.
  uint32_t CfgOff = configOffsetCached(P, Core, Sharers);
  uint32_t Cur = P.CurGlobal;

  while (!P.Finished && R.CyclesUsed < BudgetCycles) {
    const FlatBlock *B = &Blk[Cur];

    if (B->Op == FlatOp::Chain) {
      if (B->ChainBlocks > 0) {
        double Sum = ChainCyc[B->ChainRow + CfgOff];
        if (R.CyclesUsed + Sum < BudgetCycles &&
            exactCharge(P, R.CyclesUsed, Sum)) {
          // O(1) superblock: the whole mark-free chain fits in the
          // remaining budget, so charge the fused summary at once.
          R.CyclesUsed += Sum;
          P.Stats.InstsRetired += B->ChainInsts;
          P.Stats.BlocksExecuted += B->ChainBlocks;
          if (P.MonActive) {
            P.MonInsts += B->ChainInsts;
            P.MonCycles += Sum;
          }
          Cur = B->ChainExit;
          continue;
        }
      }
      // Exact superblock walk: budget-straddling chains and mark-free
      // Jump cycles (ChainBlocks == 0). No terminator dispatch, no mark
      // lookups, no RNG. Monitoring is hoisted out of the loop (it can
      // only change at a mark, and chains are mark-free).
      if (P.MonActive) {
        do {
          double Cycles = Cyc[B->CycleRow + CfgOff];
          R.CyclesUsed += Cycles;
          P.Stats.InstsRetired += B->Insts;
          ++P.Stats.BlocksExecuted;
          P.MonInsts += B->Insts;
          P.MonCycles += Cycles;
          Cur = B->Succ[0];
          B = &Blk[Cur];
        } while (B->Op == FlatOp::Chain && R.CyclesUsed < BudgetCycles);
      } else {
        do {
          R.CyclesUsed += Cyc[B->CycleRow + CfgOff];
          P.Stats.InstsRetired += B->Insts;
          ++P.Stats.BlocksExecuted;
          Cur = B->Succ[0];
          B = &Blk[Cur];
        } while (B->Op == FlatOp::Chain && R.CyclesUsed < BudgetCycles);
      }
      continue;
    }

    double Cycles = Cyc[B->CycleRow + CfgOff];
    uint32_t Insts = B->Insts;

    if (B->Op == FlatOp::Loop && B->Succ[0] == Cur && B->EdgeMark[0] < 0) {
      // O(1) self-loop: run every back-edge iteration this quantum
      // reaches at once. Latch executions left in this activation,
      // counting the exit one (a fresh activation starts at TripCount).
      uint32_t &Rem = P.LoopRemaining[Cur];
      uint32_t Left = Rem == 0 ? B->TripCount : Rem;
      if (Left > 1) {
        uint64_t K =
            selfLoopRun(R.CyclesUsed, BudgetCycles, Cycles, Left - 1);
        double Charge = static_cast<double>(K) * Cycles;
        if (exactCharge(P, R.CyclesUsed, Charge)) {
          R.CyclesUsed += Charge;
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

    R.CyclesUsed += Cycles;
    P.Stats.InstsRetired += Insts;
    ++P.Stats.BlocksExecuted;
    if (P.MonActive) {
      P.MonInsts += Insts;
      P.MonCycles += Cycles;
    }

    const PhaseMark *TakenMark = nullptr;
    switch (B->Op) {
    case FlatOp::Jump: // Always carries a mark (else it would be Chain).
      TakenMark = Marks + B->EdgeMark[0];
      Cur = B->Succ[0];
      break;
    case FlatOp::Call: {
      P.CallStack.push_back(CallFrame{0, 0, B->EdgeMark[0], B->Succ[0]});
      int32_t CallMark = B->CallMark;
      Cur = B->Callee;
      if (CallMark >= 0 &&
          fireMark(P, Marks[CallMark], Core, R.CyclesUsed)) {
        R.Migrated = true;
        P.CurGlobal = Cur;
        return R;
      }
      continue;
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
      int32_t Mark = B->EdgeMark[Index];
      if (Mark >= 0)
        TakenMark = Marks + Mark;
      Cur = B->Succ[Index];
      break;
    }
    case FlatOp::Cond: {
      uint32_t Index = P.Gen.nextBool(B->TakenProb) ? 0 : 1;
      int32_t Mark = B->EdgeMark[Index];
      if (Mark >= 0)
        TakenMark = Marks + Mark;
      Cur = B->Succ[Index];
      break;
    }
    case FlatOp::Ret: {
      if (P.CallStack.empty()) {
        P.Finished = true;
        R.Finished = true;
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
    case FlatOp::Chain: // Handled above.
      break;
    }

    if (TakenMark && fireMark(P, *TakenMark, Core, R.CyclesUsed)) {
      R.Migrated = true;
      P.CurGlobal = Cur;
      return R;
    }
  }
  P.CurGlobal = Cur;
  return R;
}

Machine::AdvanceResult
Machine::advanceProcessReference(Process &P, uint32_t Core,
                                 double BudgetCycles, uint32_t Sharers) {
  AdvanceResult R;
  const InstrumentedProgram &IP = *P.IProg;
  const Program &Prog = IP.program();
  const CostModel &Cost = *P.Cost;

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
  const MarkCostModel &MC = P.IProg->cost();
  ++P.Stats.MarksFired;
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
