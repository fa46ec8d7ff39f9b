//===- workload/Runner.cpp - Experiment preparation & execution -----------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "workload/Runner.h"

#include "analysis/BlockTyping.h"
#include "analysis/PassManager.h"
#include "analysis/ProgramFacts.h"
#include "obs/Clock.h"
#include "obs/Counters.h"
#include "obs/Trace.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

using namespace pbt;

std::string TechniqueSpec::label() const {
  if (Baseline)
    return "Linux";
  std::string Out = Transition.label();
  if (UseStaticTyping)
    Out += "+static";
  if (TypingError > 0) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "+err%g%%", 100.0 * TypingError);
    Out += Buf;
  }
  return Out;
}

uint64_t TechniqueSpec::preparationHash() const {
  uint64_t H = hashCombine(0x5E17E3, Baseline ? 1 : 0);
  H = hashCombine(H, hashValue(Transition));
  H = hashCombine(H, UseStaticTyping ? 1 : 0);
  H = hashCombine(H, hashDouble(TypingError));
  return hashCombine(H, hashValue(Cost));
}

uint64_t pbt::hashValue(const TechniqueSpec &Tech) {
  return hashCombine(Tech.preparationHash(), hashValue(Tech.Tuner));
}

namespace {

/// The stats table's rows: the pipeline stages in run order, then the
/// verify-IR sweep.
enum Stage : size_t {
  CostModelStage,
  TypingStage,
  ErrorInjectStage,
  TransitionsStage,
  InstrumentStage,
  FlattenStage,
  VerifyRow,
  NumRows
};

const char *const RowNames[NumRows] = {"cost-model",  "typing",
                                       "error-inject", "transitions",
                                       "instrument",  "flatten",
                                       "verify"};

/// Process-wide per-stage counters behind cumulativePipelineStats().
struct CumulativeStats {
  std::mutex Mutex;
  PassStats Rows[NumRows];
};

CumulativeStats &cumulative() {
  static CumulativeStats C;
  return C;
}

/// The technique-invariant base of one program on one machine: the
/// program, its cost model (with the cycle table every flat image
/// reads), its CFG facts and its oracle typing, all built eagerly here,
/// inside the cost-model stage's parallel sweep. One allocation holds
/// them all, so one weak_ptr tracks the base and aliasing shared_ptrs
/// hand out the program and the cost model.
struct ProgramBase {
  Program Prog;
  CostModel Cost;
  ProgramFacts Facts;
  ProgramTyping Oracle;
  ProgramBase(const Program &P, const MachineConfig &Machine)
      : Prog(P), Cost(Prog, Machine), Facts(computeProgramFacts(Prog)),
        Oracle(computeOracleTyping(Prog, Cost)) {}
};

/// Process-wide intern table of live program bases. Entries are
/// weak_ptrs, so a base lives exactly as long as some prepared artifact
/// holds it; the table never keeps one alive. The key is cheap and only
/// narrows the search: a hit requires full structural equality of the
/// program and MachineConfig equality.
class BaseTable {
public:
  std::shared_ptr<const ProgramBase> bind(const Program &Prog,
                                          const MachineConfig &Machine) {
    obs::CounterRegistry &Reg = obs::CounterRegistry::global();
    Key K{Prog.Name, Prog.Procs.size(), Prog.blockCount(),
          Prog.instructionCount(), hashValue(Machine)};
    // Fast path: live candidates are pinned under the lock and compared
    // outside it, so concurrent hits do not serialize on the compare.
    std::vector<std::shared_ptr<const ProgramBase>> Live;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      auto It = Entries.find(K);
      if (It != Entries.end())
        for (const auto &W : It->second)
          if (auto B = W.lock())
            Live.push_back(std::move(B));
    }
    for (auto &B : Live)
      if (matches(*B, Prog, Machine)) {
        Reg.add("analysis.cost_models_shared");
        return std::move(B);
      }

    // Built outside the lock so distinct programs build in parallel. A
    // racing thread may have published an equal base meanwhile; the
    // locked re-check keeps one base per (program, machine).
    auto Fresh = std::make_shared<const ProgramBase>(Prog, Machine);
    Reg.add("analysis.cost_models_built");
    std::lock_guard<std::mutex> Lock(Mutex);
    std::vector<std::weak_ptr<const ProgramBase>> &Bucket = Entries[K];
    Bucket.erase(std::remove_if(Bucket.begin(), Bucket.end(),
                                [](const auto &W) { return W.expired(); }),
                 Bucket.end());
    for (const auto &W : Bucket)
      if (auto B = W.lock(); B && matches(*B, Prog, Machine)) {
        Reg.add("analysis.cost_models_shared");
        return B;
      }
    Bucket.push_back(Fresh);
    return Fresh;
  }

private:
  using Key = std::tuple<std::string, size_t, size_t, size_t, uint64_t>;

  static bool matches(const ProgramBase &B, const Program &Prog,
                      const MachineConfig &Machine) {
    return B.Cost.machine() == Machine && B.Prog == Prog;
  }

  std::mutex Mutex;
  std::map<Key, std::vector<std::weak_ptr<const ProgramBase>>> Entries;
};

BaseTable &bases() {
  static BaseTable T;
  return T;
}

} // namespace

PipelineStats pbt::cumulativePipelineStats() {
  CumulativeStats &C = cumulative();
  std::lock_guard<std::mutex> Lock(C.Mutex);
  PipelineStats Out;
  for (size_t R = 0; R < NumRows; ++R) {
    if (R == VerifyRow && C.Rows[R].Programs == 0)
      break;
    Out.Passes.push_back(C.Rows[R]);
    Out.Passes.back().Name = RowNames[R];
  }
  return Out;
}

std::vector<std::shared_ptr<const FlatImage>>
pbt::preparePrograms(const std::vector<Program> &Programs,
                     const MachineConfig &Machine, const TechniqueSpec &Tech,
                     uint64_t TypingSeed, ThreadPool *Pool) {
  ThreadPool &P = Pool ? *Pool : ThreadPool::global();
  const size_t N = Programs.size();
  const bool VerifyIR = verifyIREnabled();
  std::vector<ProgramPrep> Preps(N);
  for (size_t I = 0; I < N; ++I)
    Preps[I].Prog = &Programs[I];
  // Bound by the cost-model stage; later stages read the technique-
  // invariant products from it.
  using BaseRef = std::shared_ptr<const ProgramBase>;
  std::vector<BaseRef> Bases(N);

  // Stages stay stage-major, with a barrier between them, so each
  // stage's Seconds is the wall time of its own sweep. Seconds never
  // feeds a byte-compared artifact (see PassStats).
  PassStats Run[NumRows];
  auto Sweep = [&](Stage S, const auto &Body) {
    double Start = obs::monotonicSeconds();
    P.parallelFor(N, Body);
    Run[S].Programs += N;
    Run[S].Seconds += obs::monotonicSeconds() - Start;
  };
  auto RunStage = [&](Stage S, const auto &Body) {
    Sweep(S, [&](size_t I) { Body(Preps[I], Bases[I]); });
    if (!VerifyIR)
      return;
    // Read-only per program; failures surface on the caller thread as
    // one exception naming the stage that broke the invariant.
    std::vector<std::string> Errors(N);
    Sweep(VerifyRow, [&](size_t I) {
      if (!verifyPrep(Preps[I], &Tech, &Errors[I]) && Errors[I].empty())
        Errors[I] = "invariant violated";
    });
    for (size_t I = 0; I < N; ++I)
      if (!Errors[I].empty())
        throw std::runtime_error(std::string("verify-ir: after stage '") +
                                 RowNames[S] + "', program '" +
                                 Programs[I].Name + "': " + Errors[I]);
  };

  RunStage(CostModelStage, [&](ProgramPrep &PC, BaseRef &B) {
    B = bases().bind(*PC.Prog, Machine);
    PC.Base = std::shared_ptr<const Program>(B, &B->Prog);
    PC.Cost = std::shared_ptr<const CostModel>(B, &B->Cost);
    PC.Prog = PC.Base.get();
  });
  if (!Tech.Baseline) {
    RunStage(TypingStage, [&](ProgramPrep &PC, const BaseRef &B) {
      if (Tech.UseStaticTyping) {
        TypingConfig Config;
        Config.Seed = TypingSeed;
        PC.Typing = computeStaticTyping(*PC.Prog, Config);
      } else {
        PC.Typing = B->Oracle;
      }
      PC.Typed = true;
    });
    if (Tech.TypingError > 0)
      RunStage(ErrorInjectStage, [&](ProgramPrep &PC, const BaseRef &) {
        PC.Typing = injectClusteringError(PC.Typing, Tech.TypingError,
                                          TypingSeed ^ 0xE77);
      });
  }
  RunStage(TransitionsStage, [&](ProgramPrep &PC, const BaseRef &B) {
    if (Tech.Baseline) {
      // Uninstrumented image: no marks; region typing is irrelevant.
      PC.Marking.NumTypes = 1;
      PC.Marking.RegionType.resize(PC.Prog->Procs.size());
    } else {
      PC.Marking =
          computeTransitions(*PC.Prog, B->Facts, PC.Typing, Tech.Transition);
    }
    PC.Marked = true;
  });
  RunStage(InstrumentStage, [&](ProgramPrep &PC, const BaseRef &) {
    PC.Image = std::make_shared<const InstrumentedProgram>(
        PC.Base, std::move(PC.Marking), Tech.Cost);
  });
  RunStage(FlattenStage, [&](ProgramPrep &PC, const BaseRef &) {
    PC.Flat = std::make_shared<const FlatImage>(PC.Image, PC.Cost);
  });

  {
    CumulativeStats &C = cumulative();
    std::lock_guard<std::mutex> Lock(C.Mutex);
    for (size_t R = 0; R < NumRows; ++R) {
      C.Rows[R].Programs += Run[R].Programs;
      C.Rows[R].Seconds += Run[R].Seconds;
    }
  }

  std::vector<std::shared_ptr<const FlatImage>> Out(N);
  for (size_t I = 0; I < N; ++I)
    Out[I] = std::move(Preps[I].Flat);
  return Out;
}

std::shared_ptr<const FlatImage>
pbt::imageFromMarks(const Program &Prog, const MachineConfig &Machine,
                    MarkingResult Marking, const MarkCostModel &Cost) {
  std::shared_ptr<const ProgramBase> B = bases().bind(Prog, Machine);
  return std::make_shared<const FlatImage>(
      std::make_shared<const InstrumentedProgram>(
          std::shared_ptr<const Program>(B, &B->Prog), std::move(Marking),
          Cost),
      std::shared_ptr<const CostModel>(B, &B->Cost));
}

PreparedSuite pbt::prepareSuite(const std::vector<Program> &Programs,
                                const MachineConfig &Machine,
                                const TechniqueSpec &Tech,
                                uint64_t TypingSeed, ThreadPool *Pool) {
  PreparedSuite Suite;
  Suite.Flats = preparePrograms(Programs, Machine, Tech, TypingSeed, Pool);
  Suite.Tuner = Tech.Tuner;
  for (const Program &Prog : Programs)
    Suite.Names.push_back(Prog.Name);
  return Suite;
}

std::vector<double>
pbt::isolatedRuntimes(const std::vector<Program> &Programs,
                      const MachineConfig &MachineCfg, const SimConfig &Sim) {
  TechniqueSpec Base = TechniqueSpec::baseline();
  PreparedSuite Suite = prepareSuite(Programs, MachineCfg, Base);
  return isolatedRuntimes(Suite, MachineCfg, Sim);
}

std::vector<double> pbt::isolatedRuntimes(const PreparedSuite &BaselineSuite,
                                          const MachineConfig &MachineCfg,
                                          const SimConfig &Sim) {
  std::vector<double> Times(BaselineSuite.Flats.size(), 0.0);
  ThreadPool::global().parallelFor(Times.size(), [&](size_t Bench) {
    CompletedJob Job = runIsolated(BaselineSuite,
                                   static_cast<uint32_t>(Bench), MachineCfg,
                                   Sim);
    Times[Bench] = Job.Completion - Job.Arrival;
  });
  return Times;
}

CompletedJob pbt::runIsolated(const PreparedSuite &Suite, uint32_t Bench,
                              const MachineConfig &MachineCfg,
                              const SimConfig &Sim, uint64_t Seed) {
  Machine M(MachineCfg, Sim, std::make_unique<ObliviousScheduler>());
  uint32_t Pid = M.spawn(Suite.Flats[Bench], Suite.Tuner, Seed);
  // Advance until the process finishes.
  const double Step = 64;
  const double Limit = 1e7;
  while (M.process(Pid).CompletionTime < 0) {
    if (M.now() >= Limit)
      throw std::runtime_error("isolated run of benchmark '" +
                               Suite.Names[Bench] +
                               "' did not terminate within 1e7 simulated "
                               "seconds");
    M.run(M.now() + Step);
  }
  const Process &P = M.process(Pid);
  CompletedJob Job;
  Job.Bench = Bench;
  Job.Arrival = P.ArrivalTime;
  Job.Admitted = P.ArrivalTime;
  Job.Completion = P.CompletionTime;
  Job.Stats = P.Stats;
  return Job;
}

RunResult pbt::runWorkload(const PreparedSuite &Suite, const Workload &W,
                           const MachineConfig &MachineCfg,
                           const SimConfig &Sim, double Horizon,
                           const std::vector<double> &Isolated,
                           const SchedulerSpec &Sched,
                           const ScenarioSpec &Scenario,
                           obs::TraceSink *Trace) {
  RunResult Result;
  Result.Horizon = Horizon;

  Machine M(MachineCfg, Sim, Sched.makeScheduler());
  if (Trace)
    M.setTraceSink(Trace);

  std::vector<uint32_t> BenchOfPid;
  /// Scheduled arrival instant per pid for open-scenario jobs
  /// (negative sentinel for batch jobs, whose arrival IS the spawn).
  std::vector<double> ArrivalOfPid;
  uint32_t Done = 0;

  // Stop rules: a job count, or an open stream (Stream jobs) fully
  // completed. Record asks the machine to stop once one holds, and
  // run() returns at the end of that quantum — the same clock walk as
  // stepping run(now + Timeslice) until the rule holds.
  bool HasStopRule = !Scenario.isBatch() || Scenario.MaxJobs > 0;
  uint32_t Stream = 0;
  auto Stopped = [&] {
    if (Scenario.MaxJobs > 0 && Done >= Scenario.MaxJobs)
      return true;
    return !Scenario.isBatch() && Done >= Stream;
  };

  auto Spawn = [&](uint32_t Bench, uint64_t Seed, int32_t Slot,
                   double Arrival) {
    uint32_t Pid = M.spawn(Suite.Flats[Bench], Suite.Tuner, Seed, Slot);
    BenchOfPid.push_back(Bench);
    ArrivalOfPid.push_back(Arrival);
    if (Trace)
      Trace->processTrack(Pid, "p" + std::to_string(Pid) + " " +
                                   Suite.Names[Bench]);
    return Pid;
  };

  auto Record = [&](Process &P) {
    CompletedJob Job;
    Job.Bench = BenchOfPid[P.Pid];
    Job.Slot = P.Slot;
    // Open-scenario jobs count from their scheduled arrival, so
    // turnaround includes door-queue and quantum-alignment wait; batch
    // jobs count from the spawn, the classic closed-system convention.
    Job.Arrival =
        ArrivalOfPid[P.Pid] >= 0 ? ArrivalOfPid[P.Pid] : P.ArrivalTime;
    Job.Admitted = P.ArrivalTime;
    Job.Completion = P.CompletionTime;
    if (Job.Bench < Isolated.size())
      Job.Isolated = Isolated[Job.Bench];
    Job.Stats = P.Stats;
    Result.Completed.push_back(Job);
    ++Done;
    if (Stopped())
      M.requestStop();
    if (Trace)
      // Timestamped at the quantum start of the exit (see the machine's
      // exit event); the cycle-derived CompletionTime stays out of the
      // trace so bytes match across engines.
      Trace->complete(Trace->cycles(M.now()), P.Pid, Job.Bench);
  };

  // Per-slot cursor into the batch job queues; on exit, start the next
  // job of the finished process's slot (constant workload size). Only
  // the batch scenario uses the workload's queues.
  std::vector<uint32_t> NextJob(W.numSlots(), 0);
  auto SpawnSlot = [&](uint32_t Slot) {
    uint32_t Index = NextJob[Slot];
    if (Index >= W.Slots[Slot].size())
      return; // Queue exhausted (workloads should be sized to avoid this).
    ++NextJob[Slot];
    uint32_t Bench = W.Slots[Slot][Index];
    Spawn(Bench, W.jobSeed(Slot, Index), static_cast<int32_t>(Slot),
          /*Arrival=*/-1.0);
  };

  // Open-scenario state: the materialized arrival schedule, plus the
  // door queue of arrivals deferred by the multiprogramming cap.
  std::vector<ScenarioArrival> Arrivals;
  std::deque<ScenarioArrival> Deferred;
  uint32_t InFlight = 0;
  auto Admit = [&](const ScenarioArrival &A) {
    uint32_t Pid = Spawn(A.Bench, A.Seed, /*Slot=*/-1, A.Time);
    ++InFlight;
    if (Trace)
      Trace->admit(Trace->cycles(M.now()), Pid, A.Bench);
  };

  if (Scenario.isBatch()) {
    M.setExitHandler([&](Machine &, Process &P) {
      Record(P);
      if (P.Slot >= 0)
        SpawnSlot(static_cast<uint32_t>(P.Slot));
    });
    // The initial jobs arrive through the machine's injection list at
    // time zero — they spawn at the first quantum start, before any
    // balancing or execution, producing the exact state the classic
    // spawn-before-run loop did (tests/scenario_test.cpp proves the
    // replays bit-identical).
    for (uint32_t Slot = 0; Slot < W.numSlots(); ++Slot)
      M.scheduleAt(0.0, [&SpawnSlot, Slot](Machine &) { SpawnSlot(Slot); });
  } else {
    Arrivals = scenarioArrivals(
        Scenario, static_cast<uint32_t>(Suite.Flats.size()), Horizon);
    Stream = static_cast<uint32_t>(Arrivals.size());
    M.setExitHandler([&](Machine &, Process &P) {
      Record(P);
      --InFlight;
      if (!Deferred.empty() &&
          (Scenario.MaxInFlight == 0 || InFlight < Scenario.MaxInFlight)) {
        Admit(Deferred.front());
        Deferred.pop_front();
      }
    });
    for (const ScenarioArrival &A : Arrivals)
      M.scheduleAt(A.Time, [&, A](Machine &) {
        if (Trace)
          // The stream's scheduled instant, not the quantized fire
          // time: Admitted - Arrival is then visible in the trace as
          // the admission delay.
          Trace->arrival(Trace->cycles(A.Time), A.Bench);
        if (Scenario.MaxInFlight > 0 && InFlight >= Scenario.MaxInFlight)
          Deferred.push_back(A);
        else
          Admit(A);
      });
  }

  // An empty open stream is stopped before it starts.
  if (!Stopped())
    M.run(Horizon);
  if (HasStopRule)
    Result.Horizon = M.now();
  obs::CounterRegistry &Reg = obs::CounterRegistry::global();
  Reg.add("sim.quanta_stepped", M.quantaStepped());
  Reg.add("sim.quanta_fused", M.quantaFused());
  Reg.add("sim.balance_skipped", M.balancesSkipped());
  Reg.add("sim.windows_opened", M.windowsOpened());
  Reg.add("sim.window_settles", M.windowSettles());
  for (size_t C = 0; C < NumSettleCauses; ++C) {
    SettleCause Cause = static_cast<SettleCause>(C);
    Reg.add(std::string("sim.window_settles.") + settleCauseName(Cause),
            M.windowSettles(Cause));
  }
  Reg.add("sim.window_steps", M.windowSteps());
  Reg.add("sim.window_absorbs", M.windowAbsorbs());
  Reg.add("sim.window_catchups", M.windowCatchUps());

  Result.CompletedCount = Done;
  Result.InstructionsRetired = M.totalInstructions();
  for (uint32_t Core = 0; Core < MachineCfg.numCores(); ++Core)
    Result.CoreBusy.push_back(M.coreBusyFraction(Core));
  Result.InstsByType.assign(MachineCfg.numCoreTypes(), 0);
  Result.CyclesByType.assign(MachineCfg.numCoreTypes(), 0.0);
  for (const auto &P : M.processes()) {
    Result.TotalSwitches += P->Stats.CoreSwitches;
    Result.TotalMarks += P->Stats.MarksFired;
    Result.CounterWaits += P->Stats.CounterWaits;
    Result.TotalOverheadCycles += P->Stats.OverheadCycles;
    Result.TotalCycles += P->Stats.CyclesConsumed;
    const SchedTelemetry &T = M.telemetry(P->Pid);
    for (uint32_t Ct = 0; Ct < MachineCfg.numCoreTypes(); ++Ct) {
      Result.InstsByType[Ct] += T.InstsByType[Ct];
      Result.CyclesByType[Ct] += T.CyclesByType[Ct];
    }
  }

  if (Trace)
    Trace->runEnd(Trace->cycles(M.now()), Done, BenchOfPid.size());

  // Canonical row order: completion time with deterministic tie-breaks,
  // so per-benchmark tables come out identical however the simulation
  // interleaved same-quantum exits (and whichever engine produced them).
  std::stable_sort(Result.Completed.begin(), Result.Completed.end(),
                   [](const CompletedJob &A, const CompletedJob &B) {
                     if (A.Completion != B.Completion)
                       return A.Completion < B.Completion;
                     if (A.Slot != B.Slot)
                       return A.Slot < B.Slot;
                     if (A.Arrival != B.Arrival)
                       return A.Arrival < B.Arrival;
                     return A.Bench < B.Bench;
                   });
  return Result;
}

std::vector<RunResult>
pbt::runWorkloads(const std::vector<WorkloadJob> &Jobs) {
  std::vector<RunResult> Results(Jobs.size());
  ThreadPool::global().parallelFor(Jobs.size(), [&](size_t I) {
    const WorkloadJob &Job = Jobs[I];
    assert(Job.Suite && Job.W && Job.Machine && "incomplete workload job");
    static const std::vector<double> NoIsolated;
    // One sink per replay unit, named by the job's deterministic unit
    // id — traces are identical whatever thread runs the job, and
    // whatever else runs concurrently.
    std::unique_ptr<obs::TraceSink> Sink;
    if (!Job.TraceUnit.empty())
      Sink = obs::TraceSink::openForUnit(Job.TraceUnit, Job.TraceGroup);
    Results[I] = runWorkload(*Job.Suite, *Job.W, *Job.Machine, Job.Sim,
                             Job.Horizon,
                             Job.Isolated ? *Job.Isolated : NoIsolated,
                             Job.Sched, Job.Scenario, Sink.get());
  });
  return Results;
}
