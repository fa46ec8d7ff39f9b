//===- exp/Sweep.cpp - Declarative technique/workload sweeps --------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exp/Sweep.h"

#include "obs/Counters.h"
#include "obs/Span.h"
#include "obs/Trace.h"

using namespace pbt;
using namespace pbt::exp;

Comparison SweepResult::comparison(const SweepCell &Cell) const {
  Comparison C;
  C.Base = base(Cell);
  C.Tuned = Cell.Run;
  C.BaseFair = BaselineFair[Cell.Workload];
  C.TunedFair = Cell.Fair;
  return C;
}

double SweepResult::throughputImprovement(const SweepCell &Cell) const {
  return percentIncrease(
      static_cast<double>(base(Cell).InstructionsRetired),
      static_cast<double>(Cell.Run.InstructionsRetired));
}

const std::vector<SchedulerSpec> &SweepGrid::effectiveSchedulers() const {
  // An empty scheduler axis means the classic single-policy grid.
  static const std::vector<SchedulerSpec> DefaultSchedulers = {
      SchedulerSpec()};
  return Schedulers.empty() ? DefaultSchedulers : Schedulers;
}

const std::vector<ScenarioSpec> &SweepGrid::effectiveScenarios() const {
  // An empty scenario axis means the classic batch-at-zero grid.
  static const std::vector<ScenarioSpec> DefaultScenarios = {ScenarioSpec()};
  return Scenarios.empty() ? DefaultScenarios : Scenarios;
}

namespace {

/// runSweep's batch layout: baseline replays first, then all cells in
/// technique-major nest order, with baseline-coincident cells reusing
/// the baseline job. Each job's unit id names its trace file, so trace
/// names are a pure function of the grid, whatever thread runs the job.
struct SweepJobPlan {
  struct Coord {
    bool IsBaseline = false;
    size_t T = 0, W = 0, S = 0, C = 0, N = 0;
  };
  std::vector<Coord> Jobs;      ///< Per job, in batch order.
  std::vector<std::string> Ids; ///< Per job, its unit id.
  std::vector<size_t> CellJob;  ///< Per cell (nest order): job index.
  size_t BaselineJobs = 0;
};

SweepJobPlan planSweepJobs(const SweepGrid &Grid) {
  const std::vector<SchedulerSpec> &Schedulers = Grid.effectiveSchedulers();
  const std::vector<ScenarioSpec> &Scenarios = Grid.effectiveScenarios();
  SweepJobPlan Plan;
  Plan.BaselineJobs = Grid.WithBaseline ? Grid.Workloads.size() : 0;
  for (size_t W = 0; W < Plan.BaselineJobs; ++W) {
    SweepJobPlan::Coord Co;
    Co.IsBaseline = true;
    Co.W = W;
    Plan.Jobs.push_back(Co);
    Plan.Ids.push_back("base/w" + std::to_string(W));
  }
  for (size_t T = 0; T < Grid.Techniques.size(); ++T)
    for (size_t W = 0; W < Grid.Workloads.size(); ++W)
      for (size_t S = 0; S < Grid.TypingSeeds.size(); ++S)
        for (size_t C = 0; C < Schedulers.size(); ++C)
          for (size_t N = 0; N < Scenarios.size(); ++N) {
            // A cell that IS the paper's reference point (baseline
            // technique, oblivious scheduler, batch scenario) would
            // simulate the identical replay twice; it reuses the
            // baseline's job instead (bit-identical by construction:
            // same images, same tuner, same queues, same policy).
            if (Grid.WithBaseline &&
                Grid.Techniques[T] == TechniqueSpec::baseline() &&
                Schedulers[C] == SchedulerSpec() &&
                Scenarios[N] == ScenarioSpec()) {
              Plan.CellJob.push_back(W);
              continue;
            }
            Plan.CellJob.push_back(Plan.Jobs.size());
            SweepJobPlan::Coord Co;
            Co.T = T;
            Co.W = W;
            Co.S = S;
            Co.C = C;
            Co.N = N;
            Plan.Jobs.push_back(Co);
            Plan.Ids.push_back("cell/t" + std::to_string(T) + "/w" +
                               std::to_string(W) + "/s" + std::to_string(S) +
                               "/c" + std::to_string(C) + "/n" +
                               std::to_string(N));
          }
  return Plan;
}

/// Assembles a SweepResult from per-job results in batch order.
SweepResult assembleSweep(const SweepGrid &Grid, const SweepJobPlan &Plan,
                          const MachineConfig &Machine,
                          std::vector<RunResult> Runs) {
  const std::vector<SchedulerSpec> &Schedulers = Grid.effectiveSchedulers();
  const std::vector<ScenarioSpec> &Scenarios = Grid.effectiveScenarios();
  SweepResult Result;
  for (size_t W = 0; W < Plan.BaselineJobs; ++W) {
    Result.Baselines.push_back(std::move(Runs[W]));
    Result.BaselineFair.push_back(
        computeFairness(Result.Baselines.back().Completed));
    Result.BaselineLatency.push_back(
        computeLatency(Result.Baselines.back(), Machine));
  }

  size_t Next = 0;
  for (size_t T = 0; T < Grid.Techniques.size(); ++T)
    for (size_t W = 0; W < Grid.Workloads.size(); ++W)
      for (size_t S = 0; S < Grid.TypingSeeds.size(); ++S)
        for (size_t C = 0; C < Schedulers.size(); ++C)
          for (size_t N = 0; N < Scenarios.size(); ++N) {
            SweepCell Cell;
            Cell.Technique = static_cast<uint32_t>(T);
            Cell.Workload = static_cast<uint32_t>(W);
            Cell.TypingSeed = static_cast<uint32_t>(S);
            Cell.Scheduler = static_cast<uint32_t>(C);
            Cell.Scenario = static_cast<uint32_t>(N);
            size_t Job = Plan.CellJob[Next++];
            // Baseline jobs were moved into Result.Baselines above;
            // cells reusing one copy it, cells with their own job take
            // it.
            Cell.Run = Job < Plan.BaselineJobs ? Result.Baselines[Job]
                                               : std::move(Runs[Job]);
            Cell.Fair = computeFairness(Cell.Run.Completed);
            Cell.Latency = computeLatency(Cell.Run, Machine);
            Result.Cells.push_back(std::move(Cell));
          }
  return Result;
}

/// Materializes each workload shape once; baselines replay it once and
/// every cell of every technique reuses the identical queues/seeds (the
/// paper's same-queues methodology).
Workload materializeWorkload(const WorkloadSpec &Spec, size_t ProgramCount) {
  return Workload::random(Spec.Slots, Spec.JobsPerSlot,
                          static_cast<uint32_t>(ProgramCount), Spec.Seed);
}

} // namespace

SweepResult pbt::exp::runSweep(Lab &L, const SweepGrid &Grid) {
  SweepJobPlan Plan = planSweepJobs(Grid);
  const std::vector<SchedulerSpec> &Schedulers = Grid.effectiveSchedulers();
  const std::vector<ScenarioSpec> &Scenarios = Grid.effectiveScenarios();
  const std::vector<double> &Iso = L.isolated();

  // Prepare every distinct (technique, typing seed) once, through the
  // suite cache: variants sharing a preparation (e.g. tuner-only sweeps)
  // come back as cheap copies of the same images.
  std::vector<PreparedSuite> Suites;
  Suites.reserve(Grid.Techniques.size() * Grid.TypingSeeds.size() + 1);
  for (const TechniqueSpec &Tech : Grid.Techniques)
    for (uint64_t TypingSeed : Grid.TypingSeeds)
      Suites.push_back(L.suite(Tech, TypingSeed));
  PreparedSuite BaselineSuite;
  if (Grid.WithBaseline)
    BaselineSuite = L.suite(TechniqueSpec::baseline());

  std::vector<Workload> Workloads;
  Workloads.reserve(Grid.Workloads.size());
  for (const WorkloadSpec &Spec : Grid.Workloads)
    Workloads.push_back(materializeWorkload(Spec, L.programs().size()));

  // One flat batch: baseline replays first, then all cells. Every job is
  // an independent simulation, so batch execution is bit-identical to
  // running them back to back. The group counter advances even when
  // tracing is off, keeping trace file names stable across --trace
  // on/off reruns of the same build.
  uint64_t TraceGroup = obs::beginTraceGroup();
  std::vector<WorkloadJob> Jobs;
  Jobs.reserve(Plan.Jobs.size());
  for (size_t Job = 0; Job < Plan.Jobs.size(); ++Job) {
    const SweepJobPlan::Coord &Co = Plan.Jobs[Job];
    WorkloadJob J;
    J.Suite = Co.IsBaseline ? &BaselineSuite
                            : &Suites[Co.T * Grid.TypingSeeds.size() + Co.S];
    J.W = &Workloads[Co.W];
    J.Machine = &L.machine();
    J.Sim = L.sim();
    J.Horizon = Grid.Workloads[Co.W].Horizon;
    J.Isolated = &Iso;
    // Baselines keep the default oblivious scheduler and batch
    // scenario: the paper's fixed reference point.
    if (!Co.IsBaseline) {
      J.Sched = Schedulers[Co.C];
      J.Scenario = Scenarios[Co.N];
    }
    J.TraceUnit = Plan.Ids[Job];
    J.TraceGroup = TraceGroup;
    Jobs.push_back(std::move(J));
  }
  obs::CounterRegistry::global().add("sweep.units_total", Plan.Jobs.size());
  obs::Span Replay("sweep.replay");
  std::vector<RunResult> Runs = runWorkloads(Jobs);
  return assembleSweep(Grid, Plan, L.machine(), std::move(Runs));
}
