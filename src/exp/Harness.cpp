//===- exp/Harness.cpp - Unified experiment harness -----------------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exp/Harness.h"

#include "obs/Span.h"
#include "obs/Trace.h"
#include "support/Env.h"
#include "support/Hashing.h"

#include <cstdio>
#include <set>

using namespace pbt;
using namespace pbt::exp;

Lab &LabPool::lab(const MachineConfig &MachineCfg) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &Entry : Labs)
    if (Entry.first == MachineCfg && Entry.first.Name == MachineCfg.Name)
      return *Entry.second;
  Labs.emplace_back(MachineCfg, std::make_unique<Lab>(MachineCfg));
  return *Labs.back().second;
}

std::vector<Lab *> LabPool::labs() {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<Lab *> Out;
  Out.reserve(Labs.size());
  for (auto &Entry : Labs)
    Out.push_back(Entry.second.get());
  return Out;
}

void SuiteCacheTotals::add(const SuiteCache &Cache) {
  MemoryHits += Cache.hits();
  StoreHits += Cache.storeHits();
  Prepared += Cache.prepared();
  PreparedPrograms += Cache.preparedPrograms();
  ProgramStoreHits += Cache.programStoreHits();
}

void LabPool::retire(Lab &L) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Retired.add(L.cache());
}

SuiteCacheTotals LabPool::totals() {
  std::lock_guard<std::mutex> Lock(Mutex);
  SuiteCacheTotals Out = Retired;
  for (auto &Entry : Labs)
    Out.add(Entry.second->cache());
  return Out;
}

LabPool &ExperimentHarness::labPool() {
  static LabPool Pool;
  return Pool;
}

ExperimentHarness::ExperimentHarness(std::string NameIn, std::string Title,
                                     std::string PaperRef)
    : Name(std::move(NameIn)), Scale(envScale()) {
  std::printf("== %s ==\n(reproduces %s; PBT_BENCH_SCALE=%.2f scales the "
              "simulated horizon)\n\n",
              Title.c_str(), PaperRef.c_str(), Scale);
  // Plane-1 tracing names files after the experiment; constructing the
  // harness scopes subsequent sweeps (and resets the per-experiment
  // trace-group counter).
  obs::setTraceExperiment(Name);
  // v7: cells may carry an opt-in "telemetry" block (per-core-type
  // instructions/cycles and IPC, SweepGrid::ExportTelemetry); grids
  // that do not opt in emit cells unchanged from v6. v6 added a
  // partial-artifact variant for a since-removed multi-process mode
  // (full artifacts were unchanged beyond the version tag). v5 gave
  // sweeps[] the "engine" label (which execution engine replayed the
  // grid's cells) and metrics "percentile_mode" (always "exact"); v4
  // added the per-cell "scenario" label, the "latency" block, and
  // "p95_flow"; v3 the per-cell "scheduler" label; v2 replaced live
  // suite_cache counters with the grid-pure distinct_preparations — see
  // docs/BENCH_SCHEMA.md.
  Root["schema"] = "pbt-bench-v7";
  Root["bench"] = Name;
  Root["title"] = std::move(Title);
  Root["paper_ref"] = std::move(PaperRef);
  Root["scale"] = Scale;
}

ExperimentHarness::~ExperimentHarness() {
  for (const std::unique_ptr<Lab> &L : CustomLabs)
    labPool().retire(*L);
}

Lab &ExperimentHarness::lab(const MachineConfig &MachineCfg) {
  return labPool().lab(MachineCfg);
}

Lab &ExperimentHarness::customLab(std::vector<Program> Programs,
                                  MachineConfig MachineCfg, SimConfig Sim) {
  CustomLabs.push_back(std::make_unique<Lab>(std::move(Programs),
                                             std::move(MachineCfg), Sim));
  return *CustomLabs.back();
}

namespace {

Json runMetrics(const RunResult &Run, const FairnessMetrics &Fair,
                const LatencyMetrics &Latency) {
  Json M = Json::object();
  M["instructions"] = Run.InstructionsRetired;
  M["switches"] = Run.TotalSwitches;
  M["marks_fired"] = Run.TotalMarks;
  M["counter_waits"] = Run.CounterWaits;
  M["overhead_cycles"] = Run.TotalOverheadCycles;
  M["total_cycles"] = Run.TotalCycles;
  M["completed_jobs"] = Run.Completed.size();
  M["max_flow"] = Fair.MaxFlow;
  M["max_stretch"] = Fair.MaxStretch;
  M["avg_process_time"] = Fair.AvgProcessTime;
  M["p95_flow"] = Fair.P95Flow;
  // Percentiles are always exact (one sort per sample); the constant
  // tag is kept from pbt-bench-v5 so artifacts stay byte-identical.
  M["percentile_mode"] = "exact";
  Json L = Json::object();
  L["jobs"] = Latency.Jobs;
  L["mean_turnaround"] = Latency.MeanTurnaround;
  L["p50_turnaround"] = Latency.P50Turnaround;
  L["p95_turnaround"] = Latency.P95Turnaround;
  L["p99_turnaround"] = Latency.P99Turnaround;
  L["mean_slowdown"] = Latency.MeanSlowdown;
  L["p95_slowdown"] = Latency.P95Slowdown;
  L["max_slowdown"] = Latency.MaxSlowdown;
  L["jobs_per_megacycle"] = Latency.JobsPerMegacycle;
  M["latency"] = std::move(L);
  return M;
}

Json techniqueJson(const TechniqueSpec &Tech) {
  Json T = Json::object();
  T["label"] = Tech.label();
  T["baseline"] = Tech.Baseline;
  if (!Tech.Baseline) {
    T["strategy"] = strategyName(Tech.Transition.Strat);
    T["min_size"] = Tech.Transition.MinSize;
    T["lookahead"] = Tech.Transition.Lookahead;
    if (Tech.Transition.Naive)
      T["naive"] = true;
    T["ipc_delta"] = Tech.Tuner.IpcDelta;
    if (Tech.Tuner.SwitchToAllCores)
      T["switch_to_all_cores"] = true;
    if (Tech.UseStaticTyping)
      T["static_typing"] = true;
    if (Tech.TypingError > 0)
      T["typing_error"] = Tech.TypingError;
  }
  return T;
}

Json workloadJson(const WorkloadSpec &Spec) {
  Json W = Json::object();
  W["slots"] = Spec.Slots;
  W["jobs_per_slot"] = Spec.JobsPerSlot;
  W["horizon"] = Spec.Horizon;
  W["seed"] = Spec.Seed;
  return W;
}

} // namespace

SweepResult ExperimentHarness::sweep(Lab &L, const SweepGrid &Grid) {
  SweepResult Result = runSweep(L, Grid);

  // The same normalized axes runSweep executed over, so Cell.Scheduler
  // and Cell.Scenario always label what actually ran.
  const std::vector<SchedulerSpec> &Schedulers = Grid.effectiveSchedulers();
  const std::vector<ScenarioSpec> &Scenarios = Grid.effectiveScenarios();

  Json Cells = Json::array();
  for (const SweepCell &Cell : Result.Cells) {
    Json C = Json::object();
    C["technique"] = techniqueJson(Grid.Techniques[Cell.Technique]);
    C["scheduler"] = Schedulers[Cell.Scheduler].label();
    C["scenario"] = Scenarios[Cell.Scenario].label();
    C["workload"] = workloadJson(Grid.Workloads[Cell.Workload]);
    C["typing_seed"] = Grid.TypingSeeds[Cell.TypingSeed];
    C["metrics"] = runMetrics(Cell.Run, Cell.Fair, Cell.Latency);
    if (Grid.ExportTelemetry) {
      // Opt-in per-cell scheduler telemetry (pbt-bench-v7): what ran
      // on which core type.
      Json Tel = Json::object();
      Json Insts = Json::array();
      Json Cycles = Json::array();
      Json Ipc = Json::array();
      for (size_t Ct = 0; Ct < Cell.Run.InstsByType.size(); ++Ct) {
        Insts.push(Cell.Run.InstsByType[Ct]);
        Cycles.push(Cell.Run.CyclesByType[Ct]);
        Ipc.push(Cell.Run.CyclesByType[Ct] > 0
                     ? static_cast<double>(Cell.Run.InstsByType[Ct]) /
                           Cell.Run.CyclesByType[Ct]
                     : 0.0);
      }
      Tel["insts_by_type"] = std::move(Insts);
      Tel["cycles_by_type"] = std::move(Cycles);
      Tel["ipc_by_type"] = std::move(Ipc);
      C["telemetry"] = std::move(Tel);
    }
    if (Grid.WithBaseline) {
      C["baseline"] = runMetrics(Result.base(Cell),
                                 Result.BaselineFair[Cell.Workload],
                                 Result.BaselineLatency[Cell.Workload]);
      Comparison Cmp = Result.comparison(Cell);
      Json Vs = Json::object();
      Vs["throughput_pct"] = Cmp.throughputImprovement();
      Vs["avg_time_pct"] = Cmp.avgTimeDecrease();
      Vs["max_flow_pct"] = Cmp.maxFlowDecrease();
      Vs["max_stretch_pct"] = Cmp.maxStretchDecrease();
      C["vs_baseline"] = std::move(Vs);
    }
    Cells.push(std::move(C));
  }

  // How many static-pipeline runs this grid needs on a cold cache: the
  // distinct (preparation, typing seed) pairs it references, plus the
  // baseline — always prepared, since runSweep measures isolated
  // runtimes through the cache even for WithBaseline = false grids. The
  // scheduler and scenario axes are deliberately absent: policies and
  // traffic scenarios only steer replays, so sweeps over those axes
  // alone need one preparation. A pure function of
  // the grid — unlike raw cache counters it does not depend on what ran
  // earlier in the process, so artifacts stay byte-identical whether the
  // driver runs an experiment alone or after others (whose warm labs may
  // satisfy the whole grid from cache).
  std::set<uint64_t> Preparations;
  for (const TechniqueSpec &Tech : Grid.Techniques)
    for (uint64_t TypingSeed : Grid.TypingSeeds)
      Preparations.insert(
          hashCombine(Tech.preparationHash(), TypingSeed));
  Preparations.insert(hashCombine(TechniqueSpec::baseline().preparationHash(),
                                  DefaultTypingSeed));

  Json Record = Json::object();
  Record["machine"] = L.machine().Name;
  Record["engine"] = engineName(L.sim().Engine);
  Record["cells"] = std::move(Cells);
  Record["distinct_preparations"] = Preparations.size();
  Root["sweeps"].push(std::move(Record));
  return Result;
}

std::vector<SweepResult> ExperimentHarness::sweep(const SweepGrid &Grid) {
  std::vector<MachineConfig> Machines = Grid.Machines;
  if (Machines.empty())
    Machines.push_back(MachineConfig::quadAsymmetric());
  std::vector<SweepResult> Results;
  Results.reserve(Machines.size());
  for (const MachineConfig &MachineCfg : Machines)
    Results.push_back(sweep(lab(MachineCfg), Grid));
  return Results;
}

void ExperimentHarness::table(const Table &T) {
  std::fputs(T.render().c_str(), stdout);
  Json Columns = Json::array();
  for (const std::string &Column : T.columns())
    Columns.push(Column);
  Json Rows = Json::array();
  for (const std::vector<std::string> &Row : T.rows()) {
    Json Cells = Json::array();
    for (const std::string &Cell : Row)
      Cells.push(Cell);
    Rows.push(std::move(Cells));
  }
  Json Record = Json::object();
  Record["columns"] = std::move(Columns);
  Record["rows"] = std::move(Rows);
  Root["tables"].push(std::move(Record));
}

void ExperimentHarness::note(const std::string &Text) {
  std::printf("\n%s\n", Text.c_str());
  Root["notes"].push(Text);
}

int ExperimentHarness::finish() {
  const std::string Path = "BENCH_" + Name + ".json";
  obs::Span Write("harness.write_artifact");
  if (!writeJsonFile(Path, Root)) {
    std::perror(Path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", Path.c_str());
  return 0;
}
