//===- perfbench/bench.cpp - The repository benchmark ---------------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Times the simulator layer by layer, from outside: every number comes
// from bracketing calls to a layer's public functions. Three workloads
// (perfbench/README.md says why each exists):
//
//   paper_closed   the paper's Table 2 method: 19 closed batch replays
//   open_server    open Poisson arrivals, from light load to saturation
//   prepare_store  the static pipeline and the persistent suite store
//
//   pbt_perfbench --workload W --seed N --seconds S --trace 0|1
//                 [--smoke] [--work-dir DIR] [--commit ID]
//
// With --trace 0 the run measures end-to-end metrics untraced; with
// --trace 1 it measures per-layer metrics from traced passes, alternated
// with untraced ones to price the tracing. Either way it then checks the
// outputs (Reference-engine replays, store round trips). The last stdout
// line is {"correct", "attempted", "failed", "metrics"}; the line before
// it, "record: {...}", adds the provenance perfbench/compare.py needs.
// Exit status is 0 only when no operation failed.
//
//===----------------------------------------------------------------------===//

#include "Tracer.h"

#include "BenchCommon.h"
#include "analysis/PassManager.h"
#include "exp/CacheStore.h"
#include "metrics/Latency.h"
#include "support/Rng.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

using namespace pbt;
using namespace pbt::bench;
using perfbench::Span;
using perfbench::SpanRecord;
using perfbench::Tracer;

namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Options, report, helpers
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  bool Smoke = false;
  std::string WorkDir = ".bench_build/perfbench-work";
  std::string Commit = "unknown";
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), std::isfinite(Value) ? Value : 0,
                       std::move(Unit)});
  }
  /// Records one failed operation with its reason on stderr.
  void fail(const std::string &Why) {
    ++Failed;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", Why.c_str());
  }
};

/// Every per-layer metric, in output order, with its unit. A workload
/// reports 0 for a layer it does not exercise (perfbench/README.md lists
/// which workload moves which metric).
const std::pair<const char *, const char *> LayerMetrics[] = {
    {"sim.replay_s", "s"},
    {"sim.unit_max_s", "s"},
    {"sim.ns_per_kinst", "ns"},
    {"sim.ns_per_quantum", "ns"},
    {"sim.ginsts_per_s", "Ginst/s"},
    {"sim.idle_frac", "fraction"},
    {"sim.insts", "count"},
    {"sim.marks", "count"},
    {"sim.switches", "count"},
    {"sim.counter_waits", "count"},
    {"sim.overhead_frac", "fraction"},
    {"sim.jobs", "count"},
    {"support.pool_busy_frac", "fraction"},
    {"scenario.arrivals_s", "s"},
    {"metrics.s", "s"},
    {"metrics.paper_gap_pp", "pp"},
    {"workload.build_s", "s"},
    {"workload.isolated_s", "s"},
    {"analysis.prepare_s", "s"},
    {"analysis.pass.cost-model_s", "s"},
    {"analysis.pass.typing_s", "s"},
    {"analysis.pass.error-inject_s", "s"},
    {"analysis.pass.transitions_s", "s"},
    {"analysis.pass.instrument_s", "s"},
    {"analysis.pass.flatten_s", "s"},
    {"exp.suite_cold_s", "s"},
    {"exp.store_write_s", "s"},
    {"exp.store_bytes", "bytes"},
    {"exp.suite_warm_s", "s"},
    {"exp.store_hits", "count"},
    {"exp.prepared_programs", "count"},
    {"ledger.workload_frac", "fraction"},
    {"ledger.analysis_frac", "fraction"},
    {"ledger.exp_frac", "fraction"},
    {"ledger.sim_frac", "fraction"},
    {"ledger.scenario_frac", "fraction"},
    {"ledger.metrics_frac", "fraction"},
    {"ledger.support_frac", "fraction"},
    {"ledger.bench_frac", "fraction"},
    {"trace.coverage", "fraction"},
    {"trace.overhead_frac", "fraction"},
};

/// Per-layer values by metric name.
using LayerValues = std::map<std::string, double>;

double seconds(int64_t FromNs, int64_t ToNs) { return (ToNs - FromNs) * 1e-9; }

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return Usage.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

/// Seconds the pass manager has spent per pass, process-wide.
std::map<std::string, double> pipelineSeconds() {
  std::map<std::string, double> Out;
  for (const PassStats &P : cumulativePipelineStats().Passes)
    Out[P.Name] = P.Seconds;
  return Out;
}

double total(const std::map<std::string, double> &M) {
  double Sum = 0;
  for (const auto &KV : M)
    Sum += KV.second;
  return Sum;
}

/// Adds \p To - \p From, per pass, into \p Acc.
void addDelta(std::map<std::string, double> &Acc,
              const std::map<std::string, double> &From,
              const std::map<std::string, double> &To) {
  for (const auto &KV : To) {
    auto It = From.find(KV.first);
    Acc[KV.first] += KV.second - (It == From.end() ? 0 : It->second);
  }
}

/// Empty when \p A and \p B are bit-identical replays, else the first
/// field that differs. Covers every RunResult field and every completed
/// job, in completion order, doubles compared exactly.
std::string diffRuns(const RunResult &A, const RunResult &B) {
#define PBT_DIFF(Field)                                                        \
  if (!(A.Field == B.Field))                                                   \
    return #Field;
  PBT_DIFF(Horizon)
  PBT_DIFF(InstructionsRetired)
  PBT_DIFF(CompletedCount)
  PBT_DIFF(TotalSwitches)
  PBT_DIFF(TotalMarks)
  PBT_DIFF(CounterWaits)
  PBT_DIFF(TotalOverheadCycles)
  PBT_DIFF(TotalCycles)
  PBT_DIFF(CoreBusy)
  PBT_DIFF(InstsByType)
  PBT_DIFF(CyclesByType)
  PBT_DIFF(Completed.size())
#undef PBT_DIFF
  for (size_t I = 0; I < A.Completed.size(); ++I) {
    const CompletedJob &X = A.Completed[I], &Y = B.Completed[I];
    const ProcessStats &S = X.Stats, &T = Y.Stats;
    if (X.Bench != Y.Bench || X.Slot != Y.Slot || X.Arrival != Y.Arrival ||
        X.Admitted != Y.Admitted || X.Completion != Y.Completion ||
        X.Isolated != Y.Isolated || S.InstsRetired != T.InstsRetired ||
        S.BlocksExecuted != T.BlocksExecuted ||
        S.CyclesConsumed != T.CyclesConsumed ||
        S.CpuSeconds != T.CpuSeconds || S.CoreSwitches != T.CoreSwitches ||
        S.MarksFired != T.MarksFired ||
        S.MonitorSessions != T.MonitorSessions ||
        S.CounterWaits != T.CounterWaits ||
        S.OverheadCycles != T.OverheadCycles)
      return "Completed[" + std::to_string(I) + "]";
  }
  return "";
}

//===----------------------------------------------------------------------===//
// The measurement loop shared by every workload
//===----------------------------------------------------------------------===//

/// One workload: set-up, one measured pass, and the output check.
class Bench {
public:
  virtual ~Bench() = default;
  /// Work before the measured phase; the loop runs it several times.
  virtual void setup() = 0;
  /// Untimed clean-up before a pass.
  virtual void beforePass() {}
  /// One measured pass.
  virtual void pass(Report &R) = 0;
  /// Untimed bookkeeping after a pass (result comparisons, clean-up).
  virtual void afterPass(Report &R, bool Traced) = 0;
  /// The output check, after all timing.
  virtual void check(Report &R) = 0;
  /// Human-readable summary lines.
  virtual void summary() = 0;
  /// Per-layer metrics from the traced spans [Lo, Hi) of each traced
  /// pass and [SetupLo, SetupHi) of the traced set-up.
  virtual void layerMetrics(LayerValues &L,
                            const std::vector<SpanRecord> &Spans,
                            const std::vector<std::pair<size_t, size_t>> &Passes,
                            size_t SetupLo, size_t SetupHi) = 0;
  /// Set-up repetitions whose median is setup_s.
  virtual unsigned setupRepeats() const = 0;
  /// Whether wall_s is the fastest pass rather than the median one.
  virtual bool fastestPass() const { return false; }
};

/// Sum of the durations of spans named \p Name in [Lo, Hi).
double spanSeconds(const std::vector<SpanRecord> &Spans, size_t Lo, size_t Hi,
                   const char *Name) {
  double Sum = 0;
  for (size_t I = Lo; I < Hi; ++I)
    if (Spans[I].Name == Name)
      Sum += Spans[I].seconds();
  return Sum;
}

/// The set-up's preparation metrics: build, t_i, prepareSuite and its
/// per-pass split (\p Passes, seconds per pipeline pass).
void addPrepareMetrics(LayerValues &L, const std::vector<SpanRecord> &Spans,
                       size_t Lo, size_t Hi,
                       const std::map<std::string, double> &Passes) {
  L["workload.build_s"] = spanSeconds(Spans, Lo, Hi, "workload.buildSuite");
  L["workload.isolated_s"] =
      spanSeconds(Spans, Lo, Hi, "workload.isolatedRuntimes");
  L["analysis.prepare_s"] =
      spanSeconds(Spans, Lo, Hi, "analysis.prepareSuite");
  for (const auto &KV : Passes)
    L["analysis.pass." + KV.first + "_s"] = KV.second;
}

/// One untimed, untraced pass: it fills caches and finishes lazy
/// set-up before timing starts, and lets a workload order its work.
void warmUp(Bench &B, Report &R) {
  B.beforePass();
  B.pass(R);
  B.afterPass(R, false);
}

/// EXPERIMENT: fixed work on Threads plain threads, no library code.
double calibrate(unsigned Threads) {
  static std::vector<std::vector<uint32_t>> Bufs;
  if (Bufs.size() != Threads) {
    Bufs.assign(Threads, std::vector<uint32_t>(1u << 19));
    for (auto &B : Bufs)
      for (size_t I = 0; I < B.size(); ++I)
        B[I] = static_cast<uint32_t>(I * 2654435761u);
  }
  std::vector<uint64_t> Sink(Threads);
  int64_t Start = Tracer::global().nowNs();
  std::vector<std::thread> Ts;
  for (unsigned K = 0; K < Threads; ++K)
    Ts.emplace_back([&, K] {
      std::vector<uint32_t> &B = Bufs[K];
      uint64_t X = K + 1;
      uint32_t Idx = 0;
      for (int I = 0; I < 4000000; ++I) {
        X ^= X << 13; X ^= X >> 7; X ^= X << 17;
        Idx = (Idx + B[Idx] + static_cast<uint32_t>(X)) & (B.size() - 1);
        if (X & 1) B[Idx] += static_cast<uint32_t>(X >> 32);
        else X += B[(Idx * 7) & (B.size() - 1)];
      }
      Sink[K] = X;
    });
  for (auto &T : Ts)
    T.join();
  double S = seconds(Start, Tracer::global().nowNs());
  return S + (Sink[0] == 42 ? 1e-12 : 0);
}

/// Untraced: set-up several times, then passes for the run length;
/// reports the end-to-end metrics.
void measureEndToEnd(Bench &B, const Options &O, Report &R) {
  Tracer &T = Tracer::global();
  std::vector<double> Setups;
  for (unsigned I = 0; I < B.setupRepeats(); ++I) {
    int64_t Start = T.nowNs();
    B.setup();
    Setups.push_back(seconds(Start, T.nowNs()));
  }
  warmUp(B, R);
  std::vector<double> Walls, Calib;
  unsigned MinPasses = O.Smoke ? 1 : 3;
  int64_t RunStart = T.nowNs();
  while (Walls.size() < MinPasses || seconds(RunStart, T.nowNs()) < O.Seconds) {
    B.beforePass();
    Calib.push_back(calibrate(ThreadPool::global().size()));
    int64_t Start = T.nowNs();
    B.pass(R);
    Walls.push_back(seconds(Start, T.nowNs()));
    B.afterPass(R, false);
  }
  std::printf("EXP calib:");
  for (double C : Calib)
    std::printf(" %.4f", C);
  std::printf("\nEXP setups:");
  for (double C : Setups)
    std::printf(" %.4f", C);
  std::printf("\n");
  B.check(R);
  B.summary();
  double Wall = B.fastestPass() ? *std::min_element(Walls.begin(), Walls.end())
                                : median(Walls);
  std::printf("passes=%zu wall_s=%.4f (%s):", Walls.size(), Wall,
              B.fastestPass() ? "fastest" : "median");
  for (double W : Walls)
    std::printf(" %.4f", W);
  std::printf("\n");
  R.add("wall_s", Wall, "s");
  R.add("setup_s", median(Setups), "s");
  R.add("peak_rss_mb", peakRssMb(), "MB");
}

/// Traced: one traced set-up, then untraced and traced passes in turn,
/// then the untraced output check; reports per-layer metrics, the layer
/// ledger and the tracing overhead, and writes the spans as a Chrome
/// trace.
void measureLayers(Bench &B, const Options &O, Report &R) {
  Tracer &T = Tracer::global();
  T.setEnabled(true);
  size_t SetupLo = T.size();
  {
    Span S("bench.setup", "bench");
    B.setup();
  }
  size_t SetupHi = T.size();
  T.setEnabled(false);
  warmUp(B, R);
  std::vector<std::pair<size_t, size_t>> Passes;
  std::vector<double> Traced, Untraced;
  int64_t RunStart = T.nowNs();
  while (Traced.empty() || seconds(RunStart, T.nowNs()) < O.Seconds) {
    for (bool On : {false, true}) {
      B.beforePass();
      T.setEnabled(On);
      size_t Lo = T.size();
      int64_t Start = T.nowNs();
      {
        Span P("bench.pass", "bench");
        B.pass(R);
      }
      (On ? Traced : Untraced).push_back(seconds(Start, T.nowNs()));
      if (On)
        Passes.push_back({Lo, T.size()});
      T.setEnabled(false);
      B.afterPass(R, On);
    }
  }
  // The check replays on another engine; it stays out of the ledger.
  B.check(R);
  B.summary();

  const std::vector<SpanRecord> &Spans = T.spans();
  LayerValues Values;
  B.layerMetrics(Values, Spans, Passes, SetupLo, SetupHi);

  perfbench::Ledger Ledger = perfbench::computeLedger(Spans);
  double Covered = 0;
  std::printf("ledger over %.3f s traced (setup + %zu traced passes):\n",
              Ledger.Wall, Passes.size());
  for (const char *Layer : {"workload", "analysis", "exp", "sim", "scenario",
                            "metrics", "support", "bench"}) {
    double Self = Ledger.Self.count(Layer) ? Ledger.Self.at(Layer) : 0;
    if (std::string(Layer) != "bench")
      Covered += Self;
    std::printf("  %-9s %9.4f s  %6.2f%%\n", Layer, Self,
                100 * ratio(Self, Ledger.Wall));
    Values[std::string("ledger.") + Layer + "_frac"] = ratio(Self, Ledger.Wall);
  }
  double Coverage = ratio(Covered, Ledger.Wall);
  double Overhead = ratio(median(Traced), median(Untraced)) - 1;
  std::printf("layer coverage %.2f%% of traced wall; tracing overhead "
              "%+.3f%% (median traced %.4f s vs untraced %.4f s)\n",
              100 * Coverage, 100 * Overhead, median(Traced),
              median(Untraced));
  if (Coverage < 0.95)
    R.fail("layer self-times cover " + std::to_string(100 * Coverage) +
           "% of traced wall time, under 95%");
  Values["trace.coverage"] = Coverage;
  Values["trace.overhead_frac"] = Overhead;
  for (const auto &M : LayerMetrics) {
    auto It = Values.find(M.first);
    R.add(M.first, It == Values.end() ? 0 : It->second, M.second);
    if (It != Values.end())
      Values.erase(It);
  }
  if (!Values.empty())
    throw std::logic_error("per-layer metric missing from the table: " +
                           Values.begin()->first);

  std::string Path = O.WorkDir + "/TRACE_" + O.Workload + ".json";
  if (!T.writeChromeTrace(Path))
    R.fail("cannot write trace " + Path);
  else
    std::printf("trace: %s (%zu spans)\n", Path.c_str(), Spans.size());
}

//===----------------------------------------------------------------------===//
// paper_closed and open_server: replay units fanned out over the pool
//===----------------------------------------------------------------------===//

constexpr double PaperAvgTime = 35.95;
constexpr double PaperMaxFlow = 12.04;
constexpr double PaperMaxStretch = 20.41;

struct ReplayUnit {
  std::string Label;
  size_t Suite = 0; ///< Index into ReplayBench::Suites.
  SchedulerSpec Sched;
  ScenarioSpec Scenario;
};

class ReplayBench final : public Bench {
public:
  ReplayBench(const Options &O, bool Closed) : O(O), Closed(Closed) {
    // Delta 0.15 is the tuner setting of the paper's best Table 2 row.
    if (Closed) {
      Horizon = O.Smoke ? 10 : 800;
      Techs.push_back(TechniqueSpec::baseline());
      for (const TechniqueSpec &Tech : paperTechniques(0.15))
        Techs.push_back(Tech);
      for (size_t I = 0; I < Techs.size(); ++I)
        Units.push_back({Techs[I].label(), I, SchedulerSpec(), ScenarioSpec()});
    } else {
      // The quad serves about 0.43 jobs/s, so these rates run from
      // light load to saturation.
      Horizon = O.Smoke ? 40 : 2000;
      Techs = {TechniqueSpec::baseline(), loop45(0.15)};
      for (double Rate : {0.1, 0.25, 0.4, 0.6})
        for (const SchedulerSpec &Sched :
             {SchedulerSpec::oblivious(), SchedulerSpec::ipcSampling()}) {
          ScenarioSpec Scen =
              ScenarioSpec::poisson(Rate, O.Seed).withMaxInFlight(18);
          Units.push_back({Scen.label() + "/" + Sched.label(), 1, Sched, Scen});
        }
    }
    Order = allUnits();
    UnitSeconds.assign(Units.size(), 0);
  }

  unsigned setupRepeats() const override { return O.Smoke ? 1 : 7; }

  void setup() override {
    {
      Span S("workload.buildSuite", "workload");
      Programs = buildSuite();
    }
    std::map<std::string, double> Before = pipelineSeconds();
    Suites.clear();
    for (const TechniqueSpec &Tech : Techs) {
      Span S("analysis.prepareSuite", "analysis");
      Suites.push_back(
          prepareSuite(Programs, Machine, Tech, exp::DefaultTypingSeed));
    }
    PassSeconds.clear();
    addDelta(PassSeconds, Before, pipelineSeconds());
    {
      // t_i is defined on the uninstrumented baseline suite (index 0).
      Span S("workload.isolatedRuntimes", "workload");
      Iso = isolatedRuntimes(Suites[0], Machine, Sim);
    }
    W = Workload::random(18, 512, static_cast<uint32_t>(Programs.size()),
                         O.Seed);
  }

  void pass(Report &R) override {
    std::vector<RunResult> Runs = replayAll(Sim.Engine, Order, R);
    Fair.assign(Runs.size(), FairnessMetrics());
    Lat.assign(Runs.size(), LatencyMetrics());
    Offered.assign(Runs.size(), 0);
    for (size_t I = 0; I < Runs.size(); ++I) {
      if (!Units[I].Scenario.isBatch()) {
        Span S("scenario.scenarioArrivals", "scenario");
        Offered[I] = scenarioArrivals(Units[I].Scenario,
                                      static_cast<uint32_t>(Programs.size()),
                                      Horizon)
                         .size();
      }
      {
        Span S("metrics.computeFairness", "metrics");
        Fair[I] = computeFairness(Runs[I].Completed);
      }
      Span S("metrics.computeLatency", "metrics");
      Lat[I] = computeLatency(Runs[I], Machine);
    }
    Last = std::move(Runs);
  }

  void afterPass(Report &R, bool) override {
    tableTwo();
    // Every pass replays the same inputs, so every pass must reproduce
    // the first one bit for bit. After the first (warm-up) pass, units
    // are claimed slowest first, so a pass's time follows its total work
    // rather than which thread happened to draw the last long unit.
    if (First.empty()) {
      First = Last;
      std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
        return UnitSeconds[A] > UnitSeconds[B];
      });
      return;
    }
    for (size_t I = 0; I < Units.size(); ++I) {
      std::string Diff = diffRuns(First[I], Last[I]);
      if (!Diff.empty())
        R.fail(Units[I].Label + ": pass differs from the first in " + Diff);
    }
  }

  void check(Report &R) override {
    // A seed-chosen sample of units, replayed on the Reference
    // interpreter, must match the Flat engine's results bit for bit.
    std::vector<size_t> Sample = allUnits();
    Rng Gen(O.Seed ^ 0x5EEDC4ECULL);
    for (size_t I = Sample.size(); I > 1; --I)
      std::swap(Sample[I - 1], Sample[Gen.nextBelow(I)]);
    Sample.resize(std::min<size_t>(Sample.size(), O.Smoke ? 1 : 2));
    std::vector<RunResult> Ref = replayAll(ExecEngine::Reference, Sample, R);
    for (size_t U : Sample) {
      ++R.Attempted;
      std::string Diff = diffRuns(Ref[U], Last[U]);
      if (!Diff.empty())
        R.fail(Units[U].Label + ": Reference engine differs in " + Diff);
      else
        std::printf("reference check: %s identical (%zu jobs)\n",
                    Units[U].Label.c_str(), Ref[U].Completed.size());
    }
  }

  void summary() override {
    if (Closed) {
      std::printf("Table 2, Loop[45] vs baseline: avg time %+.2f%%  "
                  "max-flow %+.2f%%  max-stretch %+.2f%%  (paper %+.2f / "
                  "%+.2f / %+.2f)  paper_gap_pp=%.2f\n",
                  AvgTime, MaxFlow, MaxStretch, PaperAvgTime, PaperMaxFlow,
                  PaperMaxStretch, paperGap());
      return;
    }
    std::printf("%-34s %8s %8s %9s %9s %7s\n", "unit", "offered", "done",
                "p50 turn", "p95 turn", "idle");
    for (size_t I = 0; I < Units.size(); ++I)
      std::printf("%-34s %8zu %8zu %9.2f %9.2f %7.3f\n",
                  Units[I].Label.c_str(), Offered[I], Lat[I].Jobs,
                  Lat[I].P50Turnaround, Lat[I].P95Turnaround,
                  idleFraction(Last[I]));
  }

  void layerMetrics(LayerValues &L, const std::vector<SpanRecord> &Spans,
                    const std::vector<std::pair<size_t, size_t>> &Passes,
                    size_t SetupLo, size_t SetupHi) override {
    double N = static_cast<double>(Passes.size());
    double UnitS = 0, UnitMax = 0, FanS = 0, FanThreadS = 0, MetricsS = 0,
           ArrivalsS = 0;
    for (const auto &P : Passes) {
      double PassMax = 0;
      for (size_t I = P.first; I < P.second; ++I) {
        const SpanRecord &S = Spans[I];
        if (S.Name == "sim.runWorkload") {
          UnitS += S.seconds();
          PassMax = std::max(PassMax, S.seconds());
        } else if (S.Name == "support.parallelFor") {
          FanS += S.seconds();
          FanThreadS += S.seconds() * S.FanOut;
        } else if (S.Layer == "metrics") {
          MetricsS += S.seconds();
        } else if (S.Name == "scenario.scenarioArrivals") {
          ArrivalsS += S.seconds();
        }
      }
      UnitMax += PassMax;
    }
    double Insts = 0, Quanta = 0, Marks = 0, Switches = 0, Waits = 0,
           Jobs = 0, Overhead = 0, Cycles = 0, Idle = 0;
    for (const RunResult &Run : Last) {
      Insts += static_cast<double>(Run.InstructionsRetired);
      Quanta += std::round(Run.Horizon / Sim.Timeslice);
      Marks += static_cast<double>(Run.TotalMarks);
      Switches += static_cast<double>(Run.TotalSwitches);
      Waits += static_cast<double>(Run.CounterWaits);
      Jobs += static_cast<double>(Run.CompletedCount);
      Overhead += Run.TotalOverheadCycles;
      Cycles += Run.TotalCycles;
      Idle += idleFraction(Run);
    }
    L["sim.replay_s"] = UnitS / N;
    L["sim.unit_max_s"] = UnitMax / N;
    L["sim.ns_per_kinst"] = ratio(UnitS * 1e9, Insts * N / 1000);
    L["sim.ns_per_quantum"] = ratio(UnitS * 1e9, Quanta * N);
    L["sim.ginsts_per_s"] = ratio(Insts * N / 1e9, FanS);
    L["sim.idle_frac"] = Idle / static_cast<double>(Last.size());
    L["sim.insts"] = Insts;
    L["sim.marks"] = Marks;
    L["sim.switches"] = Switches;
    L["sim.counter_waits"] = Waits;
    L["sim.overhead_frac"] = ratio(Overhead, Cycles);
    L["sim.jobs"] = Jobs;
    L["support.pool_busy_frac"] = ratio(UnitS, FanThreadS);
    L["scenario.arrivals_s"] = ArrivalsS / N;
    L["metrics.s"] = MetricsS / N;
    if (Closed)
      L["metrics.paper_gap_pp"] = paperGap();
    addPrepareMetrics(L, Spans, SetupLo, SetupHi, PassSeconds);
  }

private:
  std::vector<size_t> allUnits() const {
    std::vector<size_t> All(Units.size());
    for (size_t I = 0; I < All.size(); ++I)
      All[I] = I;
    return All;
  }

  /// Replays units \p Which on \p Engine, one pool task per unit in
  /// that order, each timed by its own span. Results are indexed by unit.
  std::vector<RunResult> replayAll(ExecEngine Engine,
                                   const std::vector<size_t> &Which,
                                   Report &R) {
    SimConfig UnitSim = Sim;
    UnitSim.Engine = Engine;
    std::vector<RunResult> Runs(Units.size());
    std::vector<std::string> Errors(Units.size());
    ThreadPool &Pool = ThreadPool::global();
    {
      Span F("support.parallelFor", "support", Span::current(), -1,
             Pool.size());
      int32_t Parent = F.id();
      Pool.parallelFor(Which.size(), [&](size_t K) {
        size_t I = Which[K];
        const ReplayUnit &U = Units[I];
        Span S("sim.runWorkload", "sim", Parent, static_cast<int32_t>(I));
        int64_t Start = Tracer::global().nowNs();
        try {
          Runs[I] = runWorkload(Suites[U.Suite], W, Machine, UnitSim, Horizon,
                                Iso, U.Sched, U.Scenario);
        } catch (const std::exception &E) {
          Errors[I] = E.what();
        }
        UnitSeconds[I] = seconds(Start, Tracer::global().nowNs());
      });
    }
    for (size_t I : Which) {
      ++R.Attempted;
      if (!Errors[I].empty())
        R.fail(Units[I].Label + ": " + Errors[I]);
    }
    return Runs;
  }

  static double idleFraction(const RunResult &Run) {
    if (Run.CoreBusy.empty())
      return 0;
    double Busy = 0;
    for (double B : Run.CoreBusy)
      Busy += B;
    return 1 - Busy / static_cast<double>(Run.CoreBusy.size());
  }

  double paperGap() const {
    return std::fabs(AvgTime - PaperAvgTime) +
           std::fabs(MaxFlow - PaperMaxFlow) +
           std::fabs(MaxStretch - PaperMaxStretch);
  }

  /// Loop[45]'s Table 2 deltas over the baseline, from the last pass.
  void tableTwo() {
    if (!Closed)
      return;
    for (size_t I = 0; I < Units.size(); ++I)
      if (Units[I].Label == "Loop[45]") {
        AvgTime = percentDecrease(Fair[0].AvgProcessTime, Fair[I].AvgProcessTime);
        MaxFlow = percentDecrease(Fair[0].MaxFlow, Fair[I].MaxFlow);
        MaxStretch = percentDecrease(Fair[0].MaxStretch, Fair[I].MaxStretch);
      }
  }

  const Options &O;
  bool Closed;
  double Horizon = 0;
  MachineConfig Machine = MachineConfig::quadAsymmetric();
  SimConfig Sim;
  std::vector<TechniqueSpec> Techs;
  std::vector<ReplayUnit> Units;
  /// Claim order of the units in a pass, and each unit's last host time.
  std::vector<size_t> Order;
  std::vector<double> UnitSeconds;
  std::vector<Program> Programs;
  std::vector<PreparedSuite> Suites;
  std::vector<double> Iso;
  Workload W;
  std::map<std::string, double> PassSeconds;
  std::vector<RunResult> First, Last;
  std::vector<FairnessMetrics> Fair;
  std::vector<LatencyMetrics> Lat;
  std::vector<size_t> Offered;
  double AvgTime = 0, MaxFlow = 0, MaxStretch = 0;
};

//===----------------------------------------------------------------------===//
// prepare_store: direct pipeline, cold store, warm store
//===----------------------------------------------------------------------===//

class StoreBench final : public Bench {
public:
  explicit StoreBench(const Options &O) : O(O) {
    Techs.push_back(TechniqueSpec::baseline());
    for (TechniqueSpec Tech : paperTechniques(0.15)) {
      Tech.UseStaticTyping = true;
      Techs.push_back(Tech);
    }
  }

  unsigned setupRepeats() const override { return O.Smoke ? 1 : 21; }

  // A pass writes about 80 MB with fsync. Disk stalls only ever add
  // time and last several passes, so the fastest pass is the steady
  // estimate of the pass's cost; the median moves with the stalls.
  bool fastestPass() const override { return true; }

  void setup() override {
    Span S("workload.buildSuite", "workload");
    Programs = buildSuite();
  }

  void beforePass() override {
    // The previous pass's suites and store go before the timer starts.
    P = std::make_unique<PassState>();
    P->Dir = O.WorkDir + "/store";
    fs::remove_all(P->Dir);
  }

  void pass(Report &R) override {
    Tracer &T = Tracer::global();
    int64_t Start = T.nowNs();
    {
      Span S("bench.direct", "bench");
      std::map<std::string, double> Before = pipelineSeconds();
      for (const TechniqueSpec &Tech : Techs) {
        Span A("analysis.prepareSuite", "analysis");
        P->Direct.push_back(prepareSuite(Programs, Machine, Tech, O.Seed));
      }
      addDelta(P->PassSeconds, Before, pipelineSeconds());
    }
    int64_t DirectEnd = T.nowNs();
    P->Cold = labPass("bench.cold", R);
    int64_t ColdEnd = T.nowNs();
    P->Warm = labPass("bench.warm", R);
    int64_t WarmEnd = T.nowNs();
    P->DirectS = seconds(Start, DirectEnd);
    P->ColdS = seconds(DirectEnd, ColdEnd);
    P->WarmS = seconds(ColdEnd, WarmEnd);
    R.Attempted += 3 * Techs.size();
  }

  void afterPass(Report &R, bool Traced) override {
    size_t Expected = Techs.size();
    exp::SuiteCache &Cold = P->Cold->cache(), &Warm = P->Warm->cache();
    if (Cold.prepared() != Expected)
      R.fail("cold store pass prepared " + std::to_string(Cold.prepared()) +
             " suites, expected " + std::to_string(Expected));
    if (Warm.prepared() != 0 || Warm.storeHits() != Expected)
      R.fail("warm store pass: " + std::to_string(Warm.storeHits()) +
             " store hits and " + std::to_string(Warm.prepared()) +
             " preparations, expected " + std::to_string(Expected) +
             " and 0");
    P->Bytes = 0;
    for (const fs::directory_entry &E :
         fs::recursive_directory_iterator(P->Dir))
      if (E.is_regular_file())
        P->Bytes += static_cast<double>(E.file_size());
    P->Hits = static_cast<double>(Warm.storeHits());
    P->PreparedPrograms = static_cast<double>(Cold.preparedPrograms());
    if (Traced) {
      ++TracedPasses;
      Sum.DirectS += P->DirectS;
      Sum.ColdS += P->ColdS;
      Sum.WarmS += P->WarmS;
      addDelta(Sum.PassSeconds, {}, P->PassSeconds);
    }
  }

  void check(Report &R) override {
    // Every suite verifies, and the warm store hands back the cold
    // pass's flat images byte for byte (and the direct pipeline's).
    for (size_t K = 0; K < Techs.size(); ++K) {
      const PreparedSuite &Direct = P->Direct[K];
      PreparedSuite Cold = P->Cold->suite(Techs[K], O.Seed);
      PreparedSuite Warm = P->Warm->suite(Techs[K], O.Seed);
      std::string Label = Techs[K].label();
      for (const PreparedSuite *S :
           std::initializer_list<const PreparedSuite *>{&Direct, &Cold,
                                                        &Warm}) {
        std::string Error;
        ++R.Attempted;
        if (!verifyPrepared(*S, Machine, &Error))
          R.fail(Label + ": verifyPrepared: " + Error);
      }
      ++R.Attempted;
      for (size_t I = 0; I < Cold.Flats.size(); ++I) {
        std::string C = bytes(*Cold.Flats[I]);
        if (C != bytes(*Warm.Flats[I]) || C != bytes(*Direct.Flats[I])) {
          R.fail(Label + ": flat image of " + Cold.Names[I] +
                 " differs between direct, cold and warm suites");
          break;
        }
      }
    }
    std::printf("store check: %zu suites verified three ways\n",
                Techs.size());
    fs::remove_all(P->Dir);
  }

  void summary() override {
    std::printf("last pass: direct %.4f s, cold store %.4f s (write %.4f s, "
                "%.0f bytes), warm store %.4f s, %.0f store hits\n",
                P->DirectS, P->ColdS, P->ColdS - P->DirectS, P->Bytes,
                P->WarmS, P->Hits);
  }

  void layerMetrics(LayerValues &L, const std::vector<SpanRecord> &Spans,
                    const std::vector<std::pair<size_t, size_t>> &,
                    size_t SetupLo, size_t SetupHi) override {
    // Preparation happens inside the measured pass here: the direct
    // prepareSuite calls, averaged over the traced passes.
    double N = TracedPasses;
    std::map<std::string, double> PerPass;
    for (const auto &KV : Sum.PassSeconds)
      PerPass[KV.first] = KV.second / N;
    addPrepareMetrics(L, Spans, SetupLo, SetupHi, PerPass);
    L["analysis.prepare_s"] = Sum.DirectS / N;
    L["exp.suite_cold_s"] = Sum.ColdS / N;
    L["exp.store_write_s"] = (Sum.ColdS - Sum.DirectS) / N;
    L["exp.store_bytes"] = P->Bytes;
    L["exp.suite_warm_s"] = Sum.WarmS / N;
    L["exp.store_hits"] = P->Hits;
    L["exp.prepared_programs"] = P->PreparedPrograms;
  }

private:
  struct PassState {
    std::string Dir;
    std::vector<PreparedSuite> Direct;
    std::unique_ptr<exp::Lab> Cold, Warm;
    std::map<std::string, double> PassSeconds;
    double DirectS = 0, ColdS = 0, WarmS = 0, Bytes = 0, Hits = 0,
           PreparedPrograms = 0;
  };

  /// A fresh Lab on the store directory, asked for every suite.
  std::unique_ptr<exp::Lab> labPass(const char *Phase, Report &R) {
    Span S(Phase, "bench");
    std::unique_ptr<exp::Lab> L;
    {
      Span C("exp.Lab", "exp");
      L = std::make_unique<exp::Lab>(Programs, Machine);
      L->cache().setStore(std::make_shared<exp::CacheStore>(P->Dir));
    }
    bool Traced = Tracer::global().enabled();
    for (const TechniqueSpec &Tech : Techs) {
      Span E("exp.Lab.suite", "exp");
      double Before = Traced ? total(pipelineSeconds()) : 0;
      try {
        L->suite(Tech, O.Seed);
      } catch (const std::exception &Ex) {
        R.fail(Tech.label() + ": Lab::suite: " + Ex.what());
      }
      if (Traced)
        E.embed("analysis", total(pipelineSeconds()) - Before);
    }
    return L;
  }

  static std::string bytes(const FlatImage &F) {
    BinaryWriter W;
    F.serialize(W);
    return W.buffer();
  }

  struct Totals {
    double DirectS = 0, ColdS = 0, WarmS = 0;
    std::map<std::string, double> PassSeconds;
  };

  const Options &O;
  MachineConfig Machine = MachineConfig::quadAsymmetric();
  /// The baseline and the 18 variants, typed by static k-means with
  /// the run's seed as typing seed.
  std::vector<TechniqueSpec> Techs;
  std::vector<Program> Programs;
  std::unique_ptr<PassState> P;
  Totals Sum;
  unsigned TracedPasses = 0;
};

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

std::string metricsJson(const Report &R) {
  std::string Out = "{";
  char Buf[64];
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", R.Metrics[I].Value);
    Out += (I ? ", " : "") + jsonString(R.Metrics[I].Name) +
           ": {\"value\": " + Buf +
           ", \"unit\": " + jsonString(R.Metrics[I].Unit) + "}";
  }
  return Out + "}";
}

std::string compilerId() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string hostName() {
  char Buf[256] = {0};
  if (gethostname(Buf, sizeof(Buf) - 1) != 0)
    return "unknown";
  return Buf;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--smoke") {
      O.Smoke = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      O.Workload = Value;
    } else if (Arg == "--seed") {
      O.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = *End == 0 && !Value.empty() && Value[0] != '-';
    } else if (Arg == "--seconds") {
      O.Seconds = std::strtod(Value.c_str(), &End);
      HaveSeconds = *End == 0 && O.Seconds > 0 && O.Seconds <= 3600;
    } else if (Arg == "--trace") {
      O.Trace = Value == "1";
      HaveTrace = Value == "0" || Value == "1";
    } else if (Arg == "--work-dir") {
      O.WorkDir = Value;
    } else if (Arg == "--commit") {
      O.Commit = Value;
    } else {
      return false;
    }
  }
  return HaveSeed && HaveSeconds && HaveTrace &&
         (O.Workload == "paper_closed" || O.Workload == "open_server" ||
          O.Workload == "prepare_store");
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: pbt_perfbench --workload "
                 "paper_closed|open_server|prepare_store --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--work-dir DIR] "
                 "[--commit ID]\n");
    return 2;
  }
  // The run measures the library's defaults: no persistent store, fault
  // injection, IR re-verification, simulated-time tracing or scaling
  // from the caller's environment.
  for (const char *Var : {"PBT_CACHE_DIR", "PBT_FAULTS", "PBT_VERIFY_IR",
                          "PBT_TRACE", "PBT_BENCH_SCALE", "PBT_SCALE"})
    unsetenv(Var);
  unsigned Nproc = std::max(1u, std::thread::hardware_concurrency());
  if (!std::getenv("PBT_THREADS"))
    setenv("PBT_THREADS", std::to_string(std::min(4u, Nproc)).c_str(), 1);
  unsigned Threads = ThreadPool::global().size();

  Report R;
  try {
    fs::create_directories(O.WorkDir);
    std::unique_ptr<Bench> B;
    if (O.Workload == "prepare_store")
      B = std::make_unique<StoreBench>(O);
    else
      B = std::make_unique<ReplayBench>(O, O.Workload == "paper_closed");
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d smoke=%d "
                "threads=%u nproc=%u\n",
                O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
                O.Seconds, O.Trace, O.Smoke, Threads, Nproc);
    std::fflush(stdout);
    if (O.Trace)
      measureLayers(*B, O, R);
    else
      measureEndToEnd(*B, O, R);
  } catch (const std::exception &E) {
    R.fail(std::string("uncaught exception: ") + E.what());
  }
  if (R.Attempted == 0)
    R.Attempted = 1;
  std::printf("failed_frac=%.6g (%llu of %llu operations)\n",
              ratio(static_cast<double>(R.Failed),
                    static_cast<double>(R.Attempted)),
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));

  bool Correct = R.Failed == 0;
  std::string Counts = "\"correct\": " + std::string(Correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(R.Attempted) +
                       ", \"failed\": " + std::to_string(R.Failed);
  std::printf("record: {\"schema\": \"pbt-perfbench-v1\", \"workload\": %s, "
              "\"seed\": %llu, \"seconds\": %g, \"trace\": %d, \"smoke\": %s, "
              "\"provenance\": {\"host\": %s, \"nproc\": %u, \"compiler\": %s, "
              "\"build_type\": %s, \"pbt_threads\": %u}, \"commit\": %s, "
              "%s, \"metrics\": %s}\n",
              jsonString(O.Workload).c_str(),
              static_cast<unsigned long long>(O.Seed), O.Seconds, O.Trace,
              O.Smoke ? "true" : "false", jsonString(hostName()).c_str(),
              Nproc, jsonString(compilerId()).c_str(),
              jsonString(PBT_PERFBENCH_BUILD_TYPE).c_str(), Threads,
              jsonString(O.Commit).c_str(), Counts.c_str(),
              metricsJson(R).c_str());
  std::printf("{%s, \"metrics\": %s}\n", Counts.c_str(), metricsJson(R).c_str());
  return Correct ? 0 : 1;
}
