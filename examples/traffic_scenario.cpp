//===- examples/traffic_scenario.cpp - Open-system job streams ------------===//
//
// Demonstrates the traffic-scenario layer: the same prepared suite
// replayed as the classic batch-at-zero closed system and as an open
// server fed by a seeded Poisson job stream, with latency metrics
// (turnaround percentiles, slowdown vs the isolated baseline, jobs per
// megacycle) side by side for two OS scheduling policies.
//
// Everything is deterministic: the arrival schedule, the benchmark
// mix, and every process's branch outcomes derive from fixed seeds, so
// rerunning this example reproduces the table bit for bit.
//
//===----------------------------------------------------------------------===//

#include "metrics/Latency.h"
#include "scenario/Scenario.h"
#include "support/Table.h"
#include "workload/Benchmarks.h"
#include "workload/Runner.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace pbt;

int main() {
  std::printf("== traffic scenarios: batch vs Poisson job streams ==\n\n");

  // A trimmed three-benchmark suite keeps the example fast.
  std::vector<Program> Programs;
  for (const char *Name : {"164.gzip", "179.art", "473.astar"})
    for (const BenchSpec &Spec : specSuite())
      if (Spec.Name == Name)
        Programs.push_back(buildBenchmark(Spec));

  MachineConfig MC = MachineConfig::quadAsymmetric();
  SimConfig Sim;
  PreparedSuite Suite =
      prepareSuite(Programs, MC, TechniqueSpec::baseline());
  std::vector<double> Isolated = isolatedRuntimes(Suite, MC, Sim);

  // The closed system the paper measures (4 slots, refilled on exit)
  // and two open streams: a comfortable load and a saturating one,
  // capped at 60 jobs so the example stays quick.
  Workload W = Workload::random(/*NumSlots=*/4, /*JobsPerSlot=*/64,
                                static_cast<uint32_t>(Programs.size()),
                                /*Seed=*/5);
  std::vector<ScenarioSpec> Scenarios = {
      ScenarioSpec::batch(),
      ScenarioSpec::poisson(1.0).withMaxJobs(60),
      ScenarioSpec::poisson(4.0).withMaxJobs(60),
  };
  std::vector<SchedulerSpec> Policies = {SchedulerSpec::oblivious(),
                                         SchedulerSpec::fastestFirst()};

  Table T({"scenario", "scheduler", "completed", "p50 turn", "p95 turn",
           "mean slowdown", "jobs/Mcycle"});
  for (const ScenarioSpec &Scenario : Scenarios)
    for (const SchedulerSpec &Sched : Policies) {
      RunResult Run = runWorkload(Suite, W, MC, Sim, /*Horizon=*/60,
                                  Isolated, Sched, Scenario);
      LatencyMetrics L = computeLatency(Run, MC);
      T.addRow({Scenario.label(), Sched.label(),
                Table::fmtInt(static_cast<long long>(L.Jobs)),
                Table::fmt(L.P50Turnaround, 3),
                Table::fmt(L.P95Turnaround, 3),
                Table::fmt(L.MeanSlowdown, 2),
                Table::fmt(L.JobsPerMegacycle, 4)});
    }
  std::fputs(T.render().c_str(), stdout);

  std::printf("\nthe batch rows replay the classic closed system "
              "(constant multiprogramming);\nthe poisson rows feed the "
              "same images as an open server — at rate 4 the\nmachine "
              "saturates and the tail turnaround stretches, which is "
              "what the\nsweep_arrival_rates experiment charts across "
              "the whole rate grid.\n");
  return 0;
}
