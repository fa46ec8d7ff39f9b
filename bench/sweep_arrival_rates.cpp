//===- bench/sweep_arrival_rates.cpp - Traffic-rate x scheduler sweep -----===//
//
// The open-system extension of the paper's evaluation: instead of a
// fixed multiprogrammed mix present at cycle zero, jobs arrive as a
// seeded pseudo-Poisson stream and the machine is measured as a server
// — turnaround percentiles, slowdown vs the oblivious isolated
// baseline, and jobs per megacycle of machine capacity — while the
// arrival rate sweeps the machine from light load into saturation,
// crossed with the OS scheduling policies of Sec. V.
//
// Because ScenarioSpec (like SchedulerSpec) is orthogonal to suite
// preparation, the whole rate x policy grid needs exactly one prepared
// suite; a warm persistent cache replays everything with zero
// static-pipeline runs — the invariant CI asserts over this experiment.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Registry.h"

#include "metrics/Latency.h"

using namespace pbt;
using namespace pbt::bench;

PBT_EXPERIMENT(sweep_arrival_rates) {
  ExperimentHarness H("sweep_arrival_rates",
                      "Traffic sweep: Poisson arrival rate x OS scheduler "
                      "(open-system tail latency)",
                      "CGO'11 Sec. IV-A2 methodology, open-system "
                      "extension");

  SweepGrid G;
  G.Techniques = {TechniqueSpec::baseline()};
  G.Schedulers = {SchedulerSpec::oblivious(), SchedulerSpec::fastestFirst(),
                  SchedulerSpec::ipcSampling()};
  // Light load to saturation (the paper quad completes about 0.43 of
  // these jobs per simulated second: 0.1 leaves its cores mostly idle,
  // 0.6 outruns it), as a bounded server: at most 18 jobs in flight —
  // the paper's workload size — with overload queueing at the door
  // instead of thrashing the runqueues.
  G.Scenarios.clear();
  for (double Rate : {0.1, 0.25, 0.4, 0.6})
    G.Scenarios.push_back(ScenarioSpec::poisson(Rate).withMaxInFlight(18));
  G.Workloads = {{/*Slots=*/18, /*Horizon=*/200 * H.scale(), /*Seed=*/21}};
  SweepResult R = H.sweep(H.lab(), G);

  Table T({"scheduler", "scenario", "completed", "p50 turn", "p95 turn",
           "p99 turn", "mean slowdown", "jobs/Mcycle"});
  for (const SweepCell &Cell : R.Cells)
    T.addRow({G.Schedulers[Cell.Scheduler].label(),
              G.Scenarios[Cell.Scenario].label(),
              Table::fmtInt(static_cast<long long>(Cell.Latency.Jobs)),
              Table::fmt(Cell.Latency.P50Turnaround, 3),
              Table::fmt(Cell.Latency.P95Turnaround, 3),
              Table::fmt(Cell.Latency.P99Turnaround, 3),
              Table::fmt(Cell.Latency.MeanSlowdown, 2),
              Table::fmt(Cell.Latency.JobsPerMegacycle, 4)});
  H.table(T);
  H.note("one prepared suite serves the whole rate x policy grid (the "
         "scenario, like the scheduler, is a replay-time axis outside "
         "the suite-cache key).\nexpected shape: tail turnaround "
         "(p95/p99) explodes as the rate crosses the service capacity "
         "while throughput saturates; asymmetry-aware policies trim "
         "the tail at mid load, where placing the right job on a fast "
         "core still matters");
  return H.finish();
}
