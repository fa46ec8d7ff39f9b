//===- metrics/Latency.h - Turnaround/slowdown/throughput ------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Latency and throughput metrics for traffic scenarios — the standard
/// open-system methodology for evaluating OS schedulers on job streams,
/// complementing the paper's closed-system fairness metrics
/// (metrics/Fairness.h):
///
///   turnaround  T_j = C_j - a_j        (completion minus arrival)
///   slowdown    S_j = T_j / t_j        (vs the oblivious isolated
///                                       baseline t_j; jobs without an
///                                       oracle are skipped)
///   percentiles p50/p95/p99 of T_j     (tail latency)
///   throughput  jobs per megacycle of aggregate machine capacity
///               (completed jobs / (horizon x sum of core frequencies
///               / 1e6))
///
/// All percentiles use support/Statistics percentile() (linear
/// interpolation, deterministic), so identical replays produce
/// bit-identical metric blocks.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_METRICS_LATENCY_H
#define PBT_METRICS_LATENCY_H

#include "sim/MachineConfig.h"
#include "workload/Runner.h"

#include <cstddef>

namespace pbt {

/// Latency/throughput summary of one run's completed jobs.
struct LatencyMetrics {
  size_t Jobs = 0;
  double MeanTurnaround = 0;
  double P50Turnaround = 0;
  double P95Turnaround = 0;
  double P99Turnaround = 0;
  /// Slowdown statistics cover only jobs with an isolated-time oracle
  /// (CompletedJob::Isolated > 0); 0 when no job has one.
  double MeanSlowdown = 0;
  double P95Slowdown = 0;
  double MaxSlowdown = 0;
  /// Completed jobs per million cycles of aggregate machine capacity
  /// over the run's horizon (0 for an empty or zero-length run).
  double JobsPerMegacycle = 0;
};

/// Computes the metrics over \p Run's completions on \p Machine (whose
/// core frequencies define the capacity normalization). Percentiles are
/// exact: each sample is buffered and sorted once.
LatencyMetrics computeLatency(const RunResult &Run,
                              const MachineConfig &Machine);

} // namespace pbt

#endif // PBT_METRICS_LATENCY_H
