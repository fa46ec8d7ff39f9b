//===- metrics/Fairness.h - Flow/stretch fairness metrics ------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's fairness metrics (Sec. IV-D), after Bender et al.'s flow
/// and stretch metrics for continuous job streams:
///
///   flow       F_j = C_j - a_j        (completion minus arrival)
///   max-flow   max_j F_j              (worst observed execution time)
///   max-stretch max_j F_j / t_j       (worst slowdown vs isolated time)
///   avg time   mean_j F_j             (average process time)
///
//===----------------------------------------------------------------------===//

#ifndef PBT_METRICS_FAIRNESS_H
#define PBT_METRICS_FAIRNESS_H

#include "workload/Runner.h"

#include <cstddef>

namespace pbt {

/// Fairness summary of a set of completed jobs.
struct FairnessMetrics {
  double MaxFlow = 0;
  double MaxStretch = 0;
  double AvgProcessTime = 0;
  /// 95th-percentile flow time (tail fairness; support/Statistics
  /// percentile(), linear-interpolated).
  double P95Flow = 0;
  size_t Jobs = 0;
};

/// Computes the metrics over \p Jobs. Jobs without an isolated-time
/// oracle (Isolated <= 0) are skipped for max-stretch only. P95Flow is
/// exact: the flows are buffered and sorted once.
FairnessMetrics computeFairness(const std::vector<CompletedJob> &Jobs);

/// Percent decrease of \p Value relative to \p Baseline: positive is an
/// improvement, matching the paper's Table 2 sign convention.
double percentDecrease(double Baseline, double Value);

/// Percent increase of \p Value over \p Baseline (throughput figures).
double percentIncrease(double Baseline, double Value);

} // namespace pbt

#endif // PBT_METRICS_FAIRNESS_H
