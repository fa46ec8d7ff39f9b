//===- support/Statistics.h - Summary statistics helpers -------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Descriptive statistics used by the benchmark harnesses: five-number
/// box-plot summaries (paper Fig. 3), means, geometric means, and the
/// one quantile definition of the repository — linear interpolation
/// between order statistics (type-7) over a sorted sample. Every
/// latency and fairness percentile (metrics/Latency, metrics/Fairness)
/// is read off an exact sort through percentile()/percentileSorted();
/// there is no approximate estimator.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SUPPORT_STATISTICS_H
#define PBT_SUPPORT_STATISTICS_H

#include <cstddef>
#include <vector>

namespace pbt {

/// Five-number summary of a sample, as drawn in a box plot: the box spans
/// [Q1, Q3] with a line at the median; whiskers extend to min and max.
struct BoxSummary {
  double Min = 0;
  double Q1 = 0;
  double Median = 0;
  double Q3 = 0;
  double Max = 0;
  double Mean = 0;
  size_t Count = 0;
};

/// Computes the five-number summary of \p Values. Quartiles use linear
/// interpolation between order statistics (type-7, the numpy default).
/// An empty input yields an all-zero summary with Count == 0.
BoxSummary summarize(std::vector<double> Values);

/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double> &Values);

/// Sample standard deviation; 0 for samples of size < 2.
double stddev(const std::vector<double> &Values);

/// Quantile \p Q in [0,1] of \p Values with linear interpolation.
/// Asserts on empty input.
double quantile(std::vector<double> Values, double Q);

/// Percentile \p Pct in [0,100] of \p Values: quantile(Pct / 100),
/// linear interpolation between order statistics (type-7), fully
/// deterministic. Asserts on empty input and out-of-range Pct. The one
/// definition shared by the latency and fairness metrics.
double percentile(std::vector<double> Values, double Pct);

/// percentile() over an ALREADY SORTED sample, without copying or
/// re-sorting — for callers reading several percentiles off one sort.
/// Asserts the same preconditions (plus sortedness, in debug builds).
double percentileSorted(const std::vector<double> &Sorted, double Pct);

/// Geometric mean; asserts all values are positive. 0 for empty input.
double geomean(const std::vector<double> &Values);

} // namespace pbt

#endif // PBT_SUPPORT_STATISTICS_H
