//===- support/Statistics.cpp - Summary statistics helpers ---------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Statistics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace pbt;

static double interpolatedQuantile(const std::vector<double> &Sorted,
                                   double Q) {
  assert(!Sorted.empty() && "quantile of empty sample");
  if (Sorted.size() == 1)
    return Sorted.front();
  double Pos = Q * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Sorted[Lo] + Frac * (Sorted[Hi] - Sorted[Lo]);
}

BoxSummary pbt::summarize(std::vector<double> Values) {
  BoxSummary Box;
  if (Values.empty())
    return Box;
  std::sort(Values.begin(), Values.end());
  Box.Count = Values.size();
  Box.Min = Values.front();
  Box.Max = Values.back();
  Box.Q1 = interpolatedQuantile(Values, 0.25);
  Box.Median = interpolatedQuantile(Values, 0.50);
  Box.Q3 = interpolatedQuantile(Values, 0.75);
  Box.Mean = mean(Values);
  return Box;
}

double pbt::mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double Sum = 0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

double pbt::stddev(const std::vector<double> &Values) {
  if (Values.size() < 2)
    return 0;
  double M = mean(Values);
  double Acc = 0;
  for (double V : Values)
    Acc += (V - M) * (V - M);
  return std::sqrt(Acc / static_cast<double>(Values.size() - 1));
}

double pbt::quantile(std::vector<double> Values, double Q) {
  assert(Q >= 0.0 && Q <= 1.0 && "quantile fraction out of range");
  std::sort(Values.begin(), Values.end());
  return interpolatedQuantile(Values, Q);
}

double pbt::percentile(std::vector<double> Values, double Pct) {
  assert(Pct >= 0.0 && Pct <= 100.0 && "percentile out of range");
  return quantile(std::move(Values), Pct / 100.0);
}

double pbt::percentileSorted(const std::vector<double> &Sorted,
                             double Pct) {
  assert(Pct >= 0.0 && Pct <= 100.0 && "percentile out of range");
  assert(std::is_sorted(Sorted.begin(), Sorted.end()) &&
         "percentileSorted needs a sorted sample");
  return interpolatedQuantile(Sorted, Pct / 100.0);
}

double pbt::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double V : Values) {
    assert(V > 0 && "geomean requires positive values");
    LogSum += std::log(V);
  }
  return std::exp(LogSum / static_cast<double>(Values.size()));
}
