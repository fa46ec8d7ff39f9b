//===- analysis/Intervals.h - Allen-Cocke interval partition ---*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interval partition per Allen's "Control flow analysis" (1970), the
/// algorithm the paper cites: "An interval i(h) corresponding to a node h
/// is the maximal, single entry subgraph for which h is the entry node and
/// in which all closed paths contain h." The paper's second phase-marking
/// strategy summarizes each interval into a single phase type.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_ANALYSIS_INTERVALS_H
#define PBT_ANALYSIS_INTERVALS_H

#include "analysis/CfgAlgorithms.h"
#include "ir/Program.h"

#include <cstdint>
#include <vector>

namespace pbt {

/// One interval: header plus member blocks.
struct Interval {
  uint32_t Header = 0;
  /// Member blocks in the order the construction added them (header
  /// first); this is also a valid traversal order for summarization.
  std::vector<uint32_t> Blocks;
};

/// First-order interval partition of a procedure. Every reachable block
/// belongs to exactly one interval; unreachable blocks are placed in
/// singleton intervals at the end so the mapping is total.
struct IntervalPartition {
  std::vector<Interval> Intervals;
  /// Per block: index of its interval in Intervals.
  std::vector<uint32_t> IntervalOf;
};

/// Computes the first-order interval partition of \p P.
IntervalPartition computeIntervals(const Procedure &P);

/// computeIntervals over \p P's runDfs() result and predecessors().
IntervalPartition
computeIntervals(const Procedure &P, const CfgDfsResult &Dfs,
                 const std::vector<std::vector<uint32_t>> &Preds);

} // namespace pbt

#endif // PBT_ANALYSIS_INTERVALS_H
