//===- analysis/NaturalLoops.h - Natural loops and nesting -----*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Natural-loop detection (back edges whose target dominates the source,
/// per Muchnick, the algorithm the paper cites for partitioning the CFG
/// into loops) plus the loop-nesting forest consumed by the paper's
/// Algorithm 1 (loop summarization with nesting-level weights).
///
//===----------------------------------------------------------------------===//

#ifndef PBT_ANALYSIS_NATURALLOOPS_H
#define PBT_ANALYSIS_NATURALLOOPS_H

#include "analysis/CfgAlgorithms.h"
#include "ir/Program.h"

#include <cstdint>
#include <vector>

namespace pbt {

/// One natural loop. Loops sharing a header are merged (classic natural
/// loop construction).
struct Loop {
  uint32_t Header = 0;
  /// Member blocks, sorted ascending; always contains Header.
  std::vector<uint32_t> Blocks;
  /// Index of the innermost strictly-containing loop, or -1.
  int32_t Parent = -1;
  /// Indices of loops immediately nested inside this one.
  std::vector<uint32_t> Children;
  /// Nesting depth; outermost loops have depth 1.
  uint32_t Depth = 1;

  bool contains(uint32_t Block) const;
};

/// All natural loops of a procedure, with the nesting forest.
struct LoopInfo {
  std::vector<Loop> Loops;
  /// Per block: index of the innermost loop containing it, or -1.
  std::vector<int32_t> InnermostLoop;

  /// Nesting depth of \p Block (0 when not inside any loop).
  uint32_t depthOf(uint32_t Block) const {
    int32_t L = InnermostLoop[Block];
    return L < 0 ? 0 : Loops[static_cast<uint32_t>(L)].Depth;
  }

  /// Returns true when loop \p Inner is strictly nested inside \p Outer.
  bool strictlyNested(uint32_t Inner, uint32_t Outer) const;
};

/// Computes natural loops of \p P from its dominator tree and back edges.
LoopInfo computeLoops(const Procedure &P);

/// computeLoops over \p P's runDfs() result and predecessors().
LoopInfo computeLoops(const Procedure &P, const CfgDfsResult &Dfs,
                      const std::vector<std::vector<uint32_t>> &Preds);

} // namespace pbt

#endif // PBT_ANALYSIS_NATURALLOOPS_H
