//===- core/Summaries.h - Interval & loop dominant types --------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Summarization of multi-block sections into a single dominant phase
/// type, following the paper:
///
///  - Interval summarization (Sec. II-A1b): a depth-first traversal of
///    each interval ignoring backward edges accumulates, per type, a
///    weighted value; nodes within cycles get a higher weight. The
///    dominant type is the argmax.
///
///  - Loop summarization (Sec. II-A1c, Algorithm 1): a breadth-first
///    traversal of each natural loop ignoring back edges maintains a
///    type map M : Π -> R, adding wn(λ)·ϕ(η) for each node, where λ is
///    the extra nesting level of the node inside the loop, wn maps
///    nesting levels to weights, and ϕ is the node weight (instruction
///    count; call nodes contribute their callee's summary weight). The
///    dominant type πl has strength σ = M(πl) / Σ M(π). Nested loops of
///    equal type are folded into their parent (the paper's type map T),
///    eliminating phase marks inside outer-loop iterations.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_CORE_SUMMARIES_H
#define PBT_CORE_SUMMARIES_H

#include "analysis/BlockTyping.h"
#include "analysis/ProgramFacts.h"
#include "ir/Program.h"

#include <cstdint>
#include <vector>

namespace pbt {

/// Dominant type and bookkeeping for one summarized section.
struct SectionSummary {
  uint32_t DominantType = 0;
  /// Type strength sigma in (0, 1]: dominant weight over total weight.
  double Strength = 1.0;
  /// Total instructions in the section (its "size" for min-size filters).
  uint64_t InstCount = 0;
};

/// Computes per-interval summaries for procedure \p P over the interval
/// partition in \p Facts (indexed like Facts.Intervals.Intervals).
/// \p TypeOfBlock maps block id to phase type; \p NumTypes bounds types.
/// \p CycleWeight multiplies the weight of nodes that lie on a cycle
/// within their interval (paper: "those within cycles are given a higher
/// weight").
std::vector<SectionSummary>
summarizeIntervals(const Procedure &P, const ProcedureFacts &Facts,
                   const std::vector<uint32_t> &TypeOfBlock,
                   uint32_t NumTypes, double CycleWeight = 4.0);

/// Per-loop summaries plus the paper's loop type map T.
struct LoopSummaryResult {
  /// Summary per loop (indexed like LoopInfo::Loops).
  std::vector<SectionSummary> Summaries;
  /// Loops retained in the type map T after same-type nested-loop
  /// folding (Algorithm 1); indices into LoopInfo::Loops, sorted.
  std::vector<uint32_t> Selected;

  bool isSelected(uint32_t LoopIndex) const;
};

/// Runs Algorithm 1 over the loops of \p P.
///
/// \p CalleeWeight gives ϕ for call nodes: the instruction weight
/// attributed to calling procedure \p Callee (its summarized body size,
/// possibly damped); \p CalleeType gives the callee's summary type. Both
/// are indexed by procedure id; used for the inter-procedural typing.
/// \p NestingBase is the base of the nesting-level weight wn(λ) =
/// NestingBase^λ.
LoopSummaryResult
summarizeLoops(const Procedure &P, const LoopInfo &Loops,
               const std::vector<uint32_t> &TypeOfBlock, uint32_t NumTypes,
               const std::vector<double> &CalleeWeight,
               const std::vector<uint32_t> &CalleeType,
               double NestingBase = 8.0);

/// Summarizes an entire procedure body into one dominant type (used for
/// procedure summary types in the inter-procedural analysis): weight
/// ϕ(η)·wn(depth) over all reachable blocks, added in DFS preorder, with
/// depths from Facts.Loops.
SectionSummary
summarizeProcedure(const Procedure &P, const ProcedureFacts &Facts,
                   const std::vector<uint32_t> &TypeOfBlock,
                   uint32_t NumTypes,
                   const std::vector<double> &CalleeWeight,
                   const std::vector<uint32_t> &CalleeType,
                   double NestingBase = 8.0);

} // namespace pbt

#endif // PBT_CORE_SUMMARIES_H
