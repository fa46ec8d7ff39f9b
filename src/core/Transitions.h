//===- core/Transitions.h - Phase-transition detection ----------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Computes the phase-transition points of a typed program and decides
/// where phase marks go, for the paper's three marking strategies
/// (Sec. II-A2):
///
///  - BasicBlock: sections are individual basic blocks at or above a
///    configurable minimum size; optionally filtered by the lookahead
///    heuristic (insert a mark only when the majority of successors up to
///    a fixed depth share the target's type). The paper's naive variant
///    (mark every differently-typed edge) is available for ablation.
///  - Interval: sections are first-order intervals summarized to a
///    dominant type.
///  - Loop: sections are natural loops selected by the inter-procedural
///    Algorithm 1 (same-type nested loops folded into their parents);
///    call sites whose callee's summary type differs from the calling
///    region also transition, handling phase changes across procedures.
///
/// Marks live on CFG edges — they fire when the edge is traversed — or on
/// call sites (fire when the call executes, i.e. at callee entry).
///
//===----------------------------------------------------------------------===//

#ifndef PBT_CORE_TRANSITIONS_H
#define PBT_CORE_TRANSITIONS_H

#include "analysis/BlockTyping.h"
#include "analysis/ProgramFacts.h"
#include "ir/Program.h"

#include <cstdint>
#include <vector>

namespace pbt {

/// Marking strategy (paper Sec. II-A2 a/b/c).
enum class Strategy : uint8_t {
  BasicBlock,
  Interval,
  Loop,
};

/// Returns "BB", "Int", or "Loop" (the paper's table labels).
const char *strategyName(Strategy S);

/// Tunables of the transition analysis. The paper's variants are written
/// BB[MinSize, Lookahead], Int[MinSize], Loop[MinSize].
struct TransitionConfig {
  Strategy Strat = Strategy::Loop;
  /// Minimum section size in instructions; smaller sections are skipped.
  uint32_t MinSize = 45;
  /// BasicBlock strategy: lookahead depth (0 disables the filter).
  uint32_t Lookahead = 0;
  /// BasicBlock strategy: mark every differently-typed edge regardless
  /// of size (the paper's naive variant; ablation only).
  bool Naive = false;
  /// Loop summarization nesting-weight base wn(lambda) = Base^lambda.
  double NestingBase = 8.0;
  /// Interval summarization weight multiplier for cycle members.
  double CycleWeight = 4.0;

  /// Short label such as "Loop[45]" or "BB[15,2]".
  std::string label() const;

  bool operator==(const TransitionConfig &Other) const {
    return Strat == Other.Strat && MinSize == Other.MinSize &&
           Lookahead == Other.Lookahead && Naive == Other.Naive &&
           NestingBase == Other.NestingBase &&
           CycleWeight == Other.CycleWeight;
  }
  bool operator!=(const TransitionConfig &Other) const {
    return !(*this == Other);
  }
};

/// Stable content hash over every TransitionConfig field (suite-cache
/// keying; equal configs hash equally).
uint64_t hashValue(const TransitionConfig &Config);

/// Where a phase mark is anchored.
enum class MarkPoint : uint8_t {
  Edge,     ///< Fires when (Block, SuccIndex) is traversed.
  CallSite, ///< Fires when the call terminating Block executes.
};

/// One statically inserted phase mark.
struct PhaseMark {
  uint32_t Proc = 0;
  uint32_t Block = 0;
  uint32_t SuccIndex = 0; ///< Valid for MarkPoint::Edge.
  MarkPoint Point = MarkPoint::Edge;
  /// Phase type of the section being entered.
  uint32_t PhaseType = 0;
};

/// Output of the transition analysis.
struct MarkingResult {
  std::vector<PhaseMark> Marks;
  uint32_t NumTypes = 0;
  /// Effective section/region type per block: RegionType[proc][block].
  /// Exposed for tests and diagnostics.
  std::vector<std::vector<uint32_t>> RegionType;
  /// Number of sections that met the minimum-size filter.
  uint64_t SectionsConsidered = 0;
};

/// Runs the transition analysis for \p Config over a typed program,
/// reading the CFG facts in \p Facts (computeProgramFacts(Prog)) rather
/// than recomputing them.
MarkingResult computeTransitions(const Program &Prog,
                                 const ProgramFacts &Facts,
                                 const ProgramTyping &Typing,
                                 const TransitionConfig &Config);

/// computeTransitions over freshly computed facts of \p Prog.
MarkingResult computeTransitions(const Program &Prog,
                                 const ProgramTyping &Typing,
                                 const TransitionConfig &Config);

} // namespace pbt

#endif // PBT_CORE_TRANSITIONS_H
