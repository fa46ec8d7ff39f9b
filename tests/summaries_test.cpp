//===- tests/summaries_test.cpp - interval/loop summarization -------------===//

#include "core/Summaries.h"

#include <gtest/gtest.h>

using namespace pbt;

namespace {

/// Procedure from an adjacency list with per-block instruction counts.
Procedure makeProc(const std::vector<std::vector<uint32_t>> &Adj,
                   const std::vector<unsigned> &Sizes) {
  Procedure P;
  for (uint32_t I = 0; I < Adj.size(); ++I) {
    BasicBlock BB;
    BB.Id = I;
    BB.Succs = Adj[I];
    BB.Term = Adj[I].empty() ? TermKind::Ret
              : Adj[I].size() == 1 ? TermKind::Jump
                                   : TermKind::Cond;
    for (unsigned K = 0; K < Sizes[I]; ++K)
      BB.Insts.push_back(Instruction::intAlu());
    P.Blocks.push_back(std::move(BB));
  }
  return P;
}

const std::vector<double> NoCallees;
const std::vector<uint32_t> NoCalleeTypes;

} // namespace

TEST(IntervalSummary, DominantByInstructionWeight) {
  // One interval: blocks 0 (type 0, 10 insts) and 1 (type 1, 30 insts).
  Procedure P = makeProc({{1}, {}}, {10, 30});
  ProcedureFacts Facts = computeProcedureFacts(P);
  ASSERT_EQ(Facts.Intervals.Intervals.size(), 1u);
  auto Sums = summarizeIntervals(P, Facts, {0, 1}, 2);
  EXPECT_EQ(Sums[0].DominantType, 1u);
  EXPECT_NEAR(Sums[0].Strength, 0.75, 1e-9);
  EXPECT_EQ(Sums[0].InstCount, 40u);
}

TEST(IntervalSummary, CycleMembersWeighHigher) {
  // Interval with header 0: loop 0 -> 1 -> 0, exit 0 -> 2.
  // Block 1 (type 1, in cycle, 10 insts) outweighs block 2
  // (type 0, 30 insts) because of the cycle multiplier.
  Procedure P = makeProc({{1, 2}, {0}, {}}, {2, 10, 30});
  ProcedureFacts Facts = computeProcedureFacts(P);
  auto Sums =
      summarizeIntervals(P, Facts, {1, 1, 0}, 2, /*CycleWeight=*/4.0);
  ASSERT_FALSE(Sums.empty());
  uint32_t HeaderInterval = Facts.Intervals.IntervalOf[0];
  EXPECT_EQ(Sums[HeaderInterval].DominantType, 1u);
}

TEST(LoopSummary, SingleLoopTyped) {
  // 0 -> 1 -> 2 -> 1, 2 -> 3; loop blocks {1, 2} typed {0, 1} with block
  // 2 larger.
  Procedure P = makeProc({{1}, {2}, {1, 3}, {}}, {5, 10, 40, 5});
  LoopInfo Loops = computeLoops(P);
  auto Result = summarizeLoops(P, Loops, {0, 0, 1, 0}, 2, NoCallees,
                               NoCalleeTypes);
  ASSERT_EQ(Result.Summaries.size(), 1u);
  EXPECT_EQ(Result.Summaries[0].DominantType, 1u);
  EXPECT_EQ(Result.Selected, std::vector<uint32_t>{0});
  EXPECT_TRUE(Result.isSelected(0));
}

TEST(LoopSummary, NestedSameTypeFoldsIntoParent) {
  // outer {1..4}, inner {2,3}; all blocks type 1.
  Procedure P =
      makeProc({{1}, {2}, {3}, {2, 4}, {1, 5}, {}}, {4, 8, 8, 8, 8, 4});
  LoopInfo Loops = computeLoops(P);
  auto Result = summarizeLoops(P, Loops, {1, 1, 1, 1, 1, 1}, 2, NoCallees,
                               NoCalleeTypes);
  // Only the outer loop survives in T.
  ASSERT_EQ(Result.Selected.size(), 1u);
  const Loop &Kept = Loops.Loops[Result.Selected[0]];
  EXPECT_EQ(Kept.Header, 1u);
  EXPECT_EQ(Kept.Depth, 1u);
}

TEST(LoopSummary, StrongerDifferentlyTypedChildSurvives) {
  // Inner loop strongly type 1 (pure), outer body mostly type 0 but the
  // weighted inner dominates the outer's map -> outer type 1 as well?
  // Use a big type-0 outer body so the outer types 0 while the inner is
  // purely type 1 and stronger: the child survives, the outer does not.
  Procedure P =
      makeProc({{1}, {2}, {3}, {2, 4}, {1, 5}, {}}, {4, 200, 10, 10, 200, 4});
  LoopInfo Loops = computeLoops(P);
  // Inner loop blocks {2,3} type 1; outer extra blocks {1,4} type 0.
  auto Result = summarizeLoops(P, Loops, {0, 0, 1, 1, 0, 0}, 2, NoCallees,
                               NoCalleeTypes, /*NestingBase=*/1.0);
  // With NestingBase 1 the outer loop weighs 400 type-0 vs 20 type-1:
  // outer typed 0 with strength 400/420; inner typed 1 with strength 1.
  // The inner (stronger, different type) survives; the outer is dropped.
  ASSERT_EQ(Result.Selected.size(), 1u);
  EXPECT_EQ(Loops.Loops[Result.Selected[0]].Header, 2u);
}

TEST(LoopSummary, WeakerChildFoldedEvenWhenDifferent) {
  // Same shape, but make the inner loop mixed (weak typing) and the
  // outer overwhelming: the outer absorbs the weak child.
  Procedure P =
      makeProc({{1}, {2}, {3}, {2, 4}, {1, 5}, {}}, {4, 300, 10, 9, 300, 4});
  LoopInfo Loops = computeLoops(P);
  // Inner: block2 type1 (10), block3 type0 (9) -> weak type 1.
  auto Result = summarizeLoops(P, Loops, {0, 0, 1, 0, 0, 0}, 2, NoCallees,
                               NoCalleeTypes, /*NestingBase=*/1.0);
  ASSERT_EQ(Result.Selected.size(), 1u);
  EXPECT_EQ(Loops.Loops[Result.Selected[0]].Header, 1u);
}

TEST(LoopSummary, DisjointChildrenAllAgreeFolded) {
  // Outer loop 1..6 containing two disjoint self-loops at 2 and 4; all
  // type 1 -> everything folds into the outer loop.
  Procedure P = makeProc(
      {{1}, {2}, {2, 3}, {4}, {4, 5}, {1, 6}, {}},
      {4, 8, 20, 8, 20, 8, 4});
  LoopInfo Loops = computeLoops(P);
  auto Result = summarizeLoops(P, Loops, {1, 1, 1, 1, 1, 1, 1}, 2,
                               NoCallees, NoCalleeTypes);
  ASSERT_EQ(Result.Selected.size(), 1u);
  EXPECT_EQ(Loops.Loops[Result.Selected[0]].Header, 1u);
}

TEST(LoopSummary, DisjointChildrenDisagreeKept) {
  // Same shape but the two disjoint inner loops have different types:
  // the outer is not selected; both children stay.
  Procedure P = makeProc(
      {{1}, {2}, {2, 3}, {4}, {4, 5}, {1, 6}, {}},
      {4, 8, 20, 8, 20, 8, 4});
  LoopInfo Loops = computeLoops(P);
  auto Result = summarizeLoops(P, Loops, {0, 0, 0, 0, 1, 0, 0}, 2,
                               NoCallees, NoCalleeTypes);
  EXPECT_EQ(Result.Selected.size(), 2u);
  for (uint32_t Idx : Result.Selected)
    EXPECT_NE(Loops.Loops[Idx].Header, 1u);
}

TEST(LoopSummary, CalleeWeightDrivesType) {
  // Loop {1} contains a call block; the callee is memory-typed and huge,
  // so the loop types after the callee even though its own code is
  // compute-typed.
  Procedure P;
  {
    BasicBlock B0;
    B0.Id = 0;
    B0.Term = TermKind::Jump;
    B0.Succs = {1};
    BasicBlock B1;
    B1.Id = 1;
    B1.Term = TermKind::Loop;
    B1.Succs = {1, 2};
    B1.TripCount = 4;
    for (int K = 0; K < 10; ++K)
      B1.Insts.push_back(Instruction::intAlu());
    // Jump-terminated call continuation shape is irrelevant here; the
    // summarizer only needs calleeOrNone(), so terminate with a call.
    B1.Insts.push_back(Instruction::call(1));
    BasicBlock B2;
    B2.Id = 2;
    B2.Term = TermKind::Ret;
    P.Blocks = {B0, B1, B2};
  }
  LoopInfo Loops = computeLoops(P);
  std::vector<double> CalleeWeight = {0.0, 500.0};
  std::vector<uint32_t> CalleeType = {0, 1};
  auto Result = summarizeLoops(P, Loops, {0, 0, 0}, 2, CalleeWeight,
                               CalleeType);
  ASSERT_EQ(Result.Summaries.size(), 1u);
  EXPECT_EQ(Result.Summaries[0].DominantType, 1u);
}

TEST(ProcSummary, WeightsLoopsHigher) {
  // Loop block (type 1, 10 insts) vs straightline block (type 0,
  // 30 insts): nesting weight 8 makes the loop dominate.
  Procedure P = makeProc({{1}, {1, 2}, {}}, {30, 10, 2});
  SectionSummary Whole = summarizeProcedure(P, computeProcedureFacts(P),
                                            {0, 1, 0}, 2,
                                            NoCallees, NoCalleeTypes);
  EXPECT_EQ(Whole.DominantType, 1u);
}

TEST(ProcSummary, TieBreaksTowardLowerType) {
  Procedure P = makeProc({{1}, {}}, {10, 10});
  SectionSummary Whole = summarizeProcedure(P, computeProcedureFacts(P),
                                            {0, 1}, 2, NoCallees,
                                            NoCalleeTypes);
  EXPECT_EQ(Whole.DominantType, 0u);
  EXPECT_NEAR(Whole.Strength, 0.5, 1e-9);
}
