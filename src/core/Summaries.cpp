//===- core/Summaries.cpp - Interval & loop dominant types ----------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Summaries.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace pbt;

bool LoopSummaryResult::isSelected(uint32_t LoopIndex) const {
  return std::binary_search(Selected.begin(), Selected.end(), LoopIndex);
}

/// Picks the argmax type of \p Weights; ties break toward the smaller
/// type id (the paper resorts to "a simple heuristic" for ties).
static SectionSummary finishSummary(const std::vector<double> &Weights,
                                    uint64_t InstCount) {
  SectionSummary Summary;
  Summary.InstCount = InstCount;
  double Total = 0;
  double Best = -1;
  for (uint32_t T = 0; T < Weights.size(); ++T) {
    Total += Weights[T];
    if (Weights[T] > Best) {
      Best = Weights[T];
      Summary.DominantType = T;
    }
  }
  Summary.Strength = Total > 0 ? Best / Total : 1.0;
  return Summary;
}

std::vector<SectionSummary>
pbt::summarizeIntervals(const Procedure &P, const ProcedureFacts &Facts,
                        const std::vector<uint32_t> &TypeOfBlock,
                        uint32_t NumTypes, double CycleWeight) {
  assert(TypeOfBlock.size() == P.Blocks.size() && "typing shape mismatch");
  const IntervalPartition &Partition = Facts.Intervals;
  std::vector<SectionSummary> Summaries;
  Summaries.reserve(Partition.Intervals.size());

  // Scratch flags, set only on the current interval's members and
  // cleared again before the next interval.
  std::vector<bool> InInterval(P.Blocks.size(), false);
  std::vector<bool> OnCycle(P.Blocks.size(), false);
  std::vector<uint32_t> Work;
  for (const Interval &I : Partition.Intervals) {
    // Blocks on closed paths inside the interval: every closed path
    // passes through the header (interval property), so cycle members
    // are exactly the blocks that can reach an in-interval edge back to
    // the header. Compute backward reachability from those edge sources.
    for (uint32_t Block : I.Blocks)
      InInterval[Block] = true;

    for (uint32_t Block : I.Blocks)
      for (uint32_t Succ : P.Blocks[Block].Succs)
        if (Succ == I.Header && InInterval[Block] && !OnCycle[Block]) {
          OnCycle[Block] = true;
          Work.push_back(Block);
        }
    while (!Work.empty()) {
      uint32_t Block = Work.back();
      Work.pop_back();
      for (uint32_t Pred : Facts.Preds[Block])
        if (InInterval[Pred] && !OnCycle[Pred]) {
          OnCycle[Pred] = true;
          Work.push_back(Pred);
        }
    }
    // The header itself is on every cycle when any cycle exists.
    bool HasCycle = false;
    for (uint32_t Block : I.Blocks)
      HasCycle |= OnCycle[Block];
    if (HasCycle)
      OnCycle[I.Header] = true;

    std::vector<double> Weights(NumTypes, 0.0);
    uint64_t InstCount = 0;
    for (uint32_t Block : I.Blocks) {
      const BasicBlock &BB = P.Blocks[Block];
      InstCount += BB.size();
      double Phi = static_cast<double>(BB.size());
      if (OnCycle[Block])
        Phi *= CycleWeight;
      uint32_t Type = TypeOfBlock[Block];
      assert(Type < NumTypes && "type out of range");
      Weights[Type] += Phi;
    }
    Summaries.push_back(finishSummary(Weights, InstCount));

    for (uint32_t Block : I.Blocks) {
      InInterval[Block] = false;
      OnCycle[Block] = false;
    }
  }
  return Summaries;
}

/// Accumulates one node's weight into \p Weights per Algorithm 1:
/// the block's instructions count toward the block's type; a trailing
/// call additionally contributes the callee's summarized body weight
/// toward the callee's summary type (this is what makes the analysis
/// inter-procedural).
static void accumulateNode(const BasicBlock &BB, double NestWeight,
                           const std::vector<uint32_t> &TypeOfBlock,
                           const std::vector<double> &CalleeWeight,
                           const std::vector<uint32_t> &CalleeType,
                           std::vector<double> &Weights) {
  Weights[TypeOfBlock[BB.Id]] += NestWeight * static_cast<double>(BB.size());
  int32_t Callee = BB.calleeOrNone();
  if (Callee >= 0) {
    assert(static_cast<size_t>(Callee) < CalleeWeight.size());
    Weights[CalleeType[Callee]] += NestWeight * CalleeWeight[Callee];
  }
}

LoopSummaryResult
pbt::summarizeLoops(const Procedure &P, const LoopInfo &Loops,
                    const std::vector<uint32_t> &TypeOfBlock,
                    uint32_t NumTypes,
                    const std::vector<double> &CalleeWeight,
                    const std::vector<uint32_t> &CalleeType,
                    double NestingBase) {
  assert(TypeOfBlock.size() == P.Blocks.size() && "typing shape mismatch");
  LoopSummaryResult Result;
  Result.Summaries.resize(Loops.Loops.size());

  // Inner-most first (ascending body size), per the paper.
  std::vector<uint32_t> Order(Loops.Loops.size());
  for (uint32_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    if (Loops.Loops[A].Blocks.size() != Loops.Loops[B].Blocks.size())
      return Loops.Loops[A].Blocks.size() < Loops.Loops[B].Blocks.size();
    return Loops.Loops[A].Header < Loops.Loops[B].Header;
  });

  std::vector<bool> InT(Loops.Loops.size(), false);

  for (uint32_t LoopIndex : Order) {
    const Loop &L = Loops.Loops[LoopIndex];

    // Type map M over a traversal of the loop body ignoring back edges.
    // lambda(eta) = number of loops nested in L that contain eta.
    std::vector<double> Weights(NumTypes, 0.0);
    uint64_t InstCount = 0;
    for (uint32_t Block : L.Blocks) {
      const BasicBlock &BB = P.Blocks[Block];
      InstCount += BB.size();
      uint32_t Lambda = Loops.depthOf(Block) - L.Depth;
      double Wn = std::pow(NestingBase, static_cast<double>(Lambda));
      accumulateNode(BB, Wn, TypeOfBlock, CalleeWeight, CalleeType, Weights);
    }
    Result.Summaries[LoopIndex] = finishSummary(Weights, InstCount);
    const SectionSummary &Cur = Result.Summaries[LoopIndex];

    // Algorithm 1's T-map maintenance over the direct children of L that
    // are currently selected.
    std::vector<uint32_t> SelectedKids;
    for (uint32_t Kid : L.Children)
      if (InT[Kid])
        SelectedKids.push_back(Kid);

    if (SelectedKids.empty()) {
      InT[LoopIndex] = true;
      continue;
    }
    if (SelectedKids.size() == 1) {
      uint32_t Kid = SelectedKids.front();
      const SectionSummary &KidSum = Result.Summaries[Kid];
      // Fold the child into L when types agree or the child typing is
      // weaker; otherwise the (stronger, differently-typed) child
      // survives and L itself is not selected.
      if (KidSum.DominantType == Cur.DominantType ||
          KidSum.Strength < Cur.Strength) {
        InT[LoopIndex] = true;
        InT[Kid] = false;
      }
      continue;
    }
    // Two or more disjoint nested loops: fold only when every selected
    // child agrees with L's type (the algorithm's else-if case).
    bool AllAgree = true;
    for (uint32_t Kid : SelectedKids)
      AllAgree &= Result.Summaries[Kid].DominantType == Cur.DominantType;
    if (AllAgree) {
      InT[LoopIndex] = true;
      for (uint32_t Kid : SelectedKids)
        InT[Kid] = false;
    }
  }

  for (uint32_t I = 0; I < InT.size(); ++I)
    if (InT[I])
      Result.Selected.push_back(I);
  return Result;
}

SectionSummary
pbt::summarizeProcedure(const Procedure &P, const ProcedureFacts &Facts,
                        const std::vector<uint32_t> &TypeOfBlock,
                        uint32_t NumTypes,
                        const std::vector<double> &CalleeWeight,
                        const std::vector<uint32_t> &CalleeType,
                        double NestingBase) {
  std::vector<double> Weights(NumTypes, 0.0);
  uint64_t InstCount = 0;
  for (uint32_t Block : Facts.Dfs.Preorder) {
    const BasicBlock &BB = P.Blocks[Block];
    InstCount += BB.size();
    double Wn =
        std::pow(NestingBase, static_cast<double>(Facts.Loops.depthOf(Block)));
    accumulateNode(BB, Wn, TypeOfBlock, CalleeWeight, CalleeType, Weights);
  }
  return finishSummary(Weights, InstCount);
}
