//===- analysis/Intervals.cpp - Allen-Cocke interval partition -----------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Intervals.h"

#include "analysis/CfgAlgorithms.h"

#include <cassert>
#include <deque>

using namespace pbt;

IntervalPartition pbt::computeIntervals(const Procedure &P) {
  return computeIntervals(P, runDfs(P), predecessors(P));
}

IntervalPartition
pbt::computeIntervals(const Procedure &P, const CfgDfsResult &Dfs,
                      const std::vector<std::vector<uint32_t>> &Preds) {
  IntervalPartition Partition;
  size_t N = P.Blocks.size();
  constexpr uint32_t None = UINT32_MAX;
  Partition.IntervalOf.assign(N, None);


  std::vector<bool> IsHeader(N, false);
  std::deque<uint32_t> Headers;
  Headers.push_back(0);
  IsHeader[0] = true;

  while (!Headers.empty()) {
    uint32_t Header = Headers.front();
    Headers.pop_front();

    uint32_t IntervalIndex = static_cast<uint32_t>(Partition.Intervals.size());
    Partition.Intervals.push_back({Header, {Header}});
    Partition.IntervalOf[Header] = IntervalIndex;
    Interval &I = Partition.Intervals.back();

    // Grow: repeatedly absorb any reachable block all of whose
    // predecessors are already inside the interval.
    bool Grew = true;
    while (Grew) {
      Grew = false;
      for (uint32_t Block = 0; Block < N; ++Block) {
        if (!Dfs.Reachable[Block] || Partition.IntervalOf[Block] != None ||
            IsHeader[Block])
          continue;
        if (Preds[Block].empty())
          continue;
        bool AllInside = true;
        for (uint32_t Pred : Preds[Block]) {
          if (!Dfs.Reachable[Pred])
            continue;
          if (Partition.IntervalOf[Pred] != IntervalIndex) {
            AllInside = false;
            break;
          }
        }
        if (!AllInside)
          continue;
        Partition.IntervalOf[Block] = IntervalIndex;
        I.Blocks.push_back(Block);
        Grew = true;
      }
    }

    // New headers: blocks outside every interval so far with at least one
    // predecessor inside this one.
    for (uint32_t Member : I.Blocks) {
      for (uint32_t Succ : P.Blocks[Member].Succs) {
        if (Partition.IntervalOf[Succ] != None || IsHeader[Succ])
          continue;
        IsHeader[Succ] = true;
        Headers.push_back(Succ);
      }
    }
  }

  // Totalize over unreachable blocks.
  for (uint32_t Block = 0; Block < N; ++Block) {
    if (Partition.IntervalOf[Block] != None)
      continue;
    Partition.IntervalOf[Block] =
        static_cast<uint32_t>(Partition.Intervals.size());
    Partition.Intervals.push_back({Block, {Block}});
  }

  return Partition;
}
