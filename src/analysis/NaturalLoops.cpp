//===- analysis/NaturalLoops.cpp - Natural loops and nesting -------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/NaturalLoops.h"

#include "analysis/CfgAlgorithms.h"
#include "analysis/Dominators.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

using namespace pbt;

bool Loop::contains(uint32_t Block) const {
  return std::binary_search(Blocks.begin(), Blocks.end(), Block);
}

bool LoopInfo::strictlyNested(uint32_t Inner, uint32_t Outer) const {
  assert(Inner < Loops.size() && Outer < Loops.size() && "loop out of range");
  int32_t Cursor = Loops[Inner].Parent;
  while (Cursor >= 0) {
    if (static_cast<uint32_t>(Cursor) == Outer)
      return true;
    Cursor = Loops[static_cast<uint32_t>(Cursor)].Parent;
  }
  return false;
}

LoopInfo pbt::computeLoops(const Procedure &P) {
  return computeLoops(P, runDfs(P), predecessors(P));
}

LoopInfo pbt::computeLoops(const Procedure &P, const CfgDfsResult &Dfs,
                           const std::vector<std::vector<uint32_t>> &Preds) {
  LoopInfo Info;
  size_t N = P.Blocks.size();
  Info.InnermostLoop.assign(N, -1);

  DominatorTree Dom(P);

  // Collect natural loops per header: for each back edge (t -> h) with
  // h dom t, the loop body is h plus all blocks that reach t without
  // passing through h.
  std::map<uint32_t, std::set<uint32_t>> BodyByHeader;
  for (const CfgEdge &Edge : Dfs.BackEdges) {
    uint32_t Tail = Edge.Src;
    uint32_t Header = P.Blocks[Tail].Succs[Edge.SuccIndex];
    if (!Dom.dominates(Header, Tail))
      continue; // Irreducible edge: not a natural loop; skip it.
    std::set<uint32_t> &Body = BodyByHeader[Header];
    Body.insert(Header);
    if (Body.count(Tail))
      continue;
    std::vector<uint32_t> Work{Tail};
    Body.insert(Tail);
    while (!Work.empty()) {
      uint32_t Block = Work.back();
      Work.pop_back();
      for (uint32_t Pred : Preds[Block]) {
        if (!Dfs.Reachable[Pred] || Body.count(Pred))
          continue;
        Body.insert(Pred);
        Work.push_back(Pred);
      }
    }
  }

  for (auto &[Header, Body] : BodyByHeader) {
    Loop L;
    L.Header = Header;
    L.Blocks.assign(Body.begin(), Body.end());
    Info.Loops.push_back(std::move(L));
  }

  // Nesting: sort loop indices by size ascending; the parent of a loop is
  // the smallest strictly-larger loop containing its header. With merged
  // headers, containment of the header implies containment of the body.
  std::vector<uint32_t> BySize(Info.Loops.size());
  for (uint32_t I = 0; I < BySize.size(); ++I)
    BySize[I] = I;
  std::sort(BySize.begin(), BySize.end(), [&](uint32_t A, uint32_t B) {
    if (Info.Loops[A].Blocks.size() != Info.Loops[B].Blocks.size())
      return Info.Loops[A].Blocks.size() < Info.Loops[B].Blocks.size();
    return Info.Loops[A].Header < Info.Loops[B].Header;
  });

  for (size_t I = 0; I < BySize.size(); ++I) {
    uint32_t Inner = BySize[I];
    for (size_t J = I + 1; J < BySize.size(); ++J) {
      uint32_t Outer = BySize[J];
      if (Info.Loops[Outer].Blocks.size() <=
          Info.Loops[Inner].Blocks.size())
        continue;
      if (Info.Loops[Outer].contains(Info.Loops[Inner].Header)) {
        Info.Loops[Inner].Parent = static_cast<int32_t>(Outer);
        Info.Loops[Outer].Children.push_back(Inner);
        break;
      }
    }
  }

  // Depths: walk parent chains (forest is shallow; fine to be quadratic).
  for (uint32_t I = 0; I < Info.Loops.size(); ++I) {
    uint32_t Depth = 1;
    int32_t Cursor = Info.Loops[I].Parent;
    while (Cursor >= 0) {
      ++Depth;
      Cursor = Info.Loops[static_cast<uint32_t>(Cursor)].Parent;
    }
    Info.Loops[I].Depth = Depth;
  }

  // Innermost-loop map: visit loops from outermost (largest) to innermost
  // (smallest) so the smallest containing loop wins.
  for (auto It = BySize.rbegin(); It != BySize.rend(); ++It)
    for (uint32_t Block : Info.Loops[*It].Blocks)
      Info.InnermostLoop[Block] = static_cast<int32_t>(*It);

  return Info;
}
