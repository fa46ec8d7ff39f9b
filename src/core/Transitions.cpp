//===- core/Transitions.cpp - Phase-transition detection ------------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Transitions.h"

#include "core/Summaries.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <tuple>

using namespace pbt;

const char *pbt::strategyName(Strategy S) {
  switch (S) {
  case Strategy::BasicBlock:
    return "BB";
  case Strategy::Interval:
    return "Int";
  case Strategy::Loop:
    return "Loop";
  }
  return "?";
}

std::string TransitionConfig::label() const {
  std::string Out = strategyName(Strat);
  Out += "[" + std::to_string(MinSize);
  if (Strat == Strategy::BasicBlock)
    Out += "," + std::to_string(Lookahead);
  Out += "]";
  return Out;
}

uint64_t pbt::hashValue(const TransitionConfig &Config) {
  uint64_t H = hashCombine(0x712A5B, static_cast<uint64_t>(Config.Strat));
  H = hashCombine(H, Config.MinSize);
  H = hashCombine(H, Config.Lookahead);
  H = hashCombine(H, Config.Naive ? 1 : 0);
  H = hashCombine(H, hashDouble(Config.NestingBase));
  return hashCombine(H, hashDouble(Config.CycleWeight));
}

namespace {

/// Shared helper: forward-propagates effective types in reverse postorder.
/// Considered blocks keep their own type; skipped blocks inherit from the
/// first already-typed predecessor (falling back to their own type).
std::vector<uint32_t>
propagateEffectiveTypes(const Procedure &P, const ProcedureFacts &Facts,
                        const std::vector<uint32_t> &OwnType,
                        const std::vector<bool> &Considered) {
  std::vector<uint32_t> Eff = OwnType;
  std::vector<bool> Typed(P.Blocks.size(), false);
  const std::vector<uint32_t> &Post = Facts.Dfs.Postorder;
  for (auto It = Post.rbegin(); It != Post.rend(); ++It) {
    uint32_t Block = *It;
    if (Considered[Block] || Block == 0) {
      Typed[Block] = true;
      continue;
    }
    for (uint32_t Pred : Facts.Preds[Block]) {
      if (!Typed[Pred])
        continue;
      Eff[Block] = Eff[Pred];
      break;
    }
    Typed[Block] = true;
  }
  return Eff;
}

/// Lookahead filter (Sec. II-A2a): insert a mark into \p Target only if a
/// strict majority of the blocks reachable within \p Depth successor
/// steps share \p TargetType.
bool lookaheadAccepts(const Procedure &P,
                      const std::vector<uint32_t> &EffType, uint32_t Target,
                      uint32_t TargetType, uint32_t Depth) {
  if (Depth == 0)
    return true;
  std::vector<bool> Seen(P.Blocks.size(), false);
  std::deque<std::pair<uint32_t, uint32_t>> Queue; // (block, distance)
  Seen[Target] = true;
  Queue.emplace_back(Target, 0);
  uint32_t Total = 0;
  uint32_t Agreeing = 0;
  while (!Queue.empty()) {
    auto [Block, Dist] = Queue.front();
    Queue.pop_front();
    if (Dist >= Depth)
      continue;
    for (uint32_t Succ : P.Blocks[Block].Succs) {
      if (Seen[Succ])
        continue;
      Seen[Succ] = true;
      ++Total;
      if (EffType[Succ] == TargetType)
        ++Agreeing;
      Queue.emplace_back(Succ, Dist + 1);
    }
  }
  if (Total == 0)
    return true; // No successors to consult; keep the mark.
  return 2 * Agreeing > Total;
}

void runBasicBlockStrategy(const Program &Prog, const ProgramFacts &Facts,
                           const ProgramTyping &Typing,
                           const TransitionConfig &Config,
                           MarkingResult &Result) {
  for (const Procedure &P : Prog.Procs) {
    const std::vector<uint32_t> &OwnType = Typing.TypeOf[P.Id];
    std::vector<bool> Considered(P.Blocks.size(), false);
    for (const BasicBlock &BB : P.Blocks) {
      Considered[BB.Id] = Config.Naive || BB.size() >= Config.MinSize;
      if (Considered[BB.Id])
        ++Result.SectionsConsidered;
    }
    std::vector<uint32_t> Eff =
        propagateEffectiveTypes(P, Facts.Procs[P.Id], OwnType, Considered);
    Result.RegionType[P.Id] = Eff;

    for (const BasicBlock &BB : P.Blocks) {
      for (uint32_t SuccIndex = 0; SuccIndex < BB.Succs.size();
           ++SuccIndex) {
        uint32_t Target = BB.Succs[SuccIndex];
        if (!Considered[Target])
          continue;
        uint32_t TargetType = OwnType[Target];
        if (TargetType == Eff[BB.Id])
          continue;
        if (!lookaheadAccepts(P, Eff, Target, TargetType, Config.Lookahead))
          continue;
        Result.Marks.push_back(
            {P.Id, BB.Id, SuccIndex, MarkPoint::Edge, TargetType});
      }
    }
  }
}

void runIntervalStrategy(const Program &Prog, const ProgramFacts &Facts,
                         const ProgramTyping &Typing,
                         const TransitionConfig &Config,
                         MarkingResult &Result) {
  for (const Procedure &P : Prog.Procs) {
    const std::vector<uint32_t> &OwnType = Typing.TypeOf[P.Id];
    const ProcedureFacts &F = Facts.Procs[P.Id];
    const IntervalPartition &Partition = F.Intervals;
    std::vector<SectionSummary> Summaries = summarizeIntervals(
        P, F, OwnType, Typing.NumTypes, Config.CycleWeight);

    // Effective type per interval: considered intervals use their
    // dominant type; small intervals inherit from the interval feeding
    // their header (propagated in discovery order, which is entry-first).
    size_t NumIntervals = Partition.Intervals.size();
    std::vector<bool> Considered(NumIntervals, false);
    std::vector<uint32_t> Eff(NumIntervals, 0);
    for (size_t I = 0; I < NumIntervals; ++I) {
      Considered[I] = Summaries[I].InstCount >= Config.MinSize;
      if (Considered[I])
        ++Result.SectionsConsidered;
      Eff[I] = Summaries[I].DominantType;
      if (Considered[I] || I == 0)
        continue;
      uint32_t Header = Partition.Intervals[I].Header;
      for (uint32_t Pred : F.Preds[Header]) {
        uint32_t PredInterval = Partition.IntervalOf[Pred];
        if (PredInterval < I) {
          Eff[I] = Eff[PredInterval];
          break;
        }
      }
    }

    Result.RegionType[P.Id].assign(P.Blocks.size(), 0);
    for (const BasicBlock &BB : P.Blocks)
      Result.RegionType[P.Id][BB.Id] = Eff[Partition.IntervalOf[BB.Id]];

    for (const BasicBlock &BB : P.Blocks) {
      uint32_t SrcInterval = Partition.IntervalOf[BB.Id];
      for (uint32_t SuccIndex = 0; SuccIndex < BB.Succs.size();
           ++SuccIndex) {
        uint32_t Target = BB.Succs[SuccIndex];
        uint32_t DstInterval = Partition.IntervalOf[Target];
        if (SrcInterval == DstInterval || !Considered[DstInterval])
          continue;
        // Marks belong on interval-entry edges only (the header); other
        // cross-interval edges cannot exist by construction.
        if (Summaries[DstInterval].DominantType == Eff[SrcInterval])
          continue;
        Result.Marks.push_back({P.Id, BB.Id, SuccIndex, MarkPoint::Edge,
                                Summaries[DstInterval].DominantType});
      }
    }
  }
}

void runLoopStrategy(const Program &Prog, const ProgramFacts &Facts,
                     const ProgramTyping &Typing,
                     const TransitionConfig &Config, MarkingResult &Result) {
  size_t NumProcs = Prog.Procs.size();
  const CallGraph &Cg = Facts.Calls;

  // Inter-procedural summaries, bottom-up with a fixpoint for recursion.
  // Initial approximations let recursive cliques converge.
  std::vector<uint32_t> ProcType(NumProcs);
  std::vector<double> ProcWeight(NumProcs);
  for (const Procedure &P : Prog.Procs) {
    ProcType[P.Id] = Typing.TypeOf[P.Id][0];
    ProcWeight[P.Id] = static_cast<double>(P.instructionCount());
  }

  std::vector<LoopSummaryResult> LoopSums(NumProcs);

  constexpr double WeightCap = 1e7;
  auto AnalyzeProc = [&](uint32_t ProcId) {
    const Procedure &P = Prog.Procs[ProcId];
    const ProcedureFacts &F = Facts.Procs[ProcId];
    LoopSums[ProcId] =
        summarizeLoops(P, F.Loops, Typing.TypeOf[ProcId], Typing.NumTypes,
                       ProcWeight, ProcType, Config.NestingBase);
    SectionSummary Whole = summarizeProcedure(
        P, F, Typing.TypeOf[ProcId], Typing.NumTypes, ProcWeight, ProcType,
        Config.NestingBase);
    bool Changed = ProcType[ProcId] != Whole.DominantType;
    ProcType[ProcId] = Whole.DominantType;
    double NewWeight = static_cast<double>(P.instructionCount());
    for (uint32_t Callee : Cg.Callees[ProcId])
      NewWeight += 0.5 * ProcWeight[Callee];
    NewWeight = std::min(NewWeight, WeightCap);
    Changed |= NewWeight != ProcWeight[ProcId];
    ProcWeight[ProcId] = NewWeight;
    return Changed;
  };

  for (uint32_t ProcId : Cg.BottomUpOrder) {
    AnalyzeProc(ProcId);
    if (!Cg.isRecursive(ProcId))
      continue;
    // Re-analyze the whole SCC until a fixpoint (bounded).
    for (int Pass = 0; Pass < 8; ++Pass) {
      bool AnyChange = false;
      for (uint32_t Other : Cg.BottomUpOrder)
        if (Cg.SccId[Other] == Cg.SccId[ProcId])
          AnyChange |= AnalyzeProc(Other);
      if (!AnyChange)
        break;
    }
  }

  // Region formation per procedure: selected loops meeting the size
  // filter become regions; everything else is the procedure background.
  for (const Procedure &P : Prog.Procs) {
    const LoopInfo &LI = Facts.Procs[P.Id].Loops;
    const LoopSummaryResult &LS = LoopSums[P.Id];
    const std::vector<uint32_t> &OwnType = Typing.TypeOf[P.Id];

    std::vector<uint32_t> BigSelected;
    for (uint32_t LoopIndex : LS.Selected)
      if (LS.Summaries[LoopIndex].InstCount >= Config.MinSize)
        BigSelected.push_back(LoopIndex);
    Result.SectionsConsidered += BigSelected.size();

    // RegionOf[block]: index into BigSelected of the innermost region
    // containing the block, or -1 for background. Larger regions first so
    // inner (smaller) regions overwrite.
    std::vector<int32_t> RegionOf(P.Blocks.size(), -1);
    std::vector<uint32_t> Order = BigSelected;
    std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
      return LI.Loops[A].Blocks.size() > LI.Loops[B].Blocks.size();
    });
    for (uint32_t LoopIndex : Order)
      for (uint32_t Block : LI.Loops[LoopIndex].Blocks)
        RegionOf[Block] = static_cast<int32_t>(LoopIndex);

    // Background type: instruction-weighted dominant type of blocks
    // outside every region; fall back to the entry block's type.
    std::vector<double> BgWeights(Typing.NumTypes, 0.0);
    for (const BasicBlock &BB : P.Blocks)
      if (RegionOf[BB.Id] < 0)
        BgWeights[OwnType[BB.Id]] += static_cast<double>(BB.size());
    uint32_t BgType = OwnType[0];
    double BgBest = 0;
    for (uint32_t T = 0; T < Typing.NumTypes; ++T)
      if (BgWeights[T] > BgBest) {
        BgBest = BgWeights[T];
        BgType = T;
      }

    auto TypeOfRegion = [&](int32_t LoopIndex) {
      return LoopIndex < 0
                 ? BgType
                 : LS.Summaries[static_cast<uint32_t>(LoopIndex)]
                       .DominantType;
    };

    Result.RegionType[P.Id].assign(P.Blocks.size(), BgType);
    for (const BasicBlock &BB : P.Blocks)
      Result.RegionType[P.Id][BB.Id] = TypeOfRegion(RegionOf[BB.Id]);

    // Intra-procedural marks: region-crossing edges with a type change.
    for (const BasicBlock &BB : P.Blocks) {
      for (uint32_t SuccIndex = 0; SuccIndex < BB.Succs.size();
           ++SuccIndex) {
        uint32_t Target = BB.Succs[SuccIndex];
        if (RegionOf[BB.Id] == RegionOf[Target])
          continue;
        uint32_t SrcType = TypeOfRegion(RegionOf[BB.Id]);
        uint32_t DstType = TypeOfRegion(RegionOf[Target]);
        if (SrcType == DstType)
          continue;
        Result.Marks.push_back(
            {P.Id, BB.Id, SuccIndex, MarkPoint::Edge, DstType});
      }
    }

    // Call-site marks: fire when the callee's summarized type differs
    // from the calling region; the matching return transition rides the
    // call block's continuation edge.
    for (const BasicBlock &BB : P.Blocks) {
      int32_t Callee = BB.calleeOrNone();
      if (Callee < 0)
        continue;
      uint32_t Here = TypeOfRegion(RegionOf[BB.Id]);
      uint32_t CalleeType = ProcType[static_cast<uint32_t>(Callee)];
      if (CalleeType == Here)
        continue;
      Result.Marks.push_back(
          {P.Id, BB.Id, 0, MarkPoint::CallSite, CalleeType});
      assert(BB.Term == TermKind::Jump && !BB.Succs.empty() &&
             "call block must have a continuation");
      uint32_t ContType = TypeOfRegion(RegionOf[BB.Succs[0]]);
      if (ContType != CalleeType)
        Result.Marks.push_back(
            {P.Id, BB.Id, 0, MarkPoint::Edge, ContType});
    }
  }
}

} // namespace

MarkingResult pbt::computeTransitions(const Program &Prog,
                                      const ProgramTyping &Typing,
                                      const TransitionConfig &Config) {
  return computeTransitions(Prog, computeProgramFacts(Prog), Typing, Config);
}

MarkingResult pbt::computeTransitions(const Program &Prog,
                                      const ProgramFacts &Facts,
                                      const ProgramTyping &Typing,
                                      const TransitionConfig &Config) {
  assert(Typing.TypeOf.size() == Prog.Procs.size() &&
         "typing does not match program");
  assert(Facts.Procs.size() == Prog.Procs.size() &&
         "facts do not match program");
  MarkingResult Result;
  Result.NumTypes = Typing.NumTypes;
  Result.RegionType.resize(Prog.Procs.size());

  switch (Config.Strat) {
  case Strategy::BasicBlock:
    runBasicBlockStrategy(Prog, Facts, Typing, Config, Result);
    break;
  case Strategy::Interval:
    runIntervalStrategy(Prog, Facts, Typing, Config, Result);
    break;
  case Strategy::Loop:
    runLoopStrategy(Prog, Facts, Typing, Config, Result);
    break;
  }

  // Canonical order + dedup (strategies may emit an edge twice, e.g. a
  // loop-exit edge that is also a call continuation).
  auto Key = [](const PhaseMark &M) {
    return std::tuple(M.Proc, M.Block, M.Point, M.SuccIndex, M.PhaseType);
  };
  std::sort(Result.Marks.begin(), Result.Marks.end(),
            [&](const PhaseMark &A, const PhaseMark &B) {
              return Key(A) < Key(B);
            });
  Result.Marks.erase(
      std::unique(Result.Marks.begin(), Result.Marks.end(),
                  [&](const PhaseMark &A, const PhaseMark &B) {
                    return std::tuple(A.Proc, A.Block, A.Point,
                                      A.SuccIndex) ==
                           std::tuple(B.Proc, B.Block, B.Point, B.SuccIndex);
                  }),
      Result.Marks.end());
  return Result;
}
