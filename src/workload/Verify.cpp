//===- workload/Verify.cpp - Prepared-state self-verification -------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The verify-IR toggle and the static checks behind verifyPrep and
// verifyPrepared (workload/Runner.h).
//
//===----------------------------------------------------------------------===//

#include "workload/Runner.h"

#include "analysis/Dominators.h"
#include "analysis/NaturalLoops.h"
#include "sim/CostModel.h"
#include "sim/FlatImage.h"
#include "support/Env.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <set>
#include <tuple>

using namespace pbt;

namespace {

/// -1 = unset (consult the environment on first query), 0/1 = forced.
std::atomic<int> VerifyIRState{-1};

} // namespace

void pbt::setVerifyIR(bool Enabled) {
  VerifyIRState.store(Enabled ? 1 : 0);
}

bool pbt::verifyIREnabled() {
  int State = VerifyIRState.load();
  if (State < 0) {
    const char *Value = envString("PBT_VERIFY_IR");
    State = (Value && *Value && std::strcmp(Value, "0") != 0) ? 1 : 0;
    VerifyIRState.store(State);
  }
  return State == 1;
}

namespace {

bool failWith(std::string *Out, std::string Msg) {
  if (Out)
    *Out = std::move(Msg);
  return false;
}

std::string place(const char *What, uint32_t Proc, uint32_t Block) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%s at proc %u block %u", What, Proc,
                Block);
  return Buf;
}

bool bitEqual(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// Recomputes dominators and natural loops per procedure and checks the
/// analyses' own invariants against each other and the CFG.
bool checkCfgAnalyses(const Program &Prog, std::string *Out) {
  for (const Procedure &P : Prog.Procs) {
    DominatorTree DT(P);
    if (DT.idom(0) != 0)
      return failWith(Out, place("entry idom is not the entry", P.Id, 0));
    for (uint32_t B = 1; B < P.Blocks.size(); ++B) {
      int32_t Id = DT.idom(B);
      if (Id < 0)
        continue; // Unreachable block: dominates nothing, fine.
      if (static_cast<uint32_t>(Id) == B)
        return failWith(Out, place("non-entry block is its own idom",
                                   P.Id, B));
      if (!DT.dominates(static_cast<uint32_t>(Id), B))
        return failWith(Out,
                        place("idom does not dominate its block", P.Id, B));
    }

    LoopInfo LI = computeLoops(P);
    if (LI.InnermostLoop.size() != P.Blocks.size())
      return failWith(Out, place("innermost-loop map has wrong size", P.Id,
                                 0));
    for (size_t L = 0; L < LI.Loops.size(); ++L) {
      const Loop &Lp = LI.Loops[L];
      if (Lp.Header >= P.Blocks.size() || !Lp.contains(Lp.Header))
        return failWith(Out,
                        place("loop header outside loop", P.Id, Lp.Header));
      for (size_t I = 0; I < Lp.Blocks.size(); ++I) {
        uint32_t B = Lp.Blocks[I];
        if (B >= P.Blocks.size())
          return failWith(Out, place("loop member out of range", P.Id, B));
        if (I > 0 && Lp.Blocks[I - 1] >= B)
          return failWith(Out,
                          place("loop members not sorted", P.Id, B));
        if (!DT.dominates(Lp.Header, B))
          return failWith(
              Out, place("loop header does not dominate member", P.Id, B));
      }
      if (Lp.Parent >= 0) {
        if (static_cast<size_t>(Lp.Parent) >= LI.Loops.size())
          return failWith(Out,
                          place("loop parent out of range", P.Id, Lp.Header));
        const Loop &Par = LI.Loops[static_cast<size_t>(Lp.Parent)];
        if (Par.Depth + 1 != Lp.Depth)
          return failWith(
              Out, place("loop depth != parent depth + 1", P.Id, Lp.Header));
        if (std::find(Par.Children.begin(), Par.Children.end(),
                      static_cast<uint32_t>(L)) == Par.Children.end())
          return failWith(
              Out, place("loop missing from parent's children", P.Id,
                         Lp.Header));
        for (uint32_t B : Lp.Blocks)
          if (!Par.contains(B))
            return failWith(
                Out, place("nested loop member escapes parent", P.Id, B));
      } else if (Lp.Depth != 1) {
        return failWith(Out,
                        place("outermost loop depth != 1", P.Id, Lp.Header));
      }
    }
    for (uint32_t B = 0; B < P.Blocks.size(); ++B) {
      int32_t L = LI.InnermostLoop[B];
      if (L < 0)
        continue;
      if (static_cast<size_t>(L) >= LI.Loops.size() ||
          !LI.Loops[static_cast<size_t>(L)].contains(B))
        return failWith(
            Out, place("innermost-loop map disagrees with loop", P.Id, B));
    }
  }
  return true;
}

/// Mark-placement legality against the program: anchors in range, edge
/// marks on real edges, call marks on call-terminated blocks, no
/// duplicate anchors, phase types within the typing universe.
bool checkMarks(const Program &Prog, const std::vector<PhaseMark> &Marks,
                uint32_t NumTypes, std::string *Out) {
  std::set<std::tuple<uint32_t, uint32_t, uint8_t, uint32_t>> Anchors;
  for (const PhaseMark &M : Marks) {
    if (M.Proc >= Prog.Procs.size())
      return failWith(Out, place("mark proc out of range", M.Proc, M.Block));
    const Procedure &P = Prog.Procs[M.Proc];
    if (M.Block >= P.Blocks.size())
      return failWith(Out, place("mark block out of range", M.Proc, M.Block));
    const BasicBlock &BB = P.Blocks[M.Block];
    if (M.Point == MarkPoint::Edge) {
      if (M.SuccIndex >= 2 || M.SuccIndex >= BB.Succs.size())
        return failWith(
            Out, place("edge mark on nonexistent edge", M.Proc, M.Block));
    } else if (M.Point == MarkPoint::CallSite) {
      if (BB.calleeOrNone() < 0)
        return failWith(
            Out, place("call mark on call-free block", M.Proc, M.Block));
    } else {
      return failWith(Out, place("invalid mark point", M.Proc, M.Block));
    }
    if (M.PhaseType >= std::max(1u, NumTypes))
      return failWith(Out,
                      place("mark phase type out of range", M.Proc, M.Block));
    uint32_t Slot = M.Point == MarkPoint::CallSite ? 0 : M.SuccIndex;
    if (!Anchors
             .emplace(M.Proc, M.Block, static_cast<uint8_t>(M.Point), Slot)
             .second)
      return failWith(Out, place("duplicate mark anchor", M.Proc, M.Block));
  }
  return true;
}

/// Typing shape: one type per block, all within [0, NumTypes).
bool checkTyping(const Program &Prog, const ProgramTyping &Typing,
                 std::string *Out) {
  if (Typing.NumTypes == 0)
    return failWith(Out, "typing has zero types");
  if (Typing.TypeOf.size() != Prog.Procs.size())
    return failWith(Out, "typing proc count mismatch");
  for (uint32_t P = 0; P < Prog.Procs.size(); ++P) {
    if (Typing.TypeOf[P].size() != Prog.Procs[P].Blocks.size())
      return failWith(Out, place("typing row size mismatch", P, 0));
    for (uint32_t B = 0; B < Typing.TypeOf[P].size(); ++B)
      if (Typing.TypeOf[P][B] >= Typing.NumTypes)
        return failWith(Out, place("block type out of range", P, B));
  }
  return true;
}

/// The flat image re-derived from its own program and cost model: every
/// record, mark index, cost-table row, and chain summary must equal
/// what the constructor computes, with chain cycle sums re-walked in
/// the exact engines' left-to-right order.
bool checkFlat(const FlatImage &F, std::string *Out) {
  const InstrumentedProgram &IP = F.program();
  const Program &Prog = IP.program();
  const CostModel &CM = F.cost();
  const std::vector<PhaseMark> &Marks = IP.marks();
  const uint32_t Stride = F.configStride();
  const uint32_t MaxSharers = F.maxSharers();

  if (F.numCoreTypes() != CM.machine().numCoreTypes() ||
      MaxSharers != CM.maxSharers() ||
      Stride != F.numCoreTypes() * MaxSharers || Stride == 0)
    return failWith(Out, "flat image machine shape mismatch");

  // Global-block-id contiguity: procedure offsets partition [0, total).
  if (F.numProcs() != Prog.Procs.size())
    return failWith(Out, "flat image proc count mismatch");
  uint32_t Expected = 0;
  for (uint32_t P = 0; P < F.numProcs(); ++P) {
    if (F.offsetOf(P) != Expected)
      return failWith(Out, place("global block ids not contiguous", P, 0));
    Expected += static_cast<uint32_t>(Prog.Procs[P].Blocks.size());
  }
  if (F.numBlocks() != Expected)
    return failWith(Out, "flat image block count mismatch");

  auto MarkIndex = [&](const PhaseMark *M) -> int32_t {
    return M ? static_cast<int32_t>(M - Marks.data()) : -1;
  };

  uint32_t ChainSeen = 0;
  for (uint32_t P = 0; P < F.numProcs(); ++P) {
    const Procedure &Proc = Prog.Procs[P];
    for (uint32_t B = 0; B < Proc.Blocks.size(); ++B) {
      const uint32_t G = F.globalId(P, B);
      const FlatBlock &FB = F.block(G);
      const BasicBlock &BB = Proc.Blocks[B];

      if (FB.Insts != BB.size() || FB.Insts != CM.blockInsts(P, B))
        return failWith(Out,
                        place("flat instruction count mismatch", P, B));

      // Cost-model binding: the inlined cycle rows must be bit-equal to
      // the cost model's answers for every (core type, sharers) config.
      if (FB.CycleRow != G * Stride)
        return failWith(Out, place("cycle row out of layout", P, B));
      for (uint32_t Ct = 0; Ct < F.numCoreTypes(); ++Ct)
        for (uint32_t Sharers = 1; Sharers <= MaxSharers; ++Sharers)
          if (!bitEqual(
                  F.cycleTable()[FB.CycleRow + Ct * MaxSharers +
                                 (Sharers - 1)],
                  CM.blockCycles(P, B, Ct, Sharers)))
            return failWith(
                Out, place("cycle table differs from cost model", P, B));
      for (uint32_t Cfg = 0; Cfg < Stride; ++Cfg)
        if (!onCycleGrid(F.cycleTable()[FB.CycleRow + Cfg]))
          return failWith(Out, place("cycle table off the cycle grid", P, B));

      int32_t E0 = MarkIndex(IP.edgeMark(P, B, 0));
      int32_t E1 = MarkIndex(IP.edgeMark(P, B, 1));
      int32_t CMk = MarkIndex(IP.callMark(P, B));
      if (BB.Term == TermKind::Cond && BB.Succs.size() < 2)
        E1 = E0; // The builder's single-successor Cond fold.
      if (FB.EdgeMark[0] != E0 || FB.EdgeMark[1] != E1 ||
          FB.CallMark != CMk)
        return failWith(Out,
                        place("flat mark lookup mismatch", P, B));

      switch (BB.Term) {
      case TermKind::Jump: {
        if (FB.Succ[0] != F.globalId(P, BB.Succs[0]))
          return failWith(Out, place("jump successor mismatch", P, B));
        int32_t Callee = BB.calleeOrNone();
        if (Callee >= 0) {
          if (FB.Op != FlatOp::Call ||
              FB.Callee != F.offsetOf(static_cast<uint32_t>(Callee)))
            return failWith(Out, place("call record mismatch", P, B));
        } else if (FB.Op !=
                   (FB.EdgeMark[0] >= 0 ? FlatOp::Jump : FlatOp::Chain)) {
          // Chains must cover exactly the mark-free, call-free jumps.
          return failWith(Out, place("jump/chain op mismatch", P, B));
        }
        break;
      }
      case TermKind::Loop:
        if (FB.Op != FlatOp::Loop ||
            FB.Succ[0] != F.globalId(P, BB.Succs[0]) ||
            FB.Succ[1] != F.globalId(P, BB.Succs[1]) ||
            FB.TripCount != BB.TripCount)
          return failWith(Out, place("loop record mismatch", P, B));
        break;
      case TermKind::Cond:
        if (FB.Op != FlatOp::Cond ||
            FB.Succ[0] != F.globalId(P, BB.Succs[0]) ||
            FB.Succ[1] !=
                F.globalId(P, BB.Succs[BB.Succs.size() > 1 ? 1 : 0]) ||
            !bitEqual(FB.TakenProb, BB.TakenProb))
          return failWith(Out, place("cond record mismatch", P, B));
        break;
      case TermKind::Ret:
        if (FB.Op != FlatOp::Ret)
          return failWith(Out, place("ret record mismatch", P, B));
        break;
      }

      if (FB.Op != FlatOp::Chain)
        continue;

      // Chain well-formedness. Rows are assigned sequentially in block
      // order; summaries obey the suffix recurrence; and the fused
      // cycle sums must equal a fresh left-to-right walk bit for bit.
      if (FB.ChainRow != ChainSeen * Stride)
        return failWith(Out, place("chain row out of order", P, B));
      ++ChainSeen;
      const FlatBlock &S = F.block(FB.Succ[0]);
      if (FB.ChainBlocks == 0) {
        // No summary: only legal when the record feeds a mark-free jump
        // cycle, i.e. its successor is another summary-less chain.
        if (S.Op != FlatOp::Chain || S.ChainBlocks != 0)
          return failWith(
              Out, place("summary-less chain does not feed a cycle", P, B));
        continue;
      }
      if (S.Op == FlatOp::Chain) {
        if (S.ChainBlocks == 0 || S.ChainBlocks + 1 != FB.ChainBlocks ||
            FB.ChainInsts != FB.Insts + S.ChainInsts ||
            FB.ChainExit != S.ChainExit)
          return failWith(Out, place("chain suffix mismatch", P, B));
      } else if (FB.ChainBlocks != 1 || FB.ChainInsts != FB.Insts ||
                 FB.ChainExit != FB.Succ[0]) {
        return failWith(Out, place("chain tail mismatch", P, B));
      }
      if (F.block(FB.ChainExit).Op == FlatOp::Chain)
        return failWith(Out, place("chain exit is a chain record", P, B));
      for (uint32_t Cfg = 0; Cfg < Stride; ++Cfg) {
        double Sum = 0.0;
        uint32_t Cur = G;
        for (uint32_t Step = 0; Step < FB.ChainBlocks; ++Step) {
          const FlatBlock &W = F.block(Cur);
          if (W.Op != FlatOp::Chain)
            return failWith(Out,
                            place("chain walk leaves chain early", P, B));
          Sum += F.cycleTable()[W.CycleRow + Cfg];
          Cur = W.Succ[0];
        }
        if (Cur != FB.ChainExit)
          return failWith(Out, place("chain walk exit mismatch", P, B));
        if (!bitEqual(Sum, F.chainCycleTable()[FB.ChainRow + Cfg]))
          return failWith(
              Out,
              place("chain cycle sum differs from exact walk", P, B));
        if (!onCycleGrid(Sum))
          return failWith(Out, place("chain cycle sum off the cycle grid",
                                     P, B));
      }
    }
  }
  if (ChainSeen != F.chainRecordCount())
    return failWith(Out, "chain record count mismatch");
  return true;
}

} // namespace

bool pbt::verifyPrep(const ProgramPrep &PC, const TechniqueSpec *Tech,
                     std::string *ErrorOut) {
  const Program *Prog = PC.Prog;
  if (!Prog && PC.Image)
    Prog = &PC.Image->program();
  if (!Prog)
    return failWith(ErrorOut, "no program to verify");

  std::string Err;
  if (!verify(*Prog, &Err))
    return failWith(ErrorOut, "program invariant: " + Err);
  if (!checkCfgAnalyses(*Prog, ErrorOut))
    return false;

  if (PC.Cost) {
    // Cost-model binding against the IR: entry layout and instruction
    // counts (cycle tables are cross-checked via the flat image below).
    for (uint32_t P = 0; P < Prog->Procs.size(); ++P)
      for (uint32_t B = 0; B < Prog->Procs[P].Blocks.size(); ++B)
        if (PC.Cost->blockInsts(P, B) != Prog->Procs[P].Blocks[B].size())
          return failWith(ErrorOut,
                          place("cost model disagrees with program", P, B));
    if (!PC.Cost->onGrid())
      return failWith(ErrorOut, "cost table entry off the cycle grid");
  }

  if (PC.Typed && !checkTyping(*Prog, PC.Typing, ErrorOut))
    return false;

  if (PC.Marked && !PC.Image) {
    // Pre-instrumentation marking (the instrument pass moves it into
    // the image, after which the image's copy is the one checked).
    if (PC.Marking.NumTypes == 0)
      return failWith(ErrorOut, "marking has zero types");
    if (PC.Marking.RegionType.size() != Prog->Procs.size())
      return failWith(ErrorOut, "marking region-type proc count mismatch");
    for (uint32_t P = 0; P < Prog->Procs.size(); ++P) {
      const std::vector<uint32_t> &Row = PC.Marking.RegionType[P];
      if (!Row.empty() && Row.size() != Prog->Procs[P].Blocks.size())
        return failWith(ErrorOut,
                        place("region-type row size mismatch", P, 0));
      for (uint32_t Type : Row)
        if (Type >= std::max(1u, PC.Marking.NumTypes))
          return failWith(ErrorOut,
                          place("region type out of range", P, 0));
    }
    if (!checkMarks(*Prog, PC.Marking.Marks, PC.Marking.NumTypes, ErrorOut))
      return false;
  }

  if (PC.Image) {
    const InstrumentedProgram &IP = *PC.Image;
    // The image carries its own program copy; it must still satisfy the
    // IR invariants and describe the same program.
    if (&IP.program() != Prog) {
      if (!verify(IP.program(), &Err))
        return failWith(ErrorOut, "image program invariant: " + Err);
      if (IP.program().Name != Prog->Name ||
          IP.program().Procs.size() != Prog->Procs.size() ||
          IP.program().blockCount() != Prog->blockCount())
        return failWith(ErrorOut, "image program diverged from source");
    }
    if (IP.numTypes() == 0)
      return failWith(ErrorOut, "image has zero phase types");
    if (!checkMarks(IP.program(), IP.marks(), IP.numTypes(), ErrorOut))
      return false;
    if (Tech && IP.cost() != Tech->Cost)
      return failWith(ErrorOut,
                      "image mark-cost model differs from technique");
  }

  if (PC.Flat) {
    if (PC.Image && &PC.Flat->program() != PC.Image.get())
      return failWith(ErrorOut, "flat image bound to a different image");
    if (PC.Cost && &PC.Flat->cost() != PC.Cost.get())
      return failWith(ErrorOut, "flat image bound to a different cost model");
    if (!checkFlat(*PC.Flat, ErrorOut))
      return false;
  }

  return true;
}

bool pbt::verifyPrepared(const PreparedSuite &Suite, const MachineConfig &,
                         std::string *ErrorOut) {
  if (Suite.Images.size() != Suite.Costs.size() ||
      Suite.Images.size() != Suite.Flats.size() ||
      Suite.Images.size() != Suite.Names.size())
    return failWith(ErrorOut, "suite arrays have mismatched sizes");
  for (size_t I = 0; I < Suite.Images.size(); ++I) {
    ProgramPrep PC;
    PC.Prog = &Suite.Images[I]->program();
    PC.Cost = Suite.Costs[I];
    PC.Image = Suite.Images[I];
    PC.Flat = Suite.Flats[I];
    std::string Err;
    if (!verifyPrep(PC, nullptr, &Err))
      return failWith(ErrorOut, "suite[" + std::to_string(I) + "] '" +
                                    Suite.Names[I] + "': " + Err);
  }
  return true;
}
