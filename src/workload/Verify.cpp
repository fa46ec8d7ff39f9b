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

/// The technique's mark table against its marks, mark by mark: every
/// mark sits in its anchor's slot, and every set slot names the mark
/// anchored there. The one exception is edge 1 of a single-successor
/// Cond, which must carry edge 0's entry (the fold both engines rely
/// on).
bool checkMarkTable(const FlatImage &F, std::string *Out) {
  const InstrumentedProgram &IP = F.program();
  const Program &Prog = IP.program();
  const std::vector<PhaseMark> &Marks = IP.marks();
  if (IP.markTable().size() != F.numBlocks())
    return failWith(Out, "mark table size mismatch");
  const BlockMarks *Rows = F.markTable();

  for (size_t I = 0; I < Marks.size(); ++I) {
    const PhaseMark &M = Marks[I];
    if (M.Proc >= Prog.Procs.size() ||
        M.Block >= Prog.Procs[M.Proc].Blocks.size() || M.SuccIndex >= 2)
      return failWith(Out, place("mark anchor out of range", M.Proc, M.Block));
    const BlockMarks &Row = Rows[F.globalId(M.Proc, M.Block)];
    int32_t Slot = M.Point == MarkPoint::CallSite ? Row.CallMark
                                                  : Row.EdgeMark[M.SuccIndex];
    if (Slot != static_cast<int32_t>(I))
      return failWith(Out,
                      place("mark missing from mark table", M.Proc, M.Block));
  }

  auto AnchoredAt = [&](int32_t Index, uint32_t P, uint32_t B,
                        MarkPoint Point, uint32_t Succ) {
    if (Index < 0)
      return true;
    if (static_cast<size_t>(Index) >= Marks.size())
      return false;
    const PhaseMark &M = Marks[static_cast<size_t>(Index)];
    return M.Proc == P && M.Block == B && M.Point == Point &&
           (Point == MarkPoint::CallSite || M.SuccIndex == Succ);
  };
  for (uint32_t P = 0; P < Prog.Procs.size(); ++P) {
    const Procedure &Proc = Prog.Procs[P];
    for (uint32_t B = 0; B < Proc.Blocks.size(); ++B) {
      const BasicBlock &BB = Proc.Blocks[B];
      const BlockMarks &Row = Rows[F.globalId(P, B)];
      bool Fold = BB.Term == TermKind::Cond && BB.Succs.size() < 2;
      if (!AnchoredAt(Row.EdgeMark[0], P, B, MarkPoint::Edge, 0) ||
          !(Fold ? Row.EdgeMark[1] == Row.EdgeMark[0]
                 : AnchoredAt(Row.EdgeMark[1], P, B, MarkPoint::Edge, 1)) ||
          !AnchoredAt(Row.CallMark, P, B, MarkPoint::CallSite, 0))
        return failWith(Out, place("stray mark-table entry", P, B));
    }
  }
  return true;
}

/// The flat image re-derived from its own program and cost model: every
/// layout record and cost-table row must equal what the cost model's
/// constructor computes, and the mark table must hold exactly the marks.
bool checkFlat(const FlatImage &F, std::string *Out) {
  const InstrumentedProgram &IP = F.program();
  const Program &Prog = IP.program();
  const CostModel &CM = F.cost();
  const uint32_t Stride = F.configStride();

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

  for (uint32_t P = 0; P < F.numProcs(); ++P) {
    const Procedure &Proc = Prog.Procs[P];
    for (uint32_t B = 0; B < Proc.Blocks.size(); ++B) {
      const uint32_t G = F.globalId(P, B);
      const FlatBlock &FB = F.block(G);
      const BasicBlock &BB = Proc.Blocks[B];

      if (FB.Insts != BB.size() || FB.Insts != CM.blockInsts(P, B))
        return failWith(Out,
                        place("flat instruction count mismatch", P, B));

      // The row must be the block's row of the cost model's table,
      // which the image reads in place.
      if (FB.CycleRow != G * Stride)
        return failWith(Out, place("cycle row out of layout", P, B));

      switch (BB.Term) {
      case TermKind::Jump: {
        if (FB.Succ[0] != F.globalId(P, BB.Succs[0]))
          return failWith(Out, place("jump successor mismatch", P, B));
        int32_t Callee = BB.calleeOrNone();
        if (Callee >= 0) {
          if (FB.Op != FlatOp::Call ||
              FB.Callee != F.offsetOf(static_cast<uint32_t>(Callee)))
            return failWith(Out, place("call record mismatch", P, B));
        } else if (FB.Op != FlatOp::Jump) {
          return failWith(Out, place("jump record mismatch", P, B));
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
    }
  }
  return checkMarkTable(F, Out);
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

  // The cost model the engine will read: the flat image's once it is
  // built, the cost-model stage's binding before.
  if (const CostModel *Cost = PC.Flat ? &PC.Flat->cost() : PC.Cost.get()) {
    for (uint32_t P = 0; P < Prog->Procs.size(); ++P)
      for (uint32_t B = 0; B < Prog->Procs[P].Blocks.size(); ++B)
        if (Cost->blockInsts(P, B) != Prog->Procs[P].Blocks[B].size())
          return failWith(ErrorOut,
                          place("cost model disagrees with program", P, B));
    if (!Cost->onGrid())
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
    if (IP.numTypes() == 0)
      return failWith(ErrorOut, "image has zero phase types");
    if (!checkMarks(IP.program(), IP.marks(), IP.numTypes(), ErrorOut))
      return false;
    if (Tech && IP.cost() != Tech->Cost)
      return failWith(ErrorOut,
                      "image mark-cost model differs from technique");
  }

  if (PC.Flat && !checkFlat(*PC.Flat, ErrorOut))
    return false;

  return true;
}

bool pbt::verifyPrepared(const PreparedSuite &Suite, const MachineConfig &,
                         std::string *ErrorOut) {
  for (size_t I = 0; I < Suite.Flats.size(); ++I) {
    const std::shared_ptr<const FlatImage> &Flat = Suite.Flats[I];
    ProgramPrep PC;
    PC.Prog = &Flat->program().program();
    PC.Cost = std::shared_ptr<const CostModel>(Flat, &Flat->cost());
    PC.Image =
        std::shared_ptr<const InstrumentedProgram>(Flat, &Flat->program());
    PC.Flat = Flat;
    std::string Err;
    if (!verifyPrep(PC, nullptr, &Err))
      return failWith(ErrorOut, "suite[" + std::to_string(I) + "] '" +
                                    Suite.Names[I] + "': " + Err);
  }
  return true;
}
