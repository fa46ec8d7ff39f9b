//===- sim/FlatImage.cpp - Flat, cache-friendly execution image -----------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/FlatImage.h"

#include <algorithm>
#include <cassert>

using namespace pbt;

FlatImage::FlatImage(std::shared_ptr<const InstrumentedProgram> IProgIn,
                     std::shared_ptr<const CostModel> CostIn)
    : IProg(std::move(IProgIn)), Cost(std::move(CostIn)) {
  const InstrumentedProgram &IP = *IProg;
  const Program &Prog = IP.program();
  NumCoreTypes = Cost->machine().numCoreTypes();
  MaxSharers = Cost->maxSharers();
  Stride = NumCoreTypes * MaxSharers;
  Marks = IP.marks().data();

  Offsets.resize(Prog.Procs.size());
  uint32_t Total = 0;
  for (const Procedure &P : Prog.Procs) {
    Offsets[P.Id] = Total;
    Total += static_cast<uint32_t>(P.Blocks.size());
  }
  Blocks.resize(Total);
  Cycles = Cost->cycleTable().data();
  assert(Cost->cycleTable().size() == static_cast<size_t>(Total) * Stride &&
         "cost model disagrees with program");

  auto MarkIndex = [&](const PhaseMark *M) -> int32_t {
    return M ? static_cast<int32_t>(M - Marks) : -1;
  };

  for (const Procedure &P : Prog.Procs) {
    uint32_t Base = Offsets[P.Id];
    for (const BasicBlock &BB : P.Blocks) {
      uint32_t G = Base + BB.Id;
      FlatBlock &F = Blocks[G];
      F.Insts = Cost->blockInsts(P.Id, BB.Id);
      assert(F.Insts == BB.size() && "cost model disagrees with program");
      F.CycleRow = G * Stride;

      F.EdgeMark[0] = MarkIndex(IP.edgeMark(P.Id, BB.Id, 0));
      F.EdgeMark[1] = MarkIndex(IP.edgeMark(P.Id, BB.Id, 1));
      F.CallMark = MarkIndex(IP.callMark(P.Id, BB.Id));

      switch (BB.Term) {
      case TermKind::Jump: {
        F.Succ[0] = Base + BB.Succs[0];
        int32_t Callee = BB.calleeOrNone();
        if (Callee >= 0) {
          F.Op = FlatOp::Call;
          F.Callee = Offsets[static_cast<uint32_t>(Callee)];
        } else {
          F.Op = FlatOp::Jump;
        }
        break;
      }
      case TermKind::Loop:
        F.Op = FlatOp::Loop;
        F.Succ[0] = Base + BB.Succs[0];
        F.Succ[1] = Base + BB.Succs[1];
        F.TripCount = BB.TripCount;
        break;
      case TermKind::Cond:
        // verify() admits single-successor Cond blocks; fold both the
        // successor and its mark onto the only edge, matching the
        // reference engine's fold.
        F.Op = FlatOp::Cond;
        F.Succ[0] = Base + BB.Succs[0];
        F.Succ[1] = Base + BB.Succs[BB.Succs.size() > 1 ? 1 : 0];
        if (BB.Succs.size() < 2)
          F.EdgeMark[1] = F.EdgeMark[0];
        F.TakenProb = BB.TakenProb;
        break;
      case TermKind::Ret:
        F.Op = FlatOp::Ret;
        break;
      }
    }
  }
}

uint32_t FlatImage::procOf(uint32_t Global) const {
  auto It = std::upper_bound(Offsets.begin(), Offsets.end(), Global);
  assert(It != Offsets.begin() && "global id below first procedure");
  return static_cast<uint32_t>(It - Offsets.begin()) - 1;
}

void FlatImage::serialize(BinaryWriter &W) const {
  W.u32(NumCoreTypes);
  W.u32(MaxSharers);
  W.u32(Stride);
  W.u32(static_cast<uint32_t>(Offsets.size()));
  for (uint32_t Offset : Offsets)
    W.u32(Offset);
  W.u32(static_cast<uint32_t>(Blocks.size()));
  for (const FlatBlock &F : Blocks) {
    W.u8(static_cast<uint8_t>(F.Op));
    W.u32(F.Insts);
    W.u32(F.Succ[0]);
    W.u32(F.Succ[1]);
    W.u32(F.CycleRow);
    W.i32(F.EdgeMark[0]);
    W.i32(F.EdgeMark[1]);
    W.i32(F.CallMark);
    W.u32(F.Callee);
    W.u32(F.TripCount);
    W.f64(F.TakenProb);
  }
  const std::vector<double> &Table = Cost->cycleTable();
  W.u32(static_cast<uint32_t>(Table.size()));
  for (double Value : Table)
    W.f64(Value);
}
