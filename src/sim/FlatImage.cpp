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
  const std::vector<FlatBlock> &Layout = Cost->layout();
  const std::vector<BlockMarks> &Table = IProg->markTable();
  assert(Table.size() == Layout.size() &&
         Cost->procOffsets().size() == IProg->program().Procs.size() &&
         "cost model disagrees with program");
  Blocks = Layout.data();
  Offsets = Cost->procOffsets().data();
  Cycles = Cost->cycleTable().data();
  MarkRows = Table.data();
  Marks = IProg->marks().data();
  NumBlocks = static_cast<uint32_t>(Layout.size());
  NumProcs = static_cast<uint32_t>(Cost->procOffsets().size());
  NumCoreTypes = Cost->machine().numCoreTypes();
  MaxSharers = Cost->maxSharers();
}

uint32_t FlatImage::procOf(uint32_t Global) const {
  const uint32_t *It = std::upper_bound(Offsets, Offsets + NumProcs, Global);
  assert(It != Offsets && "global id below first procedure");
  return static_cast<uint32_t>(It - Offsets) - 1;
}

void FlatImage::serialize(BinaryWriter &W) const {
  W.u32(NumCoreTypes);
  W.u32(MaxSharers);
  W.u32(configStride());
  W.u32(NumProcs);
  for (uint32_t P = 0; P < NumProcs; ++P)
    W.u32(Offsets[P]);
  W.u32(NumBlocks);
  for (uint32_t G = 0; G < NumBlocks; ++G) {
    const FlatBlock &F = Blocks[G];
    const BlockMarks &M = MarkRows[G];
    W.u8(static_cast<uint8_t>(F.Op));
    W.u32(F.Insts);
    W.u32(F.Succ[0]);
    W.u32(F.Succ[1]);
    W.u32(F.CycleRow);
    W.i32(M.EdgeMark[0]);
    W.i32(M.EdgeMark[1]);
    W.i32(M.CallMark);
    W.u32(F.Callee);
    W.u32(F.TripCount);
    W.f64(F.TakenProb);
  }
  const std::vector<double> &Table = Cost->cycleTable();
  W.u32(static_cast<uint32_t>(Table.size()));
  for (double Value : Table)
    W.f64(Value);
}
