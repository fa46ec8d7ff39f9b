//===- core/Instrument.cpp - Static phase-mark insertion ------------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Instrument.h"

#include "support/Hashing.h"

#include <cassert>

using namespace pbt;

uint64_t pbt::hashValue(const MarkCostModel &Cost) {
  uint64_t H = hashCombine(0x9B31D7, Cost.MarkBytes);
  H = hashCombine(H, Cost.RuntimeStubBytes);
  H = hashCombine(H, Cost.MarkInsts);
  H = hashCombine(H, Cost.MonitorSetupCycles);
  return hashCombine(H, Cost.SwitchCycles);
}

InstrumentedProgram::InstrumentedProgram(
    std::shared_ptr<const Program> ProgIn, MarkingResult Marking,
    MarkCostModel CostIn)
    : Prog(std::move(ProgIn)), Marks(std::move(Marking.Marks)),
      NumTypes(Marking.NumTypes), Cost(CostIn) {
  assert(Prog && "an image needs a program");
  ProcOffset = Prog->blockOffsets();
  Lookup.resize(Prog->blockCount());

  for (size_t I = 0; I < Marks.size(); ++I) {
    const PhaseMark &M = Marks[I];
    assert(M.Proc < ProcOffset.size() && "mark names unknown procedure");
    assert(M.Block < Prog->Procs[M.Proc].Blocks.size() &&
           "mark names unknown block");
    BlockMarks &Slot = Lookup[ProcOffset[M.Proc] + M.Block];
    if (M.Point == MarkPoint::CallSite) {
      assert(Slot.CallMark < 0 && "duplicate call mark");
      Slot.CallMark = static_cast<int32_t>(I);
      continue;
    }
    assert(M.SuccIndex < 2 && "IR blocks have at most two successors");
    assert(Slot.EdgeMark[M.SuccIndex] < 0 && "duplicate edge mark");
    Slot.EdgeMark[M.SuccIndex] = static_cast<int32_t>(I);
  }

  // verify() admits single-successor Cond blocks; both engines fold the
  // missing edge onto the only one, mark included.
  for (const Procedure &P : Prog->Procs)
    for (const BasicBlock &BB : P.Blocks)
      if (BB.Term == TermKind::Cond && BB.Succs.size() < 2) {
        BlockMarks &Slot = Lookup[ProcOffset[P.Id] + BB.Id];
        Slot.EdgeMark[1] = Slot.EdgeMark[0];
      }
}

const PhaseMark *InstrumentedProgram::edgeMark(uint32_t Proc, uint32_t Block,
                                               uint32_t SuccIndex) const {
  if (SuccIndex >= 2)
    return nullptr;
  int32_t Index = Lookup[ProcOffset[Proc] + Block].EdgeMark[SuccIndex];
  return Index < 0 ? nullptr : &Marks[static_cast<size_t>(Index)];
}

const PhaseMark *InstrumentedProgram::callMark(uint32_t Proc,
                                               uint32_t Block) const {
  int32_t Index = Lookup[ProcOffset[Proc] + Block].CallMark;
  return Index < 0 ? nullptr : &Marks[static_cast<size_t>(Index)];
}

uint64_t InstrumentedProgram::instrumentedByteSize() const {
  return Prog->byteSize() +
         static_cast<uint64_t>(Marks.size()) * Cost.MarkBytes +
         Cost.RuntimeStubBytes;
}

double InstrumentedProgram::spaceOverheadPercent() const {
  double Original = static_cast<double>(Prog->byteSize());
  if (Original <= 0)
    return 0;
  double Added = static_cast<double>(instrumentedByteSize()) - Original;
  return 100.0 * Added / Original;
}
