//===- ir/BasicBlock.h - CFG basic block ------------------------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Basic blocks use the classic definition the paper cites (Allen 1970):
/// single entry, single exit, no internal jumps. Each block additionally
/// carries *terminator behaviour* consumed by the execution engine, so the
/// same IR serves both the static analyses and the dynamic simulation:
///
///  - Jump: unconditional transfer to the single successor.
///  - Loop: the block is a loop latch; successor 0 is the back-edge target
///    and successor 1 the exit. Each dynamic entry to the loop runs
///    TripCount iterations before exiting.
///  - Cond: data-dependent branch; successor 0 is taken with probability
///    TakenProb, successor 1 otherwise (resolved by the process's RNG).
///  - Ret: procedure return (no successors).
///
//===----------------------------------------------------------------------===//

#ifndef PBT_IR_BASICBLOCK_H
#define PBT_IR_BASICBLOCK_H

#include "ir/Instruction.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pbt {

/// Terminator behaviour of a block, used by the simulator to produce a
/// deterministic (seeded) dynamic trace.
enum class TermKind : uint8_t {
  Jump,
  Loop,
  Cond,
  Ret,
};

/// A basic block: a straight-line instruction sequence plus terminator
/// behaviour and successor list.
struct BasicBlock {
  /// Index of this block within its procedure.
  uint32_t Id = 0;

  std::vector<Instruction> Insts;

  TermKind Term = TermKind::Ret;

  /// Successor block ids within the same procedure. Meaning depends on
  /// Term; see the file comment.
  std::vector<uint32_t> Succs;

  /// Loop latches: iterations per dynamic loop entry (>= 1).
  uint32_t TripCount = 1;

  /// Cond blocks: probability of taking Succs[0].
  double TakenProb = 0.5;

  /// Declared streaming footprint, in 64-byte lines. Memory references
  /// that appear only once per block execution are interpreted as a
  /// streaming walk over a working set of this many lines: successive
  /// executions touch fresh lines and revisit a line only after the
  /// whole set has been traversed, so their steady-state reuse distance
  /// is StreamWorkingSet. 0 means all references are block-resident.
  uint32_t StreamWorkingSet = 0;

  /// Number of instructions in the block.
  size_t size() const { return Insts.size(); }

  /// Encoded size of the block in bytes (space-overhead accounting).
  uint64_t byteSize() const {
    uint64_t Bytes = 0;
    for (const Instruction &I : Insts)
      Bytes += I.SizeBytes;
    return Bytes;
  }

  /// Number of Load/Store instructions.
  size_t memOpCount() const {
    size_t N = 0;
    for (const Instruction &I : Insts)
      if (isMemoryKind(I.Kind))
        ++N;
    return N;
  }

  /// Returns the callee procedure id if the block ends in a call, else -1.
  int32_t calleeOrNone() const {
    if (Insts.empty())
      return -1;
    const Instruction &Last = Insts.back();
    return Last.Kind == InstKind::Call ? Last.Callee : -1;
  }

  /// Exact equality over every field.
  bool operator==(const BasicBlock &Other) const {
    return Id == Other.Id && Term == Other.Term &&
           TripCount == Other.TripCount && TakenProb == Other.TakenProb &&
           StreamWorkingSet == Other.StreamWorkingSet &&
           Succs == Other.Succs && Insts == Other.Insts;
  }
  bool operator!=(const BasicBlock &Other) const {
    return !(*this == Other);
  }
};

} // namespace pbt

#endif // PBT_IR_BASICBLOCK_H
