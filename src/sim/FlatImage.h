//===- sim/FlatImage.h - Flat, cache-friendly execution image ---*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat execution image: a view that pairs a program base's block
/// layout and cycle table (CostModel) with one technique's phase marks
/// (InstrumentedProgram), all indexed by *global block id*.
///
/// Global block ids follow Program::blockOffsets(): procedure P's block
/// B has global id `offsetOf(P) + B`, procedures laid out in id order,
/// so procedure entries are at `offsetOf(P)` and `main`'s entry is
/// always global id 0. Everything the interpreter's inner loop needs of
/// one block — pre-decoded terminator kind, successor global ids, callee
/// entry, trip count, taken probability, instruction count and the row
/// of a precomputed cycles[coreType][sharers] table — sits in one
/// 40-byte FlatBlock of the cost model's layout, and the block's marks
/// sit in the same row of the technique's mark table (BlockMarks).
/// Techniques differ only in their marks, so every image of a program
/// base reads one layout and one cycle table; the image itself owns no
/// per-block or per-procedure array.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SIM_FLATIMAGE_H
#define PBT_SIM_FLATIMAGE_H

#include "core/Instrument.h"
#include "sim/CostModel.h"
#include "support/Binary.h"

#include <cstdint>
#include <memory>

namespace pbt {

/// The image for one (InstrumentedProgram, CostModel) pair. Construction
/// is O(1) (it binds pointers); all queries are O(1) except procOf.
/// Immutable and shareable across processes and machines.
class FlatImage {
public:
  FlatImage(std::shared_ptr<const InstrumentedProgram> IProg,
            std::shared_ptr<const CostModel> Cost);

  uint32_t numBlocks() const { return NumBlocks; }
  uint32_t numProcs() const { return NumProcs; }

  /// First global id of procedure \p Proc.
  uint32_t offsetOf(uint32_t Proc) const { return Offsets[Proc]; }

  /// Global block id of (\p Proc, \p Block).
  uint32_t globalId(uint32_t Proc, uint32_t Block) const {
    return Offsets[Proc] + Block;
  }

  /// Procedure owning global id \p Global (binary search; used only on
  /// cold paths such as call-frame bookkeeping).
  uint32_t procOf(uint32_t Global) const;

  /// The cost model's layout (CostModel::layout()).
  const FlatBlock *blocks() const { return Blocks; }
  const FlatBlock &block(uint32_t Global) const { return Blocks[Global]; }

  /// The technique's mark table (InstrumentedProgram::markTable()):
  /// row G holds global block G's mark indices into marks().
  const BlockMarks *markTable() const { return MarkRows; }
  const BlockMarks &blockMarks(uint32_t Global) const {
    return MarkRows[Global];
  }

  /// Per-block cycle costs, indexed via FlatBlock::CycleRow: the cost
  /// model's own CostModel::cycleTable(), which the image's reference to
  /// the cost model keeps alive. Entries are bit-identical to
  /// CostModel::blockCycles for the same configuration.
  const double *cycleTable() const { return Cycles; }

  /// The instrumented program's mark array (indices in BlockMarks are
  /// relative to this).
  const PhaseMark *marks() const { return Marks; }

  uint32_t numCoreTypes() const { return NumCoreTypes; }
  uint32_t maxSharers() const { return MaxSharers; }
  /// Cycle-table entries per block (numCoreTypes * maxSharers).
  uint32_t configStride() const { return NumCoreTypes * MaxSharers; }

  /// Offset within a block's cycle row for a core of \p CoreType whose
  /// L2 is shared by \p Sharers cores. Clamps exactly like
  /// CostModel::blockCycles.
  uint32_t configOffset(uint32_t CoreType, uint32_t Sharers) const {
    uint32_t Level = Sharers < 1 ? 0
                     : Sharers > MaxSharers ? MaxSharers - 1
                                            : Sharers - 1;
    return CoreType * MaxSharers + Level;
  }

  const InstrumentedProgram &program() const { return *IProg; }
  const CostModel &cost() const { return *Cost; }

  /// Serializes the image's numeric payload to \p W — offsets, one
  /// record per block composed of its layout record and its mark-table
  /// row, and the cost model's cycle table (by bit pattern):
  /// the bytes that pin a prepared image in digests and cross-path
  /// comparisons. The store does not keep them; it rebuilds images from
  /// the program and its marks (exp/CacheStore).
  void serialize(BinaryWriter &W) const;

private:
  std::shared_ptr<const InstrumentedProgram> IProg;
  std::shared_ptr<const CostModel> Cost;
  /// Views into Cost (layout, procedure offsets, cycle table) and IProg
  /// (mark table, marks).
  const FlatBlock *Blocks = nullptr;
  const uint32_t *Offsets = nullptr;
  const double *Cycles = nullptr;
  const BlockMarks *MarkRows = nullptr;
  const PhaseMark *Marks = nullptr;
  uint32_t NumBlocks = 0;
  uint32_t NumProcs = 0;
  uint32_t NumCoreTypes = 1;
  uint32_t MaxSharers = 1;
};

} // namespace pbt

#endif // PBT_SIM_FLATIMAGE_H
