//===- sim/FlatImage.h - Flat, cache-friendly execution image ---*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat execution image: program structure, per-block execution
/// costs, and phase-mark lookup fused into one contiguous array of POD
/// records indexed by *global block id*.
///
/// Global block ids reuse the CostModel's ProcOffset scheme: procedure
/// P's block B has global id `offsetOf(P) + B`, procedures laid out in
/// id order, so procedure entries are at `offsetOf(P)` and `main`'s
/// entry is always global id 0. Everything the interpreter's inner loop
/// needs for one block — pre-decoded terminator kind, successor global
/// ids, callee entry, trip count, taken probability, instruction count,
/// mark indices for both edges and the call site, and the row of a
/// precomputed cycles[coreType][sharers] table — sits in a single
/// 48-byte record, so advancing one block is one indexed load instead
/// of the reference interpreter's 4+ pointer chases
/// (Prog.Procs[P].Blocks[B], CostModel::blockCycles, and two
/// InstrumentedProgram::edgeMark lookups).
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SIM_FLATIMAGE_H
#define PBT_SIM_FLATIMAGE_H

#include "core/Instrument.h"
#include "sim/CostModel.h"
#include "support/Binary.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace pbt {

/// Pre-decoded execution behaviour of one flat block record. Jump
/// terminators split two ways so the inner loop never re-derives the
/// distinction: a call or a plain jump.
enum class FlatOp : uint8_t {
  Jump, ///< Jump, no call; EdgeMark[0] >= 0 when the edge is marked.
  Call, ///< Jump terminator whose block ends in a call.
  Loop, ///< Loop latch (successor 0 back edge, 1 exit).
  Cond, ///< Data-dependent branch resolved by the process RNG.
  Ret,  ///< Procedure return.
};

/// One block's complete execution record (48 bytes).
/// Fields beyond the common set are meaningful only for the matching Op;
/// they are kept unconditionally so records stay fixed-size PODs.
struct FlatBlock {
  FlatOp Op = FlatOp::Ret;
  /// Instructions retired by one execution.
  uint32_t Insts = 0;
  /// Successor *global* ids (meaning per Op, as in BasicBlock::Succs;
  /// for Call, Succ[0] is the return continuation).
  uint32_t Succ[2] = {0, 0};
  /// Base row of this block in cycleTable(): the cycle cost on a core
  /// of type ct with s sharers is cycleTable()[CycleRow + ct*maxSharers()
  /// + (s-1)].
  uint32_t CycleRow = 0;
  /// Mark index (into marks()) on edge 0/1, or -1. For Call, EdgeMark[0]
  /// is the *continuation* edge mark, deferred to the matching return.
  int32_t EdgeMark[2] = {-1, -1};
  /// Mark index on the call site, or -1 (Op == Call).
  int32_t CallMark = -1;
  /// Callee entry global id (Op == Call).
  uint32_t Callee = 0;
  /// Loop latch trip count (Op == Loop).
  uint32_t TripCount = 1;
  /// Probability of taking Succ[0] (Op == Cond).
  double TakenProb = 0.5;
};
static_assert(sizeof(FlatBlock) == 48, "FlatBlock layout changed");

/// The fused image for one (InstrumentedProgram, CostModel) pair.
/// Construction is O(program); all queries are O(1).
/// Immutable and shareable across processes and machines.
class FlatImage {
public:
  FlatImage(std::shared_ptr<const InstrumentedProgram> IProg,
            std::shared_ptr<const CostModel> Cost);

  uint32_t numBlocks() const { return static_cast<uint32_t>(Blocks.size()); }
  uint32_t numProcs() const { return static_cast<uint32_t>(Offsets.size()); }

  /// First global id of procedure \p Proc.
  uint32_t offsetOf(uint32_t Proc) const { return Offsets[Proc]; }

  /// Global block id of (\p Proc, \p Block).
  uint32_t globalId(uint32_t Proc, uint32_t Block) const {
    return Offsets[Proc] + Block;
  }

  /// Procedure owning global id \p Global (binary search; used only on
  /// cold paths such as call-frame bookkeeping).
  uint32_t procOf(uint32_t Global) const;

  const FlatBlock *blocks() const { return Blocks.data(); }
  const FlatBlock &block(uint32_t Global) const { return Blocks[Global]; }

  /// Per-block cycle costs, indexed via FlatBlock::CycleRow: the cost
  /// model's own CostModel::cycleTable(), which the image's reference to
  /// the cost model keeps alive. Entries are bit-identical to
  /// CostModel::blockCycles for the same configuration.
  const double *cycleTable() const { return Cycles; }

  /// The instrumented program's mark array (indices in FlatBlock are
  /// relative to this).
  const PhaseMark *marks() const { return Marks; }

  uint32_t numCoreTypes() const { return NumCoreTypes; }
  uint32_t maxSharers() const { return MaxSharers; }
  /// Cycle-table entries per block (numCoreTypes * maxSharers).
  uint32_t configStride() const { return Stride; }

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

  /// Serializes the image's numeric payload — offsets, block records,
  /// the cost model's cycle table (by bit pattern) — to \p W: the bytes
  /// that pin a prepared image in digests and cross-path comparisons.
  /// The store does not keep them; it rebuilds images from the program
  /// and cost model (exp/CacheStore).
  void serialize(BinaryWriter &W) const;

private:
  std::shared_ptr<const InstrumentedProgram> IProg;
  std::shared_ptr<const CostModel> Cost;
  const PhaseMark *Marks = nullptr;
  std::vector<uint32_t> Offsets;
  std::vector<FlatBlock> Blocks;
  /// Cost->cycleTable().data().
  const double *Cycles = nullptr;
  uint32_t NumCoreTypes = 1;
  uint32_t MaxSharers = 1;
  uint32_t Stride = 1;
};

} // namespace pbt

#endif // PBT_SIM_FLATIMAGE_H
