//===- sim/CostModel.h - Analytic block execution cost ----------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulator's per-block cycle model, the substrate substituting for
/// the paper's physical Core 2 Quad:
///
///   cycles(block, coreType, sharers) =
///     sum of per-class base CPIs
///     + memOps * missRate(effectiveCacheLines) * missPenalty(coreType)
///
/// where missRate comes from the block's steady-state reuse-distance
/// profile, the effective cache is the L2 capacity divided by the number
/// of active cores sharing it, and the miss penalty in cycles scales with
/// core frequency. This produces the signal the paper's dynamic analysis
/// keys on: compute-bound blocks have nearly equal IPC on both core types
/// (so they run faster on high-frequency cores), while memory-bound
/// blocks show distinctly higher IPC on slow cores (fewer wasted cycles).
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SIM_COSTMODEL_H
#define PBT_SIM_COSTMODEL_H

#include "analysis/BlockTyping.h"
#include "analysis/ReuseDistance.h"
#include "ir/Program.h"
#include "sim/MachineConfig.h"

#include <cmath>
#include <cstdint>
#include <vector>

namespace pbt {

/// Cycle costs live on a dyadic grid: every cost-table entry is a
/// multiple of 2^-16 cycles. A double holds any grid value below
/// ExactCycleBound = 2^37 cycles exactly (53 mantissa bits = 37 integer
/// + 16 fractional), so sums of grid values below the bound never
/// round: k*c equals k repeated additions of c, and grid sums can be
/// added in any order. This is what lets the Flat engine charge a
/// whole self-loop run in one step and still be
/// bit-identical to the block-at-a-time Reference interpreter (see
/// docs/ARCHITECTURE.md "Exact cycle arithmetic").
constexpr int CycleGridBits = 16;
constexpr double ExactCycleBound = 137438953472.0; // 2^37

/// Rounds \p Cycles to the nearest multiple of 2^-CycleGridBits.
inline double quantizeCycles(double Cycles) {
  return std::ldexp(std::round(std::ldexp(Cycles, CycleGridBits)),
                    -CycleGridBits);
}

/// True when \p Cycles is a multiple of 2^-CycleGridBits.
inline bool onCycleGrid(double Cycles) {
  return quantizeCycles(Cycles) == Cycles;
}

/// Base CPI per instruction class (identical across core types; frequency
/// and stalls carry the asymmetry). Values reflect a superscalar core:
/// plain ALU work retires well under one cycle per instruction, so
/// compute-bound blocks reach IPC around 2.5 and the IPC gaps between
/// core types on memory-bound blocks land in the 0.1–0.3 range the
/// paper's delta-threshold sweep (0.05–0.5) discriminates over.
struct CpiTable {
  double IntAlu = 0.25;
  double FpAlu = 0.45;
  double Mem = 0.25;
  double Branch = 0.35;
  double CallRet = 0.8;
  double Syscall = 60.0;
  /// Ambient misses per instruction (instruction fetch, TLB walks, rare
  /// cold misses): background memory traffic every real block has. It
  /// makes IPC on the fast core type *systematically* slightly lower
  /// than on the slow type even for compute-bound code (the stall
  /// seconds are frequency-invariant, the wasted cycles are not), which
  /// is what lets Algorithm 2's "keep the lowest-IPC core type" default
  /// reliably leave compute phases on fast cores instead of flapping on
  /// measurement noise.
  double AmbientMissPerInst = 3e-4;

  double of(InstKind Kind) const;
};

/// Pre-decoded execution behaviour of one layout record. Jump
/// terminators split two ways so the inner loop never re-derives the
/// distinction: a call or a plain jump.
enum class FlatOp : uint8_t {
  Jump, ///< Jump, no call.
  Call, ///< Jump terminator whose block ends in a call.
  Loop, ///< Loop latch (successor 0 back edge, 1 exit).
  Cond, ///< Data-dependent branch resolved by the process RNG.
  Ret,  ///< Procedure return.
};

/// One block's execution record in the cost model's layout (40 bytes):
/// everything the flat engine's inner loop needs of a block except its
/// phase marks, which are the technique's (InstrumentedProgram's mark
/// table, indexed by the same global id). Fields beyond the common set
/// are meaningful only for the matching Op; they are kept
/// unconditionally so records stay fixed-size PODs.
struct FlatBlock {
  FlatOp Op = FlatOp::Ret;
  /// Instructions retired by one execution.
  uint32_t Insts = 0;
  /// Successor *global* ids (meaning per Op, as in BasicBlock::Succs;
  /// for Call, Succ[0] is the return continuation). A single-successor
  /// Cond has Succ[1] == Succ[0].
  uint32_t Succ[2] = {0, 0};
  /// Base row of this block in the cycle table: the cycle cost on a
  /// core of type ct with s sharers is cycleTable()[CycleRow +
  /// ct*maxSharers() + (s-1)].
  uint32_t CycleRow = 0;
  /// Callee entry global id (Op == Call).
  uint32_t Callee = 0;
  /// Loop latch trip count (Op == Loop).
  uint32_t TripCount = 1;
  /// Probability of taking Succ[0] (Op == Cond).
  double TakenProb = 0.5;
};
static_assert(sizeof(FlatBlock) == 40, "FlatBlock layout changed");

/// Precomputed execution costs and the flat block layout of a program on
/// a given machine, built with the default CpiTable. Construction is
/// O(program); queries are O(1). One cost model serves every technique
/// prepared on its program base: the layout and the cycle table are
/// technique-invariant, and every FlatImage bound to the model reads
/// both in place.
class CostModel {
public:
  CostModel(const Program &Prog, const MachineConfig &Machine);

  /// Cycles for one execution of a block on a core of \p CoreType whose
  /// L2 is shared by \p Sharers active cores (clamped to
  /// [1, maxSharers()]). A cycleTable() entry, so always on the cycle
  /// grid.
  double blockCycles(uint32_t Proc, uint32_t Block, uint32_t CoreType,
                     uint32_t Sharers) const;

  /// Instructions retired by one execution of the block.
  uint32_t blockInsts(uint32_t Proc, uint32_t Block) const {
    return Layout[ProcOffset[Proc] + Block].Insts;
  }

  /// Steady-state IPC of the block on \p CoreType with an unshared L2.
  double blockIpc(uint32_t Proc, uint32_t Block, uint32_t CoreType) const;

  /// Seconds for \p Cycles on \p CoreType.
  double cyclesToSeconds(double Cycles, uint32_t CoreType) const {
    return Cycles / Machine.CoreTypes[CoreType].Frequency;
  }

  const MachineConfig &machine() const { return Machine; }

  /// True when every cycleTable() entry is on the cycle grid (the
  /// verify-IR audit of every table an image reads).
  bool onGrid() const;

  /// Largest sharer count the table is built for (the machine's biggest
  /// L2 group); blockCycles clamps Sharers to [1, maxSharers()].
  uint32_t maxSharers() const { return MaxSharers; }

  /// Every blockCycles value in one flat array: global block G (the
  /// block's index in procedure-id order, FlatImage's global id) on core
  /// type Ct with S sharers is at
  /// (G * numCoreTypes + Ct) * maxSharers() + (S - 1). Each entry is
  /// quantize(base CPI sum) + quantize(stall cycles); every FlatImage
  /// bound to the model reads the table in place.
  const std::vector<double> &cycleTable() const { return Cycles; }

  /// One record per global block, in global-id order.
  const std::vector<FlatBlock> &layout() const { return Layout; }

  /// First global id of each procedure (Program::blockOffsets()).
  const std::vector<uint32_t> &procOffsets() const { return ProcOffset; }

private:
  MachineConfig Machine;
  std::vector<uint32_t> ProcOffset;
  std::vector<FlatBlock> Layout;
  uint32_t MaxSharers = 1;
  std::vector<double> Cycles;
};

/// Behavioural "oracle" typing (paper Sec. IV-A1: block types derived
/// from per-core execution profiles): a block is typed memory-bound
/// (type 1) when its IPC advantage on the slowest core type over the
/// fastest exceeds \p IpcThreshold, compute-bound (type 0) otherwise.
/// Always produces NumTypes == 2.
ProgramTyping computeOracleTyping(const Program &Prog, const CostModel &Cost,
                                  double IpcThreshold = 0.05);

} // namespace pbt

#endif // PBT_SIM_COSTMODEL_H
