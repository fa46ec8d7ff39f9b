//===- sim/CostModel.cpp - Analytic block execution cost ------------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/CostModel.h"

#include <algorithm>
#include <cassert>

using namespace pbt;

double CpiTable::of(InstKind Kind) const {
  switch (Kind) {
  case InstKind::IntAlu:
    return IntAlu;
  case InstKind::FpAlu:
    return FpAlu;
  case InstKind::Load:
  case InstKind::Store:
    return Mem;
  case InstKind::Branch:
    return Branch;
  case InstKind::Call:
  case InstKind::Ret:
    return CallRet;
  case InstKind::Syscall:
    return Syscall;
  }
  return 1.0;
}

void CostModel::layOut(const Program &Prog) {
  ProcOffset.resize(Prog.Procs.size());
  uint32_t Offset = 0;
  for (const Procedure &P : Prog.Procs) {
    ProcOffset[P.Id] = Offset;
    Offset += static_cast<uint32_t>(P.Blocks.size());
  }
}

CostModel::CostModel(const Program &Prog, const MachineConfig &MachineIn)
    : Machine(MachineIn) {
  const CpiTable Cpi;
  const uint32_t NumCoreTypes = Machine.numCoreTypes();
  MaxSharers = std::max(1u, Machine.maxGroupSize());
  layOut(Prog);
  Insts.resize(Prog.blockCount());
  Cycles.resize(Insts.size() * NumCoreTypes * MaxSharers);

  for (const Procedure &P : Prog.Procs) {
    for (const BasicBlock &BB : P.Blocks) {
      const uint32_t G = ProcOffset[P.Id] + BB.Id;
      const uint32_t BlockInsts = static_cast<uint32_t>(BB.size());
      const uint32_t MemRefs = static_cast<uint32_t>(BB.memOpCount());
      Insts[G] = BlockInsts;
      double Base = 0;
      for (const Instruction &I : BB.Insts)
        Base += Cpi.of(I.Kind);
      Base = quantizeCycles(Base);

      ReuseProfile Reuse = computeBlockReuse(BB);
      double *Row =
          &Cycles[static_cast<size_t>(G) * NumCoreTypes * MaxSharers];
      for (uint32_t Ct = 0; Ct < NumCoreTypes; ++Ct) {
        double Penalty = Machine.missPenaltyCycles(Ct);
        for (uint32_t Sharers = 1; Sharers <= MaxSharers; ++Sharers) {
          uint32_t EffLines = std::max(1u, Machine.cacheLines(Ct) / Sharers);
          double Stall = quantizeCycles(
              (Reuse.missRate(EffLines) * static_cast<double>(MemRefs) +
               Cpi.AmbientMissPerInst * static_cast<double>(BlockInsts)) *
              Penalty);
          Row[Ct * MaxSharers + (Sharers - 1)] = Base + Stall;
        }
      }
    }
  }
}

void CostModel::serializeTables(BinaryWriter &W) const {
  W.u32(MaxSharers);
  W.u32(static_cast<uint32_t>(Insts.size()));
  for (uint32_t N : Insts)
    W.u32(N);
  W.u32(static_cast<uint32_t>(Cycles.size()));
  for (double Value : Cycles)
    W.f64(Value);
}

CostModel CostModel::deserializeTables(BinaryReader &R,
                                       const MachineConfig &Machine,
                                       const Program &Prog) {
  CostModel M;
  M.Machine = Machine;
  M.MaxSharers = R.u32();
  M.Insts.resize(R.count(1u << 24, /*ElemBytes=*/4));
  for (uint32_t &N : M.Insts)
    N = R.u32();
  M.Cycles.resize(R.count(1u << 28, /*ElemBytes=*/8));
  for (double &Value : M.Cycles)
    Value = R.f64();
  M.layOut(Prog);
  // The data must agree with the machine and program it claims to
  // describe: sharer depth, per-block instruction counts, table length.
  if (M.MaxSharers != std::max(1u, Machine.maxGroupSize()) ||
      M.Insts.size() != Prog.blockCount() ||
      M.Cycles.size() != M.Insts.size() * Machine.numCoreTypes() *
                             static_cast<size_t>(M.MaxSharers)) {
    R.markFailed();
    return M;
  }
  for (const Procedure &P : Prog.Procs)
    for (const BasicBlock &BB : P.Blocks)
      if (M.blockInsts(P.Id, BB.Id) != BB.size()) {
        R.markFailed();
        return M;
      }
  return M;
}

double CostModel::blockCycles(uint32_t Proc, uint32_t Block,
                              uint32_t CoreType, uint32_t Sharers) const {
  assert(CoreType < Machine.numCoreTypes() && "core type out of range");
  uint32_t Level = std::min(std::max(Sharers, 1u), MaxSharers) - 1;
  size_t G = ProcOffset[Proc] + Block;
  return Cycles[(G * Machine.numCoreTypes() + CoreType) * MaxSharers + Level];
}

bool CostModel::onGrid() const {
  return std::all_of(Cycles.begin(), Cycles.end(), onCycleGrid);
}

double CostModel::blockIpc(uint32_t Proc, uint32_t Block,
                           uint32_t CoreType) const {
  double C = blockCycles(Proc, Block, CoreType, 1);
  return C <= 0 ? 0 : static_cast<double>(blockInsts(Proc, Block)) / C;
}

ProgramTyping pbt::computeOracleTyping(const Program &Prog,
                                       const CostModel &Cost,
                                       double IpcThreshold) {
  const MachineConfig &M = Cost.machine();
  // Fastest and slowest core types by frequency.
  uint32_t Fast = 0;
  uint32_t Slow = 0;
  for (uint32_t Ct = 0; Ct < M.numCoreTypes(); ++Ct) {
    if (M.CoreTypes[Ct].Frequency > M.CoreTypes[Fast].Frequency)
      Fast = Ct;
    if (M.CoreTypes[Ct].Frequency < M.CoreTypes[Slow].Frequency)
      Slow = Ct;
  }

  ProgramTyping Typing;
  Typing.NumTypes = 2;
  Typing.TypeOf.resize(Prog.Procs.size());
  for (const Procedure &P : Prog.Procs) {
    Typing.TypeOf[P.Id].assign(P.Blocks.size(), 0);
    if (Fast == Slow)
      continue; // Symmetric machine: everything is type 0.
    for (const BasicBlock &BB : P.Blocks) {
      double Gap = Cost.blockIpc(P.Id, BB.Id, Slow) -
                   Cost.blockIpc(P.Id, BB.Id, Fast);
      Typing.TypeOf[P.Id][BB.Id] = Gap > IpcThreshold ? 1 : 0;
    }
  }
  return Typing;
}
