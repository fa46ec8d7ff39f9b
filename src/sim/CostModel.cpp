//===- sim/CostModel.cpp - Analytic block execution cost ------------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/CostModel.h"

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

CostModel::CostModel(const Program &Prog, const MachineConfig &MachineIn,
                     CpiTable Cpi)
    : Machine(MachineIn) {
  MaxSharers = std::max(1u, Machine.maxGroupSize());

  ProcOffset.resize(Prog.Procs.size());
  uint32_t Offset = 0;
  for (const Procedure &P : Prog.Procs) {
    ProcOffset[P.Id] = Offset;
    Offset += static_cast<uint32_t>(P.Blocks.size());
  }
  Entries.resize(Offset);

  for (const Procedure &P : Prog.Procs) {
    for (const BasicBlock &BB : P.Blocks) {
      BlockEntry &E = Entries[ProcOffset[P.Id] + BB.Id];
      E.Insts = static_cast<uint32_t>(BB.size());
      E.MemOps = static_cast<uint32_t>(BB.memOpCount());
      for (const Instruction &I : BB.Insts)
        E.BaseCycles += Cpi.of(I.Kind);
      E.BaseCycles = quantizeCycles(E.BaseCycles);

      ReuseProfile Reuse = computeBlockReuse(BB);
      E.StallCycles.resize(Machine.numCoreTypes());
      for (uint32_t Ct = 0; Ct < Machine.numCoreTypes(); ++Ct) {
        E.StallCycles[Ct].resize(MaxSharers);
        double Penalty = Machine.missPenaltyCycles(Ct);
        for (uint32_t Sharers = 1; Sharers <= MaxSharers; ++Sharers) {
          uint32_t EffLines = std::max(1u, Machine.cacheLines(Ct) / Sharers);
          E.StallCycles[Ct][Sharers - 1] = quantizeCycles(
              (Reuse.missRate(EffLines) * static_cast<double>(E.MemOps) +
               Cpi.AmbientMissPerInst * static_cast<double>(E.Insts)) *
              Penalty);
        }
      }
    }
  }
  buildCycleTable();
}

void CostModel::buildCycleTable() {
  const uint32_t NumCoreTypes = Machine.numCoreTypes();
  Cycles.resize(Entries.size() * NumCoreTypes * MaxSharers);
  size_t At = 0;
  for (const BlockEntry &E : Entries)
    for (uint32_t Ct = 0; Ct < NumCoreTypes; ++Ct)
      for (uint32_t Level = 0; Level < MaxSharers; ++Level)
        Cycles[At++] = E.BaseCycles + E.StallCycles[Ct][Level];
}

void CostModel::serializeTables(BinaryWriter &W) const {
  W.u32(MaxSharers);
  W.u32(static_cast<uint32_t>(ProcOffset.size()));
  for (uint32_t Offset : ProcOffset)
    W.u32(Offset);
  W.u32(static_cast<uint32_t>(Entries.size()));
  for (const BlockEntry &E : Entries) {
    W.u32(E.Insts);
    W.u32(E.MemOps);
    W.f64(E.BaseCycles);
    W.u32(static_cast<uint32_t>(E.StallCycles.size()));
    for (const std::vector<double> &Row : E.StallCycles) {
      W.u32(static_cast<uint32_t>(Row.size()));
      for (double Stall : Row)
        W.f64(Stall);
    }
  }
}

CostModel CostModel::deserializeTables(BinaryReader &R,
                                       const MachineConfig &Machine,
                                       const Program &Prog) {
  CostModel M;
  M.Machine = Machine;
  M.MaxSharers = R.u32();
  M.ProcOffset.resize(R.count(1u << 24, /*ElemBytes=*/4));
  for (uint32_t &Offset : M.ProcOffset)
    Offset = R.u32();
  M.Entries.resize(R.count(1u << 24, /*ElemBytes=*/20));
  for (BlockEntry &E : M.Entries) {
    E.Insts = R.u32();
    E.MemOps = R.u32();
    E.BaseCycles = R.f64();
    E.StallCycles.resize(R.count(256, /*ElemBytes=*/4));
    for (std::vector<double> &Row : E.StallCycles) {
      Row.resize(R.count(256, /*ElemBytes=*/8));
      for (double &Stall : Row)
        Stall = R.f64();
    }
    if (R.failed())
      break; // Bail before resizing from further garbage lengths.
  }
  // The tables must agree with the machine and program they claim to
  // describe: sharer depth, stall-matrix shape, the canonical offset
  // layout, and per-block instruction counts.
  if (M.MaxSharers != std::max(1u, Machine.maxGroupSize()))
    R.markFailed();
  for (const BlockEntry &E : M.Entries) {
    if (E.StallCycles.size() != Machine.numCoreTypes())
      R.markFailed();
    for (const std::vector<double> &Row : E.StallCycles)
      if (Row.size() != M.MaxSharers)
        R.markFailed();
    if (R.failed())
      break;
  }
  if (M.ProcOffset.size() != Prog.Procs.size() ||
      M.Entries.size() != Prog.blockCount())
    R.markFailed();
  if (!R.failed()) {
    uint32_t Offset = 0;
    for (const Procedure &P : Prog.Procs) {
      if (M.ProcOffset[P.Id] != Offset) {
        R.markFailed();
        break;
      }
      for (const BasicBlock &BB : P.Blocks)
        if (M.Entries[Offset + BB.Id].Insts != BB.size()) {
          R.markFailed();
          break;
        }
      Offset += static_cast<uint32_t>(P.Blocks.size());
    }
  }
  if (!R.failed())
    M.buildCycleTable();
  return M;
}

double CostModel::blockCycles(uint32_t Proc, uint32_t Block,
                              uint32_t CoreType, uint32_t Sharers) const {
  const BlockEntry &E = entry(Proc, Block);
  assert(CoreType < E.StallCycles.size() && "core type out of range");
  uint32_t Level = std::min(std::max(Sharers, 1u), MaxSharers) - 1;
  return E.BaseCycles + E.StallCycles[CoreType][Level];
}

bool CostModel::onGrid() const {
  for (const BlockEntry &E : Entries) {
    if (!onCycleGrid(E.BaseCycles))
      return false;
    for (const std::vector<double> &Row : E.StallCycles)
      for (double Stall : Row)
        if (!onCycleGrid(Stall))
          return false;
  }
  return true;
}

uint32_t CostModel::blockInsts(uint32_t Proc, uint32_t Block) const {
  return entry(Proc, Block).Insts;
}

double CostModel::blockIpc(uint32_t Proc, uint32_t Block,
                           uint32_t CoreType) const {
  const BlockEntry &E = entry(Proc, Block);
  double Cycles = blockCycles(Proc, Block, CoreType, 1);
  return Cycles <= 0 ? 0 : static_cast<double>(E.Insts) / Cycles;
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
