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

CostModel::CostModel(const Program &Prog, const MachineConfig &MachineIn)
    : Machine(MachineIn), ProcOffset(Prog.blockOffsets()) {
  const CpiTable Cpi;
  const uint32_t NumCoreTypes = Machine.numCoreTypes();
  MaxSharers = std::max(1u, Machine.maxGroupSize());
  const uint32_t Stride = NumCoreTypes * MaxSharers;
  Layout.resize(Prog.blockCount());
  Cycles.resize(Layout.size() * Stride);

  for (const Procedure &P : Prog.Procs) {
    const uint32_t Base = ProcOffset[P.Id];
    for (const BasicBlock &BB : P.Blocks) {
      const uint32_t G = Base + BB.Id;
      const uint32_t BlockInsts = static_cast<uint32_t>(BB.size());
      const uint32_t MemRefs = static_cast<uint32_t>(BB.memOpCount());
      FlatBlock &F = Layout[G];
      F.Insts = BlockInsts;
      F.CycleRow = G * Stride;
      switch (BB.Term) {
      case TermKind::Jump: {
        F.Succ[0] = Base + BB.Succs[0];
        int32_t Callee = BB.calleeOrNone();
        if (Callee >= 0) {
          F.Op = FlatOp::Call;
          F.Callee = ProcOffset[static_cast<uint32_t>(Callee)];
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
        // verify() admits single-successor Cond blocks; both edges fold
        // onto the only successor, as in the reference engine (the mark
        // table folds the edge's mark the same way).
        F.Op = FlatOp::Cond;
        F.Succ[0] = Base + BB.Succs[0];
        F.Succ[1] = Base + BB.Succs[BB.Succs.size() > 1 ? 1 : 0];
        F.TakenProb = BB.TakenProb;
        break;
      case TermKind::Ret:
        F.Op = FlatOp::Ret;
        break;
      }

      double CpiSum = 0;
      for (const Instruction &I : BB.Insts)
        CpiSum += Cpi.of(I.Kind);
      CpiSum = quantizeCycles(CpiSum);

      ReuseProfile Reuse = computeBlockReuse(BB);
      double *Row = &Cycles[F.CycleRow];
      for (uint32_t Ct = 0; Ct < NumCoreTypes; ++Ct) {
        double Penalty = Machine.missPenaltyCycles(Ct);
        for (uint32_t Sharers = 1; Sharers <= MaxSharers; ++Sharers) {
          uint32_t EffLines = std::max(1u, Machine.cacheLines(Ct) / Sharers);
          double Stall = quantizeCycles(
              (Reuse.missRate(EffLines) * static_cast<double>(MemRefs) +
               Cpi.AmbientMissPerInst * static_cast<double>(BlockInsts)) *
              Penalty);
          Row[Ct * MaxSharers + (Sharers - 1)] = CpiSum + Stall;
        }
      }
    }
  }
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
