//===- tests/costmodel_test.cpp - analytic cost model tests ---------------===//

#include "ir/IRBuilder.h"
#include "sim/CostModel.h"

#include <gtest/gtest.h>

using namespace pbt;

namespace {

Program twoBlockProgram() {
  IRBuilder B("cm");
  uint32_t Main = B.createProc("main");
  uint32_t Comp = B.addBlock(Main);
  B.appendMix(Main, Comp, InstMix::compute(200));
  uint32_t Mem = B.addBlock(Main);
  B.appendMix(Main, Mem, InstMix::memory(200, 100000, 0.10));
  B.setJump(Main, Comp, Mem);
  B.setRet(Main, Mem);
  return B.take();
}

} // namespace

TEST(MachineConfig, QuadShape) {
  MachineConfig M = MachineConfig::quadAsymmetric();
  EXPECT_EQ(M.numCores(), 4u);
  EXPECT_EQ(M.numCoreTypes(), 2u);
  EXPECT_GT(M.CoreTypes[0].Frequency, M.CoreTypes[1].Frequency);
  EXPECT_EQ(M.maxGroupSize(), 2u);
  EXPECT_EQ(M.coreMaskOfType(0), 0b0011u);
  EXPECT_EQ(M.coreMaskOfType(1), 0b1100u);
  EXPECT_EQ(M.allCoresMask(), 0b1111u);
}

TEST(MachineConfig, VariantShapes) {
  EXPECT_EQ(MachineConfig::threeCore().numCores(), 3u);
  EXPECT_EQ(MachineConfig::symmetricQuad().numCoreTypes(), 1u);
  EXPECT_EQ(MachineConfig::octoAsymmetric().numCores(), 8u);
}

TEST(MachineConfig, MissPenaltyScalesWithFrequency) {
  MachineConfig M = MachineConfig::quadAsymmetric();
  EXPECT_GT(M.missPenaltyCycles(0), M.missPenaltyCycles(1));
  EXPECT_NEAR(M.missPenaltyCycles(0) / M.missPenaltyCycles(1),
              M.CoreTypes[0].Frequency / M.CoreTypes[1].Frequency, 1e-9);
}

TEST(CostModel, ComputeBlockNearlyTypeInvariantCycles) {
  Program Prog = twoBlockProgram();
  CostModel Cost(Prog, MachineConfig::quadAsymmetric());
  double Fast = Cost.blockCycles(0, 0, 0, 1);
  double Slow = Cost.blockCycles(0, 0, 1, 1);
  // Only the ambient traffic differs: within a couple percent.
  EXPECT_NEAR(Fast / Slow, 1.0, 0.03);
}

TEST(CostModel, MemoryBlockCostlierOnFastType) {
  Program Prog = twoBlockProgram();
  CostModel Cost(Prog, MachineConfig::quadAsymmetric());
  EXPECT_GT(Cost.blockCycles(0, 1, 0, 1), Cost.blockCycles(0, 1, 1, 1));
}

TEST(CostModel, IpcSystematicallyLowerOnFastType) {
  // The ambient-traffic tilt: every block's IPC is (weakly) lower on the
  // fast core type.
  Program Prog = twoBlockProgram();
  CostModel Cost(Prog, MachineConfig::quadAsymmetric());
  for (uint32_t Block = 0; Block < 2; ++Block)
    EXPECT_LT(Cost.blockIpc(0, Block, 0), Cost.blockIpc(0, Block, 1));
}

TEST(CostModel, MemoryIpcGapExceedsComputeGap) {
  Program Prog = twoBlockProgram();
  CostModel Cost(Prog, MachineConfig::quadAsymmetric());
  double CompGap = Cost.blockIpc(0, 0, 1) - Cost.blockIpc(0, 0, 0);
  double MemGap = Cost.blockIpc(0, 1, 1) - Cost.blockIpc(0, 1, 0);
  EXPECT_GT(MemGap, CompGap * 3);
  // Calibration: the memory gap clears the paper's delta of 0.2; the
  // compute gap stays well below it.
  EXPECT_GT(MemGap, 0.2);
  EXPECT_LT(CompGap, 0.1);
}

TEST(CostModel, SharingIncreasesCycles) {
  Program Prog = twoBlockProgram();
  CostModel Cost(Prog, MachineConfig::quadAsymmetric());
  // 100000-line stream always misses in a 65536-line L2, so sharing does
  // not change it; use a footprint that fits alone but not shared.
  IRBuilder B("fit");
  uint32_t Main = B.createProc("main");
  uint32_t Mem = B.addBlock(Main);
  B.appendMix(Main, Mem, InstMix::memory(200, 50000, 0.2));
  B.setRet(Main, Mem);
  Program FitProg = B.take();
  CostModel FitCost(FitProg, MachineConfig::quadAsymmetric());
  double Alone = FitCost.blockCycles(0, 0, 0, 1);
  double Shared = FitCost.blockCycles(0, 0, 0, 2);
  EXPECT_GT(Shared, Alone);
}

TEST(CostModel, CyclesMonotonicInSharers) {
  Program Prog = twoBlockProgram();
  CostModel Cost(Prog, MachineConfig::quadAsymmetric());
  for (uint32_t Block = 0; Block < 2; ++Block)
    for (uint32_t Ct = 0; Ct < 2; ++Ct)
      EXPECT_LE(Cost.blockCycles(0, Block, Ct, 1),
                Cost.blockCycles(0, Block, Ct, 2));
}

TEST(CostModel, InstructionCountsMatchBlocks) {
  Program Prog = twoBlockProgram();
  CostModel Cost(Prog, MachineConfig::quadAsymmetric());
  EXPECT_EQ(Cost.blockInsts(0, 0), Prog.Procs[0].Blocks[0].size());
  EXPECT_EQ(Cost.blockInsts(0, 1), Prog.Procs[0].Blocks[1].size());
}

TEST(CostModel, CyclesToSeconds) {
  Program Prog = twoBlockProgram();
  MachineConfig M = MachineConfig::quadAsymmetric();
  CostModel Cost(Prog, M);
  EXPECT_DOUBLE_EQ(Cost.cyclesToSeconds(M.CoreTypes[0].Frequency, 0), 1.0);
}

TEST(OracleTyping, TypesByBehaviouralGap) {
  Program Prog = twoBlockProgram();
  CostModel Cost(Prog, MachineConfig::quadAsymmetric());
  ProgramTyping Typing = computeOracleTyping(Prog, Cost);
  EXPECT_EQ(Typing.NumTypes, 2u);
  EXPECT_EQ(Typing.typeOf(0, 0), 0u); // Compute.
  EXPECT_EQ(Typing.typeOf(0, 1), 1u); // Memory.
}

TEST(OracleTyping, SymmetricMachineAllTypeZero) {
  Program Prog = twoBlockProgram();
  CostModel Cost(Prog, MachineConfig::symmetricQuad());
  ProgramTyping Typing = computeOracleTyping(Prog, Cost);
  for (const auto &Proc : Typing.TypeOf)
    for (uint32_t T : Proc)
      EXPECT_EQ(T, 0u);
}

TEST(OracleTyping, ThresholdControlsSensitivity) {
  Program Prog = twoBlockProgram();
  CostModel Cost(Prog, MachineConfig::quadAsymmetric());
  // Absurdly high threshold: nothing is memory-typed.
  ProgramTyping Strict = computeOracleTyping(Prog, Cost, 10.0);
  EXPECT_EQ(Strict.typeOf(0, 1), 0u);
}

TEST(CpiTable, KindMapping) {
  CpiTable Cpi;
  EXPECT_DOUBLE_EQ(Cpi.of(InstKind::Load), Cpi.Mem);
  EXPECT_DOUBLE_EQ(Cpi.of(InstKind::Store), Cpi.Mem);
  EXPECT_DOUBLE_EQ(Cpi.of(InstKind::Call), Cpi.CallRet);
  EXPECT_GT(Cpi.of(InstKind::Syscall), Cpi.of(InstKind::IntAlu));
}

TEST(CostModel, CostsSitOnTheExactCycleGrid) {
  Program Prog = twoBlockProgram();
  CostModel Cost(Prog, MachineConfig::quadAsymmetric());
  EXPECT_TRUE(Cost.onGrid());
  for (uint32_t Block = 0; Block < 2; ++Block)
    for (uint32_t Ct = 0; Ct < 2; ++Ct)
      for (uint32_t Sharers = 1; Sharers <= Cost.maxSharers(); ++Sharers) {
        double C = Cost.blockCycles(0, Block, Ct, Sharers);
        ASSERT_TRUE(onCycleGrid(C));
        // The property the flat engine's one-step charges rest on: k*c
        // equals k repeated adds, from any grid starting point.
        double Stepwise = 0.375;
        for (int K = 0; K < 1000; ++K)
          Stepwise += C;
        EXPECT_EQ(Stepwise, 0.375 + 1000 * C);
      }
  EXPECT_EQ(quantizeCycles(0.35), 22938 / 65536.0);
  EXPECT_FALSE(onCycleGrid(0.35));
}
