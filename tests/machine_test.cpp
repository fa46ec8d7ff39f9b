//===- tests/machine_test.cpp - simulator driver tests --------------------===//

#include "core/Transitions.h"
#include "ir/IRBuilder.h"
#include "sim/Machine.h"
#include "sim/PerfCounters.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace pbt;

namespace {

Program loopProgram(uint32_t Trips = 1000, bool Memory = false) {
  IRBuilder B(Memory ? "memprog" : "compprog");
  uint32_t Main = B.createProc("main");
  uint32_t Entry = B.addBlock(Main);
  B.appendMix(Main, Entry, InstMix::compute(10));
  InstMix Body = Memory ? InstMix::memory(100, 100000, 0.10)
                        : InstMix::compute(100);
  uint32_t Join = B.addLoopRegion(Main, Entry, Body, Trips);
  B.setRet(Main, Join);
  return B.take();
}

/// An uninstrumented image of \p Prog, costed for \p MC.
std::shared_ptr<const FlatImage> plainFlat(const Program &Prog,
                                           const MachineConfig &MC) {
  MarkingResult Empty;
  Empty.NumTypes = 1;
  Empty.RegionType.resize(Prog.Procs.size());
  return std::make_shared<const FlatImage>(
      std::make_shared<const InstrumentedProgram>(Prog, std::move(Empty)),
      std::make_shared<const CostModel>(Prog, MC));
}

} // namespace

TEST(CounterManager, LimitsConcurrentSessions) {
  CounterManager Mgr(2);
  EXPECT_TRUE(Mgr.acquire());
  EXPECT_TRUE(Mgr.acquire());
  EXPECT_FALSE(Mgr.acquire());
  EXPECT_EQ(Mgr.failedAcquires(), 1u);
  Mgr.release();
  EXPECT_TRUE(Mgr.acquire());
  EXPECT_EQ(Mgr.active(), 2u);
}

TEST(CounterManager, UnlimitedMode) {
  CounterManager Mgr(0);
  for (int I = 0; I < 100; ++I)
    EXPECT_TRUE(Mgr.acquire());
  EXPECT_EQ(Mgr.failedAcquires(), 0u);
}

TEST(Machine, SingleProcessRunsToCompletion) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  Program Prog = loopProgram();
  auto Flat = plainFlat(Prog, MC);
  Machine M(MC, SimConfig(), std::make_unique<ObliviousScheduler>());
  uint32_t Pid = M.spawn(Flat, TunerConfig(), 1);
  M.run(100);
  const Process &P = M.process(Pid);
  EXPECT_TRUE(P.Finished);
  EXPECT_GT(P.CompletionTime, 0.0);
  EXPECT_GT(P.Stats.InstsRetired, 100u * 1000u);
  EXPECT_EQ(P.Stats.CoreSwitches, 0u);
  EXPECT_EQ(P.Stats.MarksFired, 0u);
}

TEST(Machine, SpawnRejectsImageCostedForAnotherCoreTypeCount) {
  // An image's cycle rows hold one entry per core type of the machine
  // its cost model was built for; read on a machine with another count,
  // a slow core would charge the next block's row.
  Program Prog = loopProgram();
  MachineConfig Quad = MachineConfig::quadAsymmetric();
  MachineConfig Sym = MachineConfig::symmetricQuad();
  Machine OnQuad(Quad, SimConfig(), std::make_unique<ObliviousScheduler>());
  EXPECT_THROW(OnQuad.spawn(plainFlat(Prog, Sym), TunerConfig(), 1),
               std::invalid_argument);
  EXPECT_TRUE(OnQuad.processes().empty());
  Machine OnSym(Sym, SimConfig(), std::make_unique<ObliviousScheduler>());
  EXPECT_THROW(OnSym.spawn(plainFlat(Prog, Quad), TunerConfig(), 1),
               std::invalid_argument);
  EXPECT_TRUE(OnSym.processes().empty());
  // The same program costed for each machine is accepted there.
  OnQuad.spawn(plainFlat(Prog, Quad), TunerConfig(), 1);
  OnSym.spawn(plainFlat(Prog, Sym), TunerConfig(), 1);
  EXPECT_EQ(OnQuad.processes().size(), 1u);
  EXPECT_EQ(OnSym.processes().size(), 1u);
}

TEST(Machine, InstructionCountIndependentOfMachine) {
  // The same program retires the same instructions on any machine.
  Program Prog = loopProgram(500);
  uint64_t Counts[2];
  int Index = 0;
  for (MachineConfig MC :
       {MachineConfig::quadAsymmetric(), MachineConfig::threeCore()}) {
    auto Flat = plainFlat(Prog, MC);
    Machine M(MC, SimConfig(), std::make_unique<ObliviousScheduler>());
    uint32_t Pid = M.spawn(Flat, TunerConfig(), 7);
    M.run(200);
    EXPECT_TRUE(M.process(Pid).Finished);
    Counts[Index++] = M.process(Pid).Stats.InstsRetired;
  }
  EXPECT_EQ(Counts[0], Counts[1]);
}

TEST(Machine, DeterministicForSeed) {
  Program Prog = loopProgram(800, true);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  auto Flat = plainFlat(Prog, MC);
  double Completion[2];
  for (int Round = 0; Round < 2; ++Round) {
    Machine M(MC, SimConfig(), std::make_unique<ObliviousScheduler>());
    uint32_t Pid = M.spawn(Flat, TunerConfig(), 33);
    M.run(200);
    Completion[Round] = M.process(Pid).CompletionTime;
  }
  EXPECT_DOUBLE_EQ(Completion[0], Completion[1]);
}

TEST(Machine, FasterAloneOnFastCore) {
  // A compute process alone lands on the least-loaded core; with an
  // otherwise empty machine both types are free, so compare machines
  // that ONLY have one type.
  Program Prog = loopProgram(2000);
  MachineConfig FastOnly;
  FastOnly.CoreTypes = {{"fast", 2.4e6, 4096}};
  FastOnly.Cores = {{0, 0}};
  MachineConfig SlowOnly;
  SlowOnly.CoreTypes = {{"slow", 1.6e6, 4096}};
  SlowOnly.Cores = {{0, 0}};
  double Times[2];
  int I = 0;
  for (const MachineConfig &MC : {FastOnly, SlowOnly}) {
    auto Flat = plainFlat(Prog, MC);
    Machine M(MC, SimConfig(), std::make_unique<ObliviousScheduler>());
    uint32_t Pid = M.spawn(Flat, TunerConfig(), 3);
    M.run(400);
    EXPECT_TRUE(M.process(Pid).Finished);
    Times[I++] = M.process(Pid).CompletionTime;
  }
  EXPECT_LT(Times[0], Times[1]);
  // Compute code scales with frequency (ratio ~1.5).
  EXPECT_NEAR(Times[1] / Times[0], 1.5, 0.1);
}

TEST(Machine, MemoryCodeScalesSublinearly) {
  Program Prog = loopProgram(2000, /*Memory=*/true);
  MachineConfig FastOnly;
  FastOnly.CoreTypes = {{"fast", 2.4e6, 4096}};
  FastOnly.Cores = {{0, 0}};
  MachineConfig SlowOnly;
  SlowOnly.CoreTypes = {{"slow", 1.6e6, 4096}};
  SlowOnly.Cores = {{0, 0}};
  double Times[2];
  int I = 0;
  for (const MachineConfig &MC : {FastOnly, SlowOnly}) {
    auto Flat = plainFlat(Prog, MC);
    Machine M(MC, SimConfig(), std::make_unique<ObliviousScheduler>());
    uint32_t Pid = M.spawn(Flat, TunerConfig(), 3);
    M.run(600);
    EXPECT_TRUE(M.process(Pid).Finished);
    Times[I++] = M.process(Pid).CompletionTime;
  }
  double Ratio = Times[1] / Times[0];
  EXPECT_GT(Ratio, 1.0);
  EXPECT_LT(Ratio, 1.25); // Near parity: stalls dominate.
}

TEST(Machine, MultipleProcessesShareCores) {
  Program Prog = loopProgram(1500);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  auto Flat = plainFlat(Prog, MC);
  Machine M(MC, SimConfig(), std::make_unique<ObliviousScheduler>());
  for (int I = 0; I < 8; ++I)
    M.spawn(Flat, TunerConfig(), 100 + I);
  M.run(400);
  for (const auto &P : M.processes())
    EXPECT_TRUE(P->Finished);
  // All four cores must have been used.
  for (uint32_t Core = 0; Core < 4; ++Core)
    EXPECT_GT(M.coreBusyFraction(Core), 0.0) << "core " << Core;
}

TEST(Machine, ExitHandlerFires) {
  Program Prog = loopProgram(200);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  auto Flat = plainFlat(Prog, MC);
  Machine M(MC, SimConfig(), std::make_unique<ObliviousScheduler>());
  int Exits = 0;
  M.setExitHandler([&](Machine &, Process &P) {
    ++Exits;
    EXPECT_TRUE(P.Finished);
  });
  M.spawn(Flat, TunerConfig(), 5);
  M.spawn(Flat, TunerConfig(), 6);
  M.run(200);
  EXPECT_EQ(Exits, 2);
}

TEST(Machine, MoveQueuedRespectsAffinity) {
  Program Prog = loopProgram(100000);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  auto Flat = plainFlat(Prog, MC);
  Machine M(MC, SimConfig(), std::make_unique<ObliviousScheduler>());
  uint32_t Pid = M.spawn(Flat, TunerConfig(), 5);
  // Find its queue.
  uint32_t Home = UINT32_MAX;
  for (uint32_t Core = 0; Core < 4; ++Core)
    if (M.queueLength(Core) == 1)
      Home = Core;
  ASSERT_NE(Home, UINT32_MAX);
  // Restrict affinity to the home core only: moves must fail.
  M.process(Pid).AffinityMask = 1ULL << Home;
  EXPECT_FALSE(M.moveQueued(Pid, Home, (Home + 1) % 4));
  // Re-allow everything: move succeeds.
  M.process(Pid).AffinityMask = MC.allCoresMask();
  EXPECT_TRUE(M.moveQueued(Pid, Home, (Home + 1) % 4));
  EXPECT_EQ(M.queueLength(Home), 0u);
}

TEST(Machine, TotalInstructionsAggregates) {
  Program Prog = loopProgram(300);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  auto Flat = plainFlat(Prog, MC);
  Machine M(MC, SimConfig(), std::make_unique<ObliviousScheduler>());
  M.spawn(Flat, TunerConfig(), 1);
  M.spawn(Flat, TunerConfig(), 2);
  M.run(100);
  uint64_t Sum = 0;
  for (const auto &P : M.processes())
    Sum += P->Stats.InstsRetired;
  EXPECT_EQ(M.totalInstructions(), Sum);
  EXPECT_GT(Sum, 0u);
}
