//===- tests/flatimage_test.cpp - flat-engine differential tests ----------===//
//
// The flat execution engine must be a perfect stand-in for the
// block-at-a-time reference interpreter: on randomized programs, across
// machines with two and three core types, instrumented or not, every
// ProcessStats field (including the floating-point ones) and every
// completion time must be bit-identical. That holds on chain-heavy
// programs (long mark-free jump runs the engine charges in O(1)) and
// under migration churn of the hot-lane configuration-offset cache. The
// parallel experiment runner must likewise reproduce the serial runner
// bit-for-bit.
//
//===----------------------------------------------------------------------===//

#include "RunIdentity.h"

#include "core/Transitions.h"
#include "ir/IRBuilder.h"
#include "sim/FlatImage.h"
#include "sim/Machine.h"
#include "support/Rng.h"
#include "workload/Benchmarks.h"
#include "workload/Runner.h"

#include <gtest/gtest.h>

#include <functional>

using namespace pbt;

namespace {

/// Generates a random but guaranteed-terminating program: within a
/// procedure control only moves forward, self-loops finitely, or
/// returns; calls target strictly later procedures (acyclic call graph).
/// Jump runs give the chain builder real superblocks to fuse;
/// \p ChainHeavy turns the generator's conditional branches into jumps
/// too, lengthening the mark-free runs the flat engine fuses.
Program randomProgram(uint64_t Seed, bool ChainHeavy = false) {
  Rng Gen(Seed);
  IRBuilder B("random_" + std::to_string(Seed), Seed);
  uint32_t NumProcs = 2 + static_cast<uint32_t>(Gen.nextBelow(3));
  std::vector<uint32_t> BlockCounts;
  for (uint32_t P = 0; P < NumProcs; ++P) {
    B.createProc(P == 0 ? "main" : "helper" + std::to_string(P));
    BlockCounts.push_back(6 + static_cast<uint32_t>(Gen.nextBelow(10)));
  }
  for (uint32_t P = 0; P < NumProcs; ++P) {
    uint32_t N = BlockCounts[P];
    for (uint32_t I = 0; I < N; ++I)
      B.addBlock(P);
    for (uint32_t I = 0; I < N; ++I) {
      bool Memory = Gen.nextBool(0.4);
      unsigned Count = 8 + static_cast<unsigned>(Gen.nextBelow(120));
      // Memory mixes must stream over more lines than the 4 MiB L2
      // (65536 lines) holds, or the oracle types everything compute-
      // bound and no phase transitions (hence no marks) exist at all.
      InstMix Mix =
          Memory
              ? InstMix::memory(
                    Count,
                    1u << (15 + static_cast<unsigned>(Gen.nextBelow(4))),
                    0.1 + 0.4 * Gen.nextDouble())
              // FpShare + the fixed mem/branch fractions must stay
              // below 1; compute() defaults leave 0.12 reserved.
              : InstMix::compute(Count, 0.85 * Gen.nextDouble());
      B.appendMix(P, I, Mix);

      if (I == N - 1) {
        B.setRet(P, I);
        continue;
      }
      double Roll = Gen.nextDouble();
      if (Roll < (ChainHeavy ? 0.5 : 0.3)) {
        B.setJump(P, I, I + 1); // Chainable straight-line step.
      } else if (Roll < 0.5) {
        uint32_t Other =
            I + 1 + static_cast<uint32_t>(Gen.nextBelow(N - I - 1));
        B.setCond(P, I, I + 1, Other, 0.1 + 0.8 * Gen.nextDouble());
      } else if (Roll < 0.8) {
        // Trip counts large enough that the dynamic analysis can finish
        // sampling a phase and actually migrate the process.
        B.setLoop(P, I, I, I + 1,
                  20 + static_cast<uint32_t>(Gen.nextBelow(700)));
      } else if (Roll < 0.95 && P + 1 < NumProcs) {
        uint32_t Callee =
            P + 1 + static_cast<uint32_t>(Gen.nextBelow(NumProcs - P - 1));
        B.appendCall(P, I, Callee);
        B.setJump(P, I, I + 1);
      } else if (I >= 2) {
        B.setRet(P, I); // Early return; later blocks may be unreachable.
      } else {
        B.setJump(P, I, I + 1);
      }
    }
  }
  return B.take();
}

/// A machine with three distinct core types (beyond the paper's two).
MachineConfig threeTypeMachine() {
  MachineConfig MC;
  MC.CoreTypes = {{"fast", 2.4e6, 4096},
                  {"mid", 2.0e6, 3072},
                  {"slow", 1.6e6, 2048}};
  MC.Cores = {{0, 0}, {1, 0}, {2, 1}, {2, 1}};
  return MC;
}

TechniqueSpec loopTechnique() {
  TransitionConfig TC;
  TC.Strat = Strategy::Loop;
  TC.MinSize = 30;
  TunerConfig TU;
  TU.IpcDelta = 0.2;
  return TechniqueSpec::tuned(TC, TU);
}

TechniqueSpec bbTechnique() {
  TransitionConfig TC;
  TC.Strat = Strategy::BasicBlock;
  TC.MinSize = 10;
  TC.Lookahead = 1;
  TunerConfig TU;
  TU.IpcDelta = 0.15;
  return TechniqueSpec::tuned(TC, TU);
}

/// Runs one prepared benchmark alone to completion under \p Engine.
const Process &runAlone(Machine &M, const PreparedSuite &Suite,
                        uint64_t Seed) {
  uint32_t Pid = M.spawn(Suite.Images[0], Suite.Costs[0], Suite.Tuner, Seed,
                         -1, 0, Suite.Flats[0]);
  while (M.process(Pid).CompletionTime < 0)
    M.run(M.now() + 64);
  return M.process(Pid);
}

} // namespace

TEST(FlatImage, GlobalIdsFollowProcOffsets) {
  Program Prog = randomProgram(7);
  auto Cost = std::make_shared<const CostModel>(
      Prog, MachineConfig::quadAsymmetric());
  MarkingResult Empty;
  Empty.NumTypes = 1;
  Empty.RegionType.resize(Prog.Procs.size());
  auto IP =
      std::make_shared<const InstrumentedProgram>(Prog, std::move(Empty));
  FlatImage FI(IP, Cost);

  EXPECT_EQ(FI.numBlocks(), Prog.blockCount());
  uint32_t Expected = 0;
  for (const Procedure &P : Prog.Procs) {
    EXPECT_EQ(FI.offsetOf(P.Id), Expected);
    for (const BasicBlock &BB : P.Blocks) {
      uint32_t G = FI.globalId(P.Id, BB.Id);
      EXPECT_EQ(G, Expected + BB.Id);
      EXPECT_EQ(FI.procOf(G), P.Id);
      EXPECT_EQ(FI.block(G).Insts, BB.size());
      // Cycle-table entries are bit-identical to the cost model.
      for (uint32_t Ct = 0; Ct < FI.numCoreTypes(); ++Ct)
        for (uint32_t S = 1; S <= FI.maxSharers(); ++S)
          EXPECT_EQ(FI.cycleTable()[FI.block(G).CycleRow +
                                    FI.configOffset(Ct, S)],
                    Cost->blockCycles(P.Id, BB.Id, Ct, S));
    }
    Expected += static_cast<uint32_t>(P.Blocks.size());
  }
}

TEST(FlatImage, ChainSummariesMatchManualWalk) {
  Program Prog = randomProgram(11);
  auto Cost = std::make_shared<const CostModel>(
      Prog, MachineConfig::quadAsymmetric());
  MarkingResult Empty;
  Empty.NumTypes = 1;
  Empty.RegionType.resize(Prog.Procs.size());
  auto IP =
      std::make_shared<const InstrumentedProgram>(Prog, std::move(Empty));
  FlatImage FI(IP, Cost);

  uint32_t ChainRecords = 0;
  for (uint32_t G = 0; G < FI.numBlocks(); ++G) {
    const FlatBlock &F = FI.block(G);
    if (F.Op != FlatOp::Chain)
      continue;
    ++ChainRecords;
    ASSERT_GT(F.ChainBlocks, 0u) << "terminating program: chains exit";
    // Walk the chain by hand and check the fused summary.
    uint64_t Insts = 0;
    uint32_t Blocks = 0;
    uint32_t Cur = G;
    while (FI.block(Cur).Op == FlatOp::Chain) {
      Insts += FI.block(Cur).Insts;
      ++Blocks;
      Cur = FI.block(Cur).Succ[0];
    }
    EXPECT_EQ(F.ChainBlocks, Blocks);
    EXPECT_EQ(F.ChainInsts, Insts);
    EXPECT_EQ(F.ChainExit, Cur);
    // Summed cycles for every configuration.
    for (uint32_t Cfg = 0; Cfg < FI.configStride(); ++Cfg) {
      double Expect = 0;
      for (uint32_t Walk = G; FI.block(Walk).Op == FlatOp::Chain;
           Walk = FI.block(Walk).Succ[0])
        Expect += FI.cycleTable()[FI.block(Walk).CycleRow + Cfg];
      // Exact: costs sit on the dyadic cycle grid, so the suffix sums
      // the builder stores equal this left-to-right walk bit for bit.
      EXPECT_EQ(FI.chainCycleTable()[F.ChainRow + Cfg], Expect);
      EXPECT_TRUE(onCycleGrid(Expect));
    }
  }
  EXPECT_EQ(ChainRecords, FI.chainRecordCount());
  EXPECT_GT(ChainRecords, 0u) << "generator should produce jump runs";
}

TEST(FlatEngine, BitIdenticalToReferenceIsolated) {
  uint64_t TotalMarks = 0;
  uint64_t TotalSwitches = 0;
  uint64_t TotalMonitors = 0;
  for (uint64_t Seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull}) {
    std::vector<Program> Programs = {randomProgram(Seed)};
    for (const MachineConfig &MC :
         {MachineConfig::quadAsymmetric(), threeTypeMachine()}) {
      for (const TechniqueSpec &Tech :
           {TechniqueSpec::baseline(), loopTechnique(), bbTechnique()}) {
        PreparedSuite Suite = prepareSuite(Programs, MC, Tech);
        SimConfig Ref;
        Ref.Engine = ExecEngine::Reference;
        SimConfig Flat;
        Flat.Engine = ExecEngine::Flat;
        Machine MRef(MC, Ref, std::make_unique<ObliviousScheduler>());
        Machine MFlat(MC, Flat, std::make_unique<ObliviousScheduler>());
        const Process &PRef = runAlone(MRef, Suite, 42 + Seed);
        const Process &PFlat = runAlone(MFlat, Suite, 42 + Seed);
        SCOPED_TRACE("seed " + std::to_string(Seed) + " cores " +
                     std::to_string(MC.numCores()) + " tech " +
                     Tech.label());
        expectStatsIdentical(PRef.Stats, PFlat.Stats);
        EXPECT_EQ(PRef.CompletionTime, PFlat.CompletionTime);
        if (Suite.Images[0]->marks().empty())
          EXPECT_EQ(PRef.Stats.MarksFired, 0u);
        TotalMarks += PRef.Stats.MarksFired;
        TotalSwitches += PRef.Stats.CoreSwitches;
        TotalMonitors += PRef.Stats.MonitorSessions;
      }
    }
  }
  // The sweep must exercise the interesting engine paths, or the
  // differential comparison proves nothing about them.
  EXPECT_GT(TotalMarks, 0u);
  EXPECT_GT(TotalSwitches, 0u);
  EXPECT_GT(TotalMonitors, 0u);
}

TEST(FlatEngine, BitIdenticalToReferenceUnderContention) {
  // Multi-process workload: queue rotation, L2-sharing re-evaluation,
  // counter contention, and migrations must all line up exactly.
  std::vector<Program> Programs;
  for (uint64_t Seed : {21ull, 22ull, 23ull})
    Programs.push_back(randomProgram(Seed));
  for (const MachineConfig &MC :
       {MachineConfig::quadAsymmetric(), threeTypeMachine()}) {
    PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
    Workload W = Workload::random(6, 64, Programs.size(), 9);
    SimConfig Ref;
    Ref.Engine = ExecEngine::Reference;
    SimConfig Flat;
    Flat.Engine = ExecEngine::Flat;
    RunResult A = runWorkload(Suite, W, MC, Ref, 25);
    RunResult B = runWorkload(Suite, W, MC, Flat, 25);
    ASSERT_GT(A.Completed.size(), 0u);
    expectRunsIdentical(A, B);
  }
}

TEST(FlatEngine, SingleSuccessorCondFoldsIdentically) {
  // verify() admits Cond blocks with one successor; both engines must
  // fold the missing edge onto the only successor — including its mark
  // — and stay bit-identical.
  Program Prog;
  Prog.Name = "cond1";
  Procedure Main;
  Main.Id = 0;
  Main.Name = "main";
  BasicBlock B0;
  B0.Id = 0;
  for (int I = 0; I < 40; ++I)
    B0.Insts.push_back(Instruction::intAlu());
  B0.Term = TermKind::Cond;
  B0.Succs = {1};
  B0.TakenProb = 0.5; // Both RNG outcomes occur; both must fold.
  BasicBlock B1;
  B1.Id = 1;
  B1.Insts.push_back(Instruction::intAlu());
  B1.Term = TermKind::Loop;
  B1.Succs = {0, 2};
  B1.TripCount = 50;
  BasicBlock B2;
  B2.Id = 2;
  B2.Term = TermKind::Ret;
  Main.Blocks = {B0, B1, B2};
  Prog.Procs = {Main};
  std::string Error;
  ASSERT_TRUE(verify(Prog, &Error)) << Error;

  MarkingResult Marking;
  Marking.NumTypes = 2;
  Marking.RegionType.resize(1);
  Marking.Marks.push_back({0, 0, 0, MarkPoint::Edge, 0});
  auto IP = std::make_shared<const InstrumentedProgram>(Prog, Marking);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  auto Cost = std::make_shared<const CostModel>(Prog, MC);

  ProcessStats Stats[2];
  double Completion[2];
  int I = 0;
  for (ExecEngine Engine : {ExecEngine::Reference, ExecEngine::Flat}) {
    SimConfig SC;
    SC.Engine = Engine;
    Machine M(MC, SC, std::make_unique<ObliviousScheduler>());
    uint32_t Pid = M.spawn(IP, Cost, TunerConfig(), 5);
    while (M.process(Pid).CompletionTime < 0)
      M.run(M.now() + 64);
    Stats[I] = M.process(Pid).Stats;
    Completion[I] = M.process(Pid).CompletionTime;
    ++I;
  }
  expectStatsIdentical(Stats[0], Stats[1]);
  EXPECT_EQ(Completion[0], Completion[1]);
  // The folded edge fires its mark on every traversal, either outcome.
  EXPECT_EQ(Stats[0].MarksFired, 50u);
}

//===----------------------------------------------------------------------===//
// O(1) self-loop fusion: the flat engine charges K back-edge iterations
// of an unmarked single-block self-loop at once. Each case replays one
// process under both engines and expects bit-identity.
//===----------------------------------------------------------------------===//

namespace {

/// Two cores of two types with power-of-two frequencies, in separate L2
/// groups: a timeslice of j*c/Freq then gives a quantum budget of
/// exactly j*c cycles.
MachineConfig dyadicMachine() {
  MachineConfig MC;
  MC.CoreTypes = {{"fast", 2097152.0, 4096}, {"slow", 1048576.0, 2048}};
  MC.Cores = {{0, 0}, {1, 1}};
  return MC;
}

/// A block of \p Count integer-ALU instructions ending in \p Term.
BasicBlock aluBlock(uint32_t Id, unsigned Count, TermKind Term,
                    std::vector<uint32_t> Succs, uint32_t Trips = 1) {
  BasicBlock BB;
  BB.Id = Id;
  for (unsigned I = 0; I < Count; ++I)
    BB.Insts.push_back(Instruction::intAlu());
  BB.Term = Term;
  BB.Succs = std::move(Succs);
  BB.TripCount = Trips;
  return BB;
}

/// main: block 0 is a self-loop of \p Trips iterations exiting to block
/// 1, a return. The loop is the entry, so the first quantum's budget
/// check sees nothing but loop iterations.
Program entrySelfLoop(uint32_t Trips) {
  Program Prog;
  Prog.Name = "self_loop";
  Procedure Main;
  Main.Id = 0;
  Main.Name = "main";
  Main.Blocks = {aluBlock(0, 24, TermKind::Loop, {0, 1}, Trips),
                 aluBlock(1, 0, TermKind::Ret, {})};
  Prog.Procs = {Main};
  return Prog;
}

/// main: an outer loop (block 3, \p OuterTrips) around two self-loop
/// phases — block 1 (\p InnerTrips, 40 instructions) and block 2
/// (\p InnerTrips + 1, 24 instructions) — entered from block 0 and left
/// to block 4, a return. Every activation re-enters both self-loops.
Program nestedSelfLoops(uint32_t InnerTrips, uint32_t OuterTrips) {
  Program Prog;
  Prog.Name = "nested_self_loops";
  Procedure Main;
  Main.Id = 0;
  Main.Name = "main";
  Main.Blocks = {aluBlock(0, 8, TermKind::Jump, {1}),
                 aluBlock(1, 40, TermKind::Loop, {1, 2}, InnerTrips),
                 aluBlock(2, 24, TermKind::Loop, {2, 3}, InnerTrips + 1),
                 aluBlock(3, 4, TermKind::Loop, {0, 4}, OuterTrips),
                 aluBlock(4, 0, TermKind::Ret, {})};
  Prog.Procs = {Main};
  return Prog;
}

/// Instruments \p Prog with \p Marks (two phase types).
std::shared_ptr<const InstrumentedProgram>
withMarks(const Program &Prog, std::vector<PhaseMark> Marks = {}) {
  std::string Error;
  EXPECT_TRUE(verify(Prog, &Error)) << Error;
  MarkingResult Marking;
  Marking.NumTypes = 2;
  Marking.RegionType.resize(Prog.Procs.size());
  Marking.Marks = std::move(Marks);
  return std::make_shared<const InstrumentedProgram>(Prog, Marking);
}

/// Drives a machine holding one process; must run it to completion.
using Driver = std::function<void(Machine &, uint32_t Pid)>;

void runToCompletion(Machine &M, uint32_t Pid) {
  while (M.process(Pid).CompletionTime < 0)
    M.run(M.now() + 64);
}

/// Replays \p IP alone on \p MC under each engine, driven by \p Drive,
/// and expects the two processes bit-identical. Returns the reference
/// process's stats for case-specific checks.
ProcessStats expectEnginesAgree(std::shared_ptr<const InstrumentedProgram> IP,
                                const MachineConfig &MC, SimConfig SC,
                                const Driver &Drive = runToCompletion) {
  auto Cost = std::make_shared<const CostModel>(IP->program(), MC);
  ProcessStats Stats[2];
  double Completion[2];
  int I = 0;
  for (ExecEngine Engine : {ExecEngine::Reference, ExecEngine::Flat}) {
    SC.Engine = Engine;
    Machine M(MC, SC, std::make_unique<ObliviousScheduler>());
    uint32_t Pid = M.spawn(IP, Cost, TunerConfig(), 5);
    Drive(M, Pid);
    Stats[I] = M.process(Pid).Stats;
    Completion[I] = M.process(Pid).CompletionTime;
    ++I;
  }
  expectStatsIdentical(Stats[0], Stats[1]);
  EXPECT_EQ(Completion[0], Completion[1]);
  EXPECT_GT(Completion[0], 0.0);
  return Stats[0];
}

} // namespace

TEST(SelfLoopFusion, BudgetRunsOutMidLoop) {
  // 24 instructions per iteration over 100k trips spans dozens of
  // quanta; the default budget is no multiple of the iteration cost, so
  // every quantum ends part-way through an iteration's budget share.
  const uint32_t Trips = 100000;
  SimConfig SC;
  uint32_t Quanta = 0;
  ProcessStats S = expectEnginesAgree(
      withMarks(entrySelfLoop(Trips)), dyadicMachine(), SC,
      [&](Machine &M, uint32_t Pid) {
        while (M.process(Pid).CompletionTime < 0) {
          M.run(M.now() + SC.Timeslice);
          ++Quanta;
        }
      });
  EXPECT_EQ(S.BlocksExecuted, Trips + 1u);
  EXPECT_GT(Quanta, 10u);
}

TEST(SelfLoopFusion, BudgetLandsExactlyOnIterationBoundary) {
  // Budget = 500 iterations exactly: the stepwise loop stops when
  // Used + j*c == Budget (the check is Used < Budget), so both engines
  // must retire exactly 500 iterations in the first quantum.
  MachineConfig MC = dyadicMachine();
  Program Prog = entrySelfLoop(1700);
  CostModel Cost(Prog, MC);
  double C = Cost.blockCycles(0, 0, /*CoreType=*/0, /*Sharers=*/1);
  ASSERT_TRUE(onCycleGrid(C));
  const uint32_t J = 500;
  SimConfig SC;
  SC.Timeslice = J * C / MC.CoreTypes[0].Frequency;
  ASSERT_EQ(SC.Timeslice * MC.CoreTypes[0].Frequency, J * C);
  SC.BalancePeriod = 1e6;
  expectEnginesAgree(withMarks(Prog), MC, SC, [&](Machine &M, uint32_t Pid) {
    M.run(SC.Timeslice);
    EXPECT_EQ(M.process(Pid).Stats.BlocksExecuted, J);
    EXPECT_EQ(M.process(Pid).LoopRemaining[0], 1700u - J);
    runToCompletion(M, Pid);
  });
}

TEST(SelfLoopFusion, TripCountsOneAndTwo) {
  // Trip count 1 leaves no back edge to fuse; 2 leaves exactly one.
  for (uint32_t Trips : {1u, 2u}) {
    SCOPED_TRACE("trips " + std::to_string(Trips));
    ProcessStats S = expectEnginesAgree(
        withMarks(nestedSelfLoops(Trips, 20000)), dyadicMachine(),
        SimConfig());
    EXPECT_EQ(S.BlocksExecuted, 20000u * (2 * Trips + 3) + 1);
  }
}

TEST(SelfLoopFusion, MarkedBackEdgeDoesNotFuse) {
  // A mark on the back edge fires on every iteration, so the loop must
  // step: one mark per back-edge traversal, charged in order.
  Program Prog = nestedSelfLoops(300, 50);
  ProcessStats S = expectEnginesAgree(
      withMarks(Prog, {{0, 1, 0, MarkPoint::Edge, 1}}), dyadicMachine(),
      SimConfig());
  EXPECT_EQ(S.MarksFired, 50u * 299);
}

TEST(SelfLoopFusion, MonitoringAcrossFusedRuns) {
  // Phase marks on both self-loops' entry edges: each mark closes the
  // previous monitoring session and may open the next, so sessions span
  // fused runs (MonInsts/MonCycles advance by K at a time) and the
  // tuner's samples, decisions, and migrations depend on them.
  Program Prog = nestedSelfLoops(5000, 40);
  ProcessStats S = expectEnginesAgree(
      withMarks(Prog, {{0, 0, 0, MarkPoint::Edge, 1},
                       {0, 1, 1, MarkPoint::Edge, 0}}),
      dyadicMachine(), SimConfig());
  EXPECT_GT(S.MonitorSessions, 1u);
  EXPECT_EQ(S.MarksFired, 80u);
}

TEST(SelfLoopFusion, LoopResumesAcrossQuantaAndAfterMigration) {
  // Stop after one quantum with the loop part-way, move the process to
  // the other core type (different cost per iteration and budget), and
  // finish there: the remaining trip count carries over exactly.
  const uint32_t Trips = 100000;
  expectEnginesAgree(
      withMarks(entrySelfLoop(Trips)), dyadicMachine(), SimConfig(),
      [&](Machine &M, uint32_t Pid) {
        M.run(M.simConfig().Timeslice);
        uint32_t Rem = M.process(Pid).LoopRemaining[0];
        EXPECT_GT(Rem, 1u);
        EXPECT_LT(Rem, Trips);
        ASSERT_EQ(M.queueLength(0), 1u); // Spawned onto core 0 (fast).
        ASSERT_TRUE(M.moveQueued(Pid, 0, 1));
        M.run(2 * M.simConfig().Timeslice);
        EXPECT_LT(M.process(Pid).LoopRemaining[0], Rem);
        runToCompletion(M, Pid);
      });
}

//===----------------------------------------------------------------------===//
// Chain fusion on chain-heavy programs
//===----------------------------------------------------------------------===//

TEST(ChainFusion, ChainHeavyIsolatedBitIdentical) {
  uint64_t TotalMarks = 0;
  uint64_t TotalSwitches = 0;
  uint32_t ChainRecords = 0;
  for (uint64_t Seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull}) {
    std::vector<Program> Programs = {randomProgram(Seed, true)};
    for (const MachineConfig &MC :
         {MachineConfig::quadAsymmetric(), threeTypeMachine()}) {
      for (const TechniqueSpec &Tech :
           {TechniqueSpec::baseline(), loopTechnique()}) {
        PreparedSuite Suite = prepareSuite(Programs, MC, Tech);
        ChainRecords += Suite.Flats[0]->chainRecordCount();
        SimConfig Ref;
        Ref.Engine = ExecEngine::Reference;
        SimConfig Flat;
        Flat.Engine = ExecEngine::Flat;
        Machine MR(MC, Ref, std::make_unique<ObliviousScheduler>());
        Machine MF(MC, Flat, std::make_unique<ObliviousScheduler>());
        const Process &PR = runAlone(MR, Suite, 42 + Seed);
        const Process &PF = runAlone(MF, Suite, 42 + Seed);
        SCOPED_TRACE("seed " + std::to_string(Seed) + " cores " +
                     std::to_string(MC.numCores()) + " tech " +
                     Tech.label());
        expectStatsIdentical(PR.Stats, PF.Stats);
        EXPECT_EQ(PR.CompletionTime, PF.CompletionTime);
        TotalMarks += PR.Stats.MarksFired;
        TotalSwitches += PR.Stats.CoreSwitches;
      }
    }
  }
  // The sweep must exercise chains and the monitored and migrating
  // paths, or the comparison proves nothing about them.
  EXPECT_GT(ChainRecords, 0u);
  EXPECT_GT(TotalMarks, 0u);
  EXPECT_GT(TotalSwitches, 0u);
}

TEST(ChainFusion, ChainHeavyWorkloadBitIdentical) {
  std::vector<Program> Programs;
  for (uint64_t Seed : {21ull, 22ull, 23ull})
    Programs.push_back(randomProgram(Seed, true));
  for (const MachineConfig &MC :
       {MachineConfig::quadAsymmetric(), threeTypeMachine()}) {
    PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
    Workload W = Workload::random(6, 64, Programs.size(), 9);
    SimConfig Ref;
    Ref.Engine = ExecEngine::Reference;
    SimConfig Flat;
    Flat.Engine = ExecEngine::Flat;
    RunResult A = runWorkload(Suite, W, MC, Ref, 25);
    RunResult B = runWorkload(Suite, W, MC, Flat, 25);
    ASSERT_GT(A.Completed.size(), 0u);
    expectRunsIdentical(A, B);
  }
}

//===----------------------------------------------------------------------===//
// Hot-lane invariant cache
//===----------------------------------------------------------------------===//

TEST(HotLane, ConfigOffsetCacheInvisibleUnderMigrationChurn) {
  // The per-process hot lane caches the (core type, sharers) ->
  // configuration offset mapping and recomputes it only on migration
  // or sharer change. configOffset is a pure function, so the cache
  // must be invisible: the Flat engine (which uses it) stays
  // bit-identical to the Reference interpreter (which does not) on a
  // migration-heavy contended workload — doubles compared with ==.
  std::vector<Program> Programs;
  for (uint64_t Seed : {21ull, 22ull, 23ull})
    Programs.push_back(randomProgram(Seed));
  uint64_t TotalSwitches = 0;
  for (const MachineConfig &MC :
       {MachineConfig::quadAsymmetric(), threeTypeMachine()}) {
    PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
    Workload W = Workload::random(6, 48, Programs.size(), 17);
    SimConfig Ref;
    Ref.Engine = ExecEngine::Reference;
    SimConfig Flat;
    Flat.Engine = ExecEngine::Flat;
    RunResult A = runWorkload(Suite, W, MC, Ref, 25);
    RunResult B = runWorkload(Suite, W, MC, Flat, 25);
    TotalSwitches += A.TotalSwitches;
    EXPECT_EQ(A.InstructionsRetired, B.InstructionsRetired);
    EXPECT_EQ(A.TotalCycles, B.TotalCycles);
    EXPECT_EQ(A.TotalOverheadCycles, B.TotalOverheadCycles);
    ASSERT_EQ(A.Completed.size(), B.Completed.size());
    ASSERT_GT(A.Completed.size(), 0u);
    for (size_t I = 0; I < A.Completed.size(); ++I) {
      EXPECT_EQ(A.Completed[I].Completion, B.Completed[I].Completion);
      expectStatsIdentical(A.Completed[I].Stats, B.Completed[I].Stats);
    }
  }
  // Many migrations and sharer changes, or the cache was not churned.
  EXPECT_GT(TotalSwitches, 0u);
}

//===----------------------------------------------------------------------===//
// Parallel runner
//===----------------------------------------------------------------------===//

TEST(ParallelRunner, BitIdenticalToSerialRuns) {
  // Replicated workloads through the thread pool must reproduce the
  // serial loop exactly, in input order.
  auto Specs = specSuite();
  std::vector<Program> Programs;
  for (const std::string &Name : {"164.gzip", "179.art", "473.astar"})
    for (const BenchSpec &S : Specs)
      if (S.Name == Name)
        Programs.push_back(buildBenchmark(S));
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Base = prepareSuite(Programs, MC, TechniqueSpec::baseline());
  PreparedSuite Tuned = prepareSuite(Programs, MC, loopTechnique());

  std::vector<Workload> Workloads;
  for (uint64_t Seed : {5ull, 6ull, 7ull, 8ull})
    Workloads.push_back(
        Workload::random(4, 64, static_cast<uint32_t>(Programs.size()),
                         Seed));
  SimConfig SC;
  std::vector<WorkloadJob> Jobs;
  for (size_t I = 0; I < Workloads.size(); ++I) {
    WorkloadJob Job;
    Job.Suite = I % 2 ? &Tuned : &Base;
    Job.W = &Workloads[I];
    Job.Machine = &MC;
    Job.Sim = SC;
    Job.Horizon = 20.0;
    Jobs.push_back(std::move(Job));
  }

  std::vector<RunResult> Parallel = runWorkloads(Jobs);
  ASSERT_EQ(Parallel.size(), Jobs.size());
  for (size_t I = 0; I < Jobs.size(); ++I) {
    RunResult Serial =
        runWorkload(*Jobs[I].Suite, *Jobs[I].W, MC, SC, Jobs[I].Horizon);
    EXPECT_EQ(Serial.InstructionsRetired, Parallel[I].InstructionsRetired);
    EXPECT_EQ(Serial.TotalMarks, Parallel[I].TotalMarks);
    EXPECT_EQ(Serial.TotalCycles, Parallel[I].TotalCycles);
    ASSERT_EQ(Serial.Completed.size(), Parallel[I].Completed.size());
    for (size_t J = 0; J < Serial.Completed.size(); ++J) {
      EXPECT_EQ(Serial.Completed[J].Completion,
                Parallel[I].Completed[J].Completion);
      expectStatsIdentical(Serial.Completed[J].Stats,
                           Parallel[I].Completed[J].Stats);
    }
  }
}

TEST(ParallelRunner, IsolatedRuntimesMatchManualLoop) {
  auto Specs = specSuite();
  std::vector<Program> Programs;
  for (const std::string &Name : {"164.gzip", "179.art"})
    for (const BenchSpec &S : Specs)
      if (S.Name == Name)
        Programs.push_back(buildBenchmark(S));
  MachineConfig MC = MachineConfig::quadAsymmetric();
  SimConfig SC;
  std::vector<double> Pooled = isolatedRuntimes(Programs, MC, SC);
  PreparedSuite Suite =
      prepareSuite(Programs, MC, TechniqueSpec::baseline());
  ASSERT_EQ(Pooled.size(), Programs.size());
  for (uint32_t I = 0; I < Programs.size(); ++I) {
    CompletedJob Job = runIsolated(Suite, I, MC, SC);
    EXPECT_EQ(Pooled[I], Job.Completion - Job.Arrival);
  }
}
