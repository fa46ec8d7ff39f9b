//===- tests/flatimage_test.cpp - flat-engine differential tests ----------===//
//
// The flat execution engine must be a perfect stand-in for the
// block-at-a-time reference interpreter: on randomized programs, across
// machines with two and three core types, instrumented or not, every
// ProcessStats field (including the floating-point ones) and every
// completion time must be bit-identical. That holds on jump-heavy
// programs (long mark-free jump runs) and under migration churn of the
// hot-lane configuration-offset cache. The
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

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

using namespace pbt;

namespace {

/// Generates a random but guaranteed-terminating program: within a
/// procedure control only moves forward, self-loops finitely, or
/// returns; calls target strictly later procedures (acyclic call graph).
/// \p JumpHeavy turns the generator's conditional branches into jumps
/// too, lengthening the mark-free straight-line runs.
Program randomProgram(uint64_t Seed, bool JumpHeavy = false) {
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
      if (Roll < (JumpHeavy ? 0.5 : 0.3)) {
        B.setJump(P, I, I + 1); // Straight-line step.
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
  uint32_t Pid = M.spawn(Suite.Flats[0], Suite.Tuner, Seed);
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

  // The image reads its cost model's cycle table in place.
  EXPECT_EQ(FI.cycleTable(), Cost->cycleTable().data());
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
        if (Suite.Flats[0]->program().marks().empty()) {
          EXPECT_EQ(PRef.Stats.MarksFired, 0u);
        }
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
  auto Flat = std::make_shared<const FlatImage>(
      IP, std::make_shared<const CostModel>(Prog, MC));

  ProcessStats Stats[2];
  double Completion[2];
  int I = 0;
  for (ExecEngine Engine : {ExecEngine::Reference, ExecEngine::Flat}) {
    SimConfig SC;
    SC.Engine = Engine;
    Machine M(MC, SC, std::make_unique<ObliviousScheduler>());
    uint32_t Pid = M.spawn(Flat, TunerConfig(), 5);
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

TEST(FlatEngine, TechniquesOnOneLayoutReplayInOneBatch) {
  // Two techniques with different marks prepared on the same programs
  // share one block layout per program and differ only in their mark
  // tables. Replayed side by side in one parallel batch, each must
  // still match its own Reference replay bit for bit.
  std::vector<Program> Programs;
  for (uint64_t Seed : {31ull, 32ull, 33ull})
    Programs.push_back(randomProgram(Seed));
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Loop = prepareSuite(Programs, MC, loopTechnique());
  PreparedSuite BB = prepareSuite(Programs, MC, bbTechnique());
  bool MarksDiffer = false;
  for (size_t I = 0; I < Programs.size(); ++I) {
    EXPECT_EQ(Loop.Flats[I]->blocks(), BB.Flats[I]->blocks());
    EXPECT_NE(Loop.Flats[I]->markTable(), BB.Flats[I]->markTable());
    const std::vector<BlockMarks> &A = Loop.Flats[I]->program().markTable();
    const std::vector<BlockMarks> &B = BB.Flats[I]->program().markTable();
    for (size_t G = 0; G < A.size(); ++G)
      MarksDiffer |= A[G].EdgeMark[0] != B[G].EdgeMark[0] ||
                     A[G].EdgeMark[1] != B[G].EdgeMark[1] ||
                     A[G].CallMark != B[G].CallMark;
  }
  EXPECT_TRUE(MarksDiffer);

  Workload W = Workload::random(6, 64, Programs.size(), 17);
  SimConfig Flat;
  Flat.Engine = ExecEngine::Flat;
  SimConfig Ref;
  Ref.Engine = ExecEngine::Reference;
  std::vector<WorkloadJob> Jobs;
  for (const PreparedSuite *Suite : {&Loop, &BB}) {
    WorkloadJob Job;
    Job.Suite = Suite;
    Job.W = &W;
    Job.Machine = &MC;
    Job.Sim = Flat;
    Job.Horizon = 25.0;
    Jobs.push_back(std::move(Job));
  }
  std::vector<RunResult> Batch = runWorkloads(Jobs);
  ASSERT_EQ(Batch.size(), 2u);
  for (size_t I = 0; I < Jobs.size(); ++I) {
    SCOPED_TRACE(I == 0 ? "loop technique" : "basic-block technique");
    RunResult Reference = runWorkload(*Jobs[I].Suite, W, MC, Ref, 25.0);
    ASSERT_GT(Reference.Completed.size(), 0u);
    EXPECT_GT(Reference.TotalMarks, 0u);
    expectRunsIdentical(Reference, Batch[I]);
  }
  EXPECT_NE(Batch[0].TotalMarks, Batch[1].TotalMarks);
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
  auto Flat = std::make_shared<const FlatImage>(
      IP, std::make_shared<const CostModel>(IP->program(), MC));
  ProcessStats Stats[2];
  double Completion[2];
  int I = 0;
  for (ExecEngine Engine : {ExecEngine::Reference, ExecEngine::Flat}) {
    SC.Engine = Engine;
    Machine M(MC, SC, std::make_unique<ObliviousScheduler>());
    uint32_t Pid = M.spawn(Flat, TunerConfig(), 5);
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
// Steady-quantum fusion: Machine::run charges a core's run of quanta in
// which every queue front runs one budget-exhausting unmarked self-loop
// turn in one step. The Reference machine steps every quantum, so each
// case replays the same scenario on both engines and expects the
// machines bit-identical, fused windows included.
//===----------------------------------------------------------------------===//

namespace {

/// main: block 0 self-loops \p Trips times over a mix of \p Count
/// instructions (memory-bound when \p Memory, so its cost depends on
/// the L2 sharer count), then block 1 returns.
Program loopProgram(uint32_t Trips, unsigned Count, bool Memory,
                    uint64_t Seed = 1) {
  IRBuilder B("loop_" + std::to_string(Trips), Seed);
  uint32_t Main = B.createProc("main");
  uint32_t Body = B.addBlock(Main);
  uint32_t Exit = B.addBlock(Main);
  B.appendMix(Main, Body,
              // 48k lines fit a whole 4 MiB L2 but not half of one.
              Memory ? InstMix::memory(Count, 48000, 0.3)
                     : InstMix::compute(Count, 0.2));
  B.setLoop(Main, Body, Body, Exit, Trips);
  B.setRet(Main, Exit);
  return B.take();
}

/// One single-core machine of the dyadic fast type.
MachineConfig oneCoreMachine() {
  MachineConfig MC = dyadicMachine();
  MC.Cores = {{0, 0}};
  return MC;
}

/// A flat image of a program for spawning on \p MC.
using Image = std::shared_ptr<const FlatImage>;
Image imageFor(const Program &Prog, const MachineConfig &MC,
               std::vector<PhaseMark> Marks = {}) {
  auto IP = withMarks(Prog, std::move(Marks));
  return std::make_shared<const FlatImage>(
      IP, std::make_shared<const CostModel>(IP->program(), MC));
}

uint32_t spawnImage(Machine &M, const Image &I, uint64_t Seed = 5) {
  return M.spawn(I, TunerConfig(), Seed);
}

/// Core-quanta the Flat machine of expectFusionInvisible stepped and
/// deferred, the balance instants it skipped, the windows it settled,
/// the turns it stepped inside open windows, the placements that joined
/// an open window and the catch-ups of open windows.
struct QuantaCounts {
  uint64_t Stepped = 0;
  uint64_t Fused = 0;
  uint64_t Skipped = 0;
  uint64_t Settles = 0;
  uint64_t WindowSteps = 0;
  uint64_t Absorbs = 0;
  uint64_t CatchUps = 0;
};

using PolicyFactory = std::function<std::unique_ptr<SchedulerPolicy>()>;

std::unique_ptr<SchedulerPolicy> oblivious() {
  return std::make_unique<ObliviousScheduler>();
}

/// Oblivious scheduling declared to read Anything: every balance
/// instant runs and settles every core, so it ends each window.
struct SettlingOblivious final : ObliviousScheduler {
  PolicyReads reads() const override { return PolicyReads::Anything; }
};

/// Both ways a balance instant meets a window: crossed (skipped) or
/// cut (settled).
const std::pair<const char *, PolicyFactory> BalanceModes[] = {
    {"oblivious", oblivious},
    {"settling", [] { return std::make_unique<SettlingOblivious>(); }}};

/// Plays \p Play (spawns, events, run calls) on one machine per engine
/// and expects the two bit-identical: clock, every process's stats,
/// completion, trip counts, monitoring state and telemetry, per-core
/// busy fractions, and runqueue order. Returns the Flat machine's
/// counts. The Reference machine steps every core in every quantum,
/// opens no window and skips no balance, so its stepped core-quanta are
/// a multiple of the core count and equal the Flat machine's stepped
/// plus fused ones. Every window the Flat machine opened was settled.
QuantaCounts
expectFusionInvisible(const MachineConfig &MC, SimConfig SC,
                      const std::function<void(Machine &)> &Play,
                      const PolicyFactory &MakePolicy = oblivious) {
  std::unique_ptr<Machine> Ms[2];
  int I = 0;
  for (ExecEngine Engine : {ExecEngine::Reference, ExecEngine::Flat}) {
    SC.Engine = Engine;
    Ms[I] = std::make_unique<Machine>(MC, SC, MakePolicy());
    Play(*Ms[I]);
    ++I;
  }
  const Machine &R = *Ms[0];
  const Machine &F = *Ms[1];
  EXPECT_EQ(R.now(), F.now());
  EXPECT_EQ(R.quantaFused(), 0u);
  EXPECT_EQ(R.balancesSkipped(), 0u);
  EXPECT_EQ(R.windowsOpened(), 0u);
  EXPECT_EQ(R.windowSteps(), 0u);
  EXPECT_EQ(R.windowAbsorbs(), 0u);
  EXPECT_EQ(R.windowCatchUps(), 0u);
  EXPECT_EQ(F.windowsOpened(), F.windowSettles());
  EXPECT_EQ(R.quantaStepped() % MC.numCores(), 0u);
  EXPECT_EQ(R.quantaStepped(), F.quantaStepped() + F.quantaFused());
  EXPECT_EQ(R.totalInstructions(), F.totalInstructions());
  for (uint32_t Core = 0; Core < MC.numCores(); ++Core) {
    EXPECT_EQ(R.coreBusyFraction(Core), F.coreBusyFraction(Core));
    EXPECT_EQ(R.queue(Core), F.queue(Core)) << "core " << Core;
  }
  EXPECT_EQ(R.processes().size(), F.processes().size());
  for (size_t Pid = 0;
       Pid < std::min(R.processes().size(), F.processes().size()); ++Pid) {
    SCOPED_TRACE("pid " + std::to_string(Pid));
    const Process &A = *R.processes()[Pid];
    const Process &B = *F.processes()[Pid];
    expectStatsIdentical(A.Stats, B.Stats);
    EXPECT_EQ(A.CompletionTime, B.CompletionTime);
    EXPECT_EQ(A.LoopRemaining, B.LoopRemaining);
    EXPECT_EQ(A.MonActive, B.MonActive);
    EXPECT_EQ(A.MonInsts, B.MonInsts);
    EXPECT_EQ(A.MonCycles, B.MonCycles);
    const SchedTelemetry &TA = R.telemetry(A.Pid);
    const SchedTelemetry &TB = F.telemetry(B.Pid);
    EXPECT_EQ(TA.InstsByType, TB.InstsByType);
    EXPECT_EQ(TA.CyclesByType, TB.CyclesByType);
    EXPECT_EQ(TA.WindowIpc, TB.WindowIpc);
    EXPECT_EQ(TA.WindowCoreType, TB.WindowCoreType);
  }
  return QuantaCounts{F.quantaStepped(),  F.quantaFused(),
                      F.balancesSkipped(), F.windowSettles(),
                      F.windowSteps(),     F.windowAbsorbs(),
                      F.windowCatchUps()};
}

} // namespace

TEST(SteadyQuantumFusion, WindowsCutByNextBalance) {
  // One long loop: under the settling policy every window ends at a
  // balance instant; under oblivious ones the no-op instants are
  // skipped and NextBalance replayed. A period that is no multiple of
  // the timeslice puts the instants mid-stride.
  Image I = imageFor(loopProgram(2000000, 24, false), dyadicMachine());
  for (const auto &Mode : BalanceModes) {
    for (double Period : {0.1, 0.0105}) {
      SCOPED_TRACE(std::string(Mode.first) + " balance period " +
                   std::to_string(Period));
      SimConfig SC;
      SC.BalancePeriod = Period;
      QuantaCounts Q = expectFusionInvisible(
          dyadicMachine(), SC,
          [&](Machine &M) {
            spawnImage(M, I);
            M.run(7.3);
          },
          Mode.second);
      EXPECT_GT(Q.Fused, 10 * Q.Stepped);
    }
  }
}

TEST(SteadyQuantumFusion, WindowCutByArrivalMidWindow) {
  // Arrivals at instants off the quantum grid land inside what would
  // otherwise be one window; the new job changes queue lengths and, on
  // the shared L2, the running job's cost.
  MachineConfig MC = MachineConfig::quadAsymmetric();
  Image Long = imageFor(loopProgram(900000, 40, true), MC);
  Image Short = imageFor(loopProgram(30000, 24, false, 2), MC);
  SimConfig SC;
  SC.BalancePeriod = 0.5;
  QuantaCounts Q = expectFusionInvisible(MC, SC, [&](Machine &M) {
    spawnImage(M, Long);
    for (double At : {0.0571, 0.3013, 0.3013, 0.9})
      M.scheduleAt(At, [&](Machine &Mach) { spawnImage(Mach, Short, 9); });
    M.run(3.0);
  });
  EXPECT_GT(Q.Fused, 0u);
}

TEST(SteadyQuantumFusion, MonitoringSessionOpenAcrossWindow) {
  // The entry edge's mark opens a counter session that stays open for
  // the whole first self-loop: MonInsts/MonCycles advance by whole
  // windows, and the sample the tuner records must match.
  Image I = imageFor(nestedSelfLoops(200000, 3), dyadicMachine(),
                     {{0, 0, 0, MarkPoint::Edge, 1},
                      {0, 1, 1, MarkPoint::Edge, 0}});
  bool OpenAcrossWindow = false;
  QuantaCounts Q =
      expectFusionInvisible(dyadicMachine(), SimConfig(), [&](Machine &M) {
        uint32_t Pid = spawnImage(M, I);
        M.run(0.5);
        if (M.process(Pid).MonActive && M.quantaFused() > 0)
          OpenAcrossWindow = true;
        runToCompletion(M, Pid);
        EXPECT_GT(M.process(Pid).Stats.MonitorSessions, 1u);
      });
  EXPECT_TRUE(OpenAcrossWindow);
  EXPECT_GT(Q.Fused, 0u);
}

TEST(SteadyQuantumFusion, QueueRotationWithRemainder) {
  // Queues of one to three jobs on one core, with windows cut by the
  // balance period (25 quanta, settling policy) or by the shortest
  // job's steady turns (balancing skipped or out of the way): both
  // leave S mod len != 0, so the queue must come out rotated by exactly
  // S mod len.
  for (const auto &Mode : BalanceModes) {
    for (uint32_t Len : {1u, 2u, 3u}) {
      for (double Period : {0.1, 1e3}) {
        SCOPED_TRACE(std::string(Mode.first) + " len " +
                     std::to_string(Len) + " period " +
                     std::to_string(Period));
        std::vector<Image> Images;
        for (uint32_t Job = 0; Job < Len; ++Job)
          Images.push_back(imageFor(loopProgram(2000000 + 17011 * Job,
                                                24 + 8 * Job, false, Job + 1),
                                    oneCoreMachine()));
        SimConfig SC;
        SC.BalancePeriod = Period;
        QuantaCounts Q = expectFusionInvisible(
            oneCoreMachine(), SC,
            [&](Machine &M) {
              for (const Image &I : Images)
                spawnImage(M, I);
              // Stop mid-run: the machines compare queue order too.
              M.run(1.5);
              EXPECT_EQ(M.queueLength(0), Len);
            },
            Mode.second);
        EXPECT_GT(Q.Fused, 0u);
      }
    }
  }
}

TEST(SteadyQuantumFusion, TripsLeftExactMultipleOfTurn) {
  // Left - 1 = m*J: the m-th steady turn leaves exactly the exit
  // iteration, which the next (stepped) quantum runs before returning.
  // One trip fewer and one more cover the neighbours.
  MachineConfig MC = dyadicMachine();
  Program Probe = loopProgram(2, 24, false);
  CostModel Cost(Probe, MC);
  double C = Cost.blockCycles(0, 0, /*CoreType=*/0, /*Sharers=*/1);
  SimConfig SC;
  double Budget = SC.Timeslice * MC.CoreTypes[0].Frequency;
  uint32_t J = static_cast<uint32_t>(std::ceil(Budget / C));
  while (J > 1 && (J - 1) * C >= Budget)
    --J;
  while (J * C < Budget)
    ++J;
  const uint32_t M = 37;
  for (uint32_t Trips : {M * J, M * J + 1, M * J + 2}) {
    SCOPED_TRACE("trips " + std::to_string(Trips));
    Image I = imageFor(loopProgram(Trips, 24, false), MC);
    QuantaCounts Q = expectFusionInvisible(MC, SC, [&](Machine &Mach) {
      uint32_t Pid = spawnImage(Mach, I);
      runToCompletion(Mach, Pid);
    });
    EXPECT_GT(Q.Fused, 0u);
  }
}

TEST(SteadyQuantumFusion, SharerGoesIdleAfterWindow) {
  // Two cores on one L2: a short memory-bound job finishes right after
  // a window, and its neighbour's cost drops from the two-sharer to the
  // one-sharer row in the very next quantum.
  MachineConfig MC;
  MC.CoreTypes = {{"fast", 2097152.0, 4096}};
  MC.Cores = {{0, 0}, {0, 0}};
  Image Long = imageFor(loopProgram(600000, 40, true), MC);
  Image Short = imageFor(loopProgram(40000, 40, true, 2), MC);
  ASSERT_NE(Long->cost().blockCycles(0, 0, 0, 1),
            Long->cost().blockCycles(0, 0, 0, 2));
  SimConfig SC;
  SC.BalancePeriod = 1e3;
  QuantaCounts Q = expectFusionInvisible(MC, SC, [&](Machine &M) {
    uint32_t A = spawnImage(M, Long);
    uint32_t B = spawnImage(M, Short, 7);
    runToCompletion(M, A);
    runToCompletion(M, B);
    EXPECT_GT(M.process(A).CompletionTime, M.process(B).CompletionTime);
  });
  EXPECT_GT(Q.Fused, 0u);
}

TEST(SteadyQuantumFusion, FallsBackNearExactCycleBound) {
  // A huge timeslice makes each turn charge about 2^34 cycles, so the
  // core's busy-cycle accumulator reaches 2^37 within eight turns.
  // Windows fuse while every accumulator stays below the bound: two
  // turns long under the settling policy (the balance period), halved
  // from the planned length under oblivious. After that each quantum
  // must step, because past the bound a turn's add rounds (its charge
  // has a 2^-16 bit set) and a product would not.
  MachineConfig MC = oneCoreMachine();
  Program Prog = loopProgram(2, 16384, true);
  CostModel Cost(Prog, MC);
  double C = Cost.blockCycles(0, 0, 0, 1);
  SimConfig SC;
  SC.Timeslice = std::ldexp(1.0, 34) / MC.CoreTypes[0].Frequency;
  SC.BalancePeriod = 2 * SC.Timeslice;
  uint32_t J = static_cast<uint32_t>(std::ceil(std::ldexp(1.0, 34) / C));
  const uint32_t Turns = 12;
  double Charge = J * C;
  ASSERT_NE(std::fmod(std::ldexp(Charge, 15), 1.0), 0.0);
  double Stepped = 0;
  for (uint32_t Turn = 0; Turn < Turns; ++Turn)
    Stepped += Charge;
  ASSERT_NE(Stepped, Turns * Charge); // The bound matters here.

  Prog.Procs[0].Blocks[0].TripCount = Turns * J;
  Image I = imageFor(Prog, MC);
  for (const auto &Mode : BalanceModes) {
    SCOPED_TRACE(Mode.first);
    QuantaCounts Q = expectFusionInvisible(
        MC, SC,
        [&](Machine &M) {
          // Stop at the exit, so idle quanta after it count for nothing.
          M.setExitHandler([](Machine &Mach, Process &) {
            Mach.requestStop();
          });
          uint32_t Pid = spawnImage(M, I);
          while (M.process(Pid).CompletionTime < 0)
            M.run(M.now() + 64 * SC.Timeslice);
          EXPECT_GT(M.process(Pid).Stats.CyclesConsumed, ExactCycleBound);
        },
        Mode.second);
    EXPECT_GT(Q.Fused, 0u);
    EXPECT_GE(Q.Stepped, 4u);
  }
}

TEST(SteadyQuantumFusion, IdleMachineSkipsToLateArrival) {
  // Nothing runs until an arrival at 123.4567 s: the idle quanta before
  // it are charged in windows cut only by balance instants, and the
  // clock walk must land on the same quantum start as stepping.
  Image I = imageFor(loopProgram(5000, 24, false), dyadicMachine());
  SimConfig SC;
  SC.BalancePeriod = 50;
  QuantaCounts Q =
      expectFusionInvisible(dyadicMachine(), SC, [&](Machine &M) {
        M.scheduleAt(123.4567, [&](Machine &Mach) { spawnImage(Mach, I); });
        M.run(130);
        EXPECT_EQ(M.pendingEvents(), 0u);
        EXPECT_GT(M.process(0).CompletionTime, 123.4567);
      });
  EXPECT_GT(Q.Fused, 30000u);
  EXPECT_LT(Q.Stepped, 10u);
}

//===----------------------------------------------------------------------===//
// Per-core deferred windows: a steady core defers its quanta while the
// others step, and is settled (charged) before anything touches its
// queue, its L2 group's active count changes, a callback runs, or run()
// returns. Each case drives one of those settle points on both engines
// and expects the machines bit-identical, with state snapshots taken
// mid-run where the settle happens.
//===----------------------------------------------------------------------===//

namespace {

/// A fast core between two slow ones, each on its own L2: a job leaving
/// core 1 lands on a lower or a higher core.
MachineConfig slowFastSlowMachine() {
  MachineConfig MC = dyadicMachine();
  MC.Cores = {{1, 0}, {0, 1}, {1, 2}};
  return MC;
}

/// main: a compute self-loop of \p PreTrips whose exit edge carries a
/// phase mark (type 0), then a self-loop of \p Trips (memory-bound when
/// \p Memory), then a return.
Program phaseChangeProgram(uint32_t PreTrips, uint32_t Trips, bool Memory) {
  IRBuilder B("phase_change", 3);
  uint32_t Main = B.createProc("main");
  uint32_t Pre = B.addBlock(Main);
  uint32_t Body = B.addBlock(Main);
  uint32_t Exit = B.addBlock(Main);
  B.appendMix(Main, Pre, InstMix::compute(24, 0.2));
  B.appendMix(Main, Body,
              Memory ? InstMix::memory(40, 48000, 0.3)
                     : InstMix::compute(24, 0.2));
  B.setLoop(Main, Pre, Pre, Body, PreTrips);
  B.setLoop(Main, Body, Body, Exit, Trips);
  B.setRet(Main, Exit);
  return B.take();
}

Image phaseChangeImage(uint32_t PreTrips, uint32_t Trips, bool Memory,
                       const MachineConfig &MC) {
  return imageFor(phaseChangeProgram(PreTrips, Trips, Memory), MC,
                  {{0, 0, 1, MarkPoint::Edge, 0}});
}

uint32_t spawnOn(Machine &M, const Image &I, uint64_t Mask,
                 uint64_t Seed = 5, int32_t Slot = -1) {
  return M.spawn(I, TunerConfig(), Seed, Slot, Mask);
}

/// Decides phase type 0 of \p Pid's tuner for core type \p Type (0 =
/// fast, 1 = slow), so its phase mark switches it to that type.
void decide(Machine &M, uint32_t Pid, int32_t Type) {
  PhaseTuner &T = M.process(Pid).Tuner;
  T.recordSample(0, 0, Type == 0 ? 4000 : 2200, 2000);
  T.recordSample(0, 1, 2000, 2000);
  ASSERT_EQ(T.assignment(0), Type);
}

/// Everything a caller can observe of \p M between quanta, flattened.
std::vector<double> stateOf(const Machine &M) {
  std::vector<double> S{M.now()};
  for (uint32_t Core = 0; Core < M.config().numCores(); ++Core) {
    S.push_back(-1.0 - Core);
    for (uint32_t Pid : M.queue(Core))
      S.push_back(Pid);
    S.push_back(M.coreBusyFraction(Core));
  }
  for (const auto &P : M.processes()) {
    S.push_back(static_cast<double>(P->Stats.InstsRetired));
    S.push_back(P->Stats.CyclesConsumed);
    S.push_back(P->Stats.CpuSeconds);
    S.push_back(P->CompletionTime);
    S.insert(S.end(), P->LoopRemaining.begin(), P->LoopRemaining.end());
    S.push_back(M.telemetry(P->Pid).WindowIpc);
  }
  return S;
}

/// Snapshots per engine (Reference first), for Play callbacks.
struct Snapshots {
  std::vector<std::vector<double>> Of[2];
  void take(const Machine &M) {
    Of[M.simConfig().Engine == ExecEngine::Reference ? 0 : 1].push_back(
        stateOf(M));
  }
  void expectAgree() const {
    EXPECT_FALSE(Of[0].empty());
    EXPECT_EQ(Of[0], Of[1]);
  }
};

} // namespace

TEST(PerCoreFusion, MigrationsIntoLowerAndHigherDeferredCores) {
  // Cores 0 and 2 are deferred from the first quantum. In it, core 1
  // steps X and Y; both fire a mark at once and migrate to the slow
  // cores, joining their open windows. X lands on core 0, whose turn in
  // this quantum has already run: its window is re-based after this
  // quantum, which A and B owe a turn of. Y lands on core 2, not yet
  // visited: its window is re-based at this quantum, which stays
  // deferred.
  MachineConfig MC = slowFastSlowMachine();
  Image Long = imageFor(loopProgram(2000000, 24, false), MC);
  Image Mover = phaseChangeImage(2, 300000, false, MC);
  Snapshots Snap;
  QuantaCounts Q = expectFusionInvisible(MC, SimConfig(), [&](Machine &M) {
    uint32_t A = spawnOn(M, Long, 1u << 0, 1);
    uint32_t B = spawnOn(M, Long, 1u << 0, 2);
    uint32_t C = spawnOn(M, Long, 1u << 2, 3);
    uint32_t D = spawnOn(M, Long, 1u << 2, 4);
    uint32_t X = spawnOn(M, Mover, 1u << 1, 5);
    uint32_t Y = spawnOn(M, Mover, 1u << 1, 6);
    decide(M, X, 1);
    decide(M, Y, 1);
    M.run(M.simConfig().Timeslice);
    Snap.take(M);
    EXPECT_EQ(M.queue(0), (std::vector<uint32_t>{B, A, X}));
    EXPECT_EQ(M.queue(1), std::vector<uint32_t>{});
    EXPECT_EQ(M.queue(2), (std::vector<uint32_t>{D, Y, C}));
    EXPECT_EQ(M.process(X).Stats.CoreSwitches, 1u);
    EXPECT_EQ(M.process(Y).Stats.CoreSwitches, 1u);
    M.run(1.0);
  });
  Snap.expectAgree();
  EXPECT_GT(Q.Fused, 10 * Q.Stepped);
  EXPECT_EQ(Q.Absorbs, 2u);
}

TEST(PerCoreFusion, ClosedLoopRespawnOntoDeferredCores) {
  // Short jobs on core 1 finish mid-quantum; the exit handler starts the
  // next one there and a side job pinned to core 0 or core 2, both
  // deferred. Handlers see every core settled by the visit-order rule.
  MachineConfig MC = slowFastSlowMachine();
  Image Long = imageFor(loopProgram(2000000, 24, false), MC);
  Image Short = imageFor(loopProgram(23011, 24, false, 2), MC);
  Image Side = imageFor(loopProgram(9001, 40, false, 3), MC);
  Snapshots Snap;
  QuantaCounts Q = expectFusionInvisible(MC, SimConfig(), [&](Machine &M) {
    uint32_t Generation = 0;
    M.setExitHandler([&](Machine &Mach, Process &P) {
      if (P.Slot != 1 || Generation == 8)
        return;
      ++Generation;
      spawnOn(Mach, Short, 1u << 1, 10 + Generation, 1);
      spawnOn(Mach, Side, Generation % 2 ? 1u << 0 : 1u << 2,
              20 + Generation);
      Snap.take(Mach);
    });
    spawnOn(M, Long, 1u << 0, 1);
    spawnOn(M, Long, 1u << 0, 2);
    spawnOn(M, Long, 1u << 2, 3);
    spawnOn(M, Short, 1u << 1, 4, 1);
    M.run(12.0);
    EXPECT_EQ(Generation, 8u);
  });
  Snap.expectAgree();
  EXPECT_EQ(Snap.Of[0].size(), 8u);
  EXPECT_GT(Q.Fused, 10 * Q.Stepped);
}

namespace {

/// \p Pid's cycles on each core type over that type's frequency,
/// summed in type order: the definition of ProcessStats::CpuSeconds.
double perTypeSeconds(const Machine &M, uint32_t Pid) {
  const MachineConfig &MC = M.config();
  double Seconds = 0;
  for (uint32_t Ct = 0; Ct < MC.numCoreTypes(); ++Ct)
    Seconds += M.telemetry(Pid).CyclesByType[Ct] / MC.CoreTypes[Ct].Frequency;
  return Seconds;
}

} // namespace

TEST(CpuSeconds, DerivedFromPerTypeCyclesAtExitAndRunEnd) {
  // X starts on the fast core 1 and its phase mark moves it to a slow
  // core; A stays on the slow core 0. Frequencies that are not powers
  // of two make every division round. CpuSeconds must be the per-type
  // sum when run() returns with both still queued, and again in the
  // stats the exit handler sees and after the last run() returns; A's
  // must be its cycles over the slow frequency. Flat equals Reference.
  MachineConfig MC = slowFastSlowMachine();
  MC.CoreTypes[0].Frequency = 3000000.0;
  MC.CoreTypes[1].Frequency = 1200000.0;
  Image Long = imageFor(loopProgram(150000, 24, false), MC);
  Image Mover = phaseChangeImage(20000, 60000, false, MC);
  double Seen[2][2][3] = {}; // [engine][A, X][mid-run, at exit, at end]
  for (ExecEngine Engine : {ExecEngine::Reference, ExecEngine::Flat}) {
    SCOPED_TRACE(engineName(Engine));
    SimConfig SC;
    SC.Engine = Engine;
    Machine M(MC, SC, std::make_unique<ObliviousScheduler>());
    std::vector<ProcessStats> AtExit(2);
    M.setExitHandler(
        [&](Machine &, Process &P) { AtExit[P.Pid] = P.Stats; });
    uint32_t A = spawnOn(M, Long, 1u << 0, 1);
    uint32_t X = spawnOn(M, Mover, 1u << 1, 2);
    decide(M, X, 1);
    while (M.process(X).Stats.CoreSwitches == 0)
      M.run(M.now() + M.simConfig().Timeslice);
    M.run(M.now() + 0.1);
    ASSERT_LT(M.process(A).CompletionTime, 0.0);
    ASSERT_LT(M.process(X).CompletionTime, 0.0);
    ASSERT_GT(M.telemetry(X).CyclesByType[0], 0.0);
    ASSERT_GT(M.telemetry(X).CyclesByType[1], 0.0);
    const double Slow = MC.CoreTypes[1].Frequency;
    int E = Engine == ExecEngine::Reference ? 0 : 1;
    for (uint32_t Pid : {A, X}) {
      const ProcessStats &S = M.process(Pid).Stats;
      EXPECT_EQ(S.CpuSeconds, perTypeSeconds(M, Pid)) << "pid " << Pid;
      Seen[E][Pid][0] = S.CpuSeconds;
    }
    EXPECT_EQ(M.process(A).Stats.CpuSeconds,
              M.process(A).Stats.CyclesConsumed / Slow);

    M.run(60.0);
    ASSERT_GT(M.process(A).CompletionTime, 0.0);
    ASSERT_GT(M.process(X).CompletionTime, 0.0);
    for (uint32_t Pid : {A, X}) {
      SCOPED_TRACE("pid " + std::to_string(Pid));
      EXPECT_EQ(AtExit[Pid].CpuSeconds, perTypeSeconds(M, Pid));
      EXPECT_EQ(M.process(Pid).Stats.CpuSeconds, AtExit[Pid].CpuSeconds);
      Seen[E][Pid][1] = AtExit[Pid].CpuSeconds;
      Seen[E][Pid][2] = M.process(Pid).Stats.CpuSeconds;
    }
    EXPECT_EQ(AtExit[A].CpuSeconds, AtExit[A].CyclesConsumed / Slow);
    EXPECT_GT(AtExit[X].CpuSeconds, Seen[E][X][0]);
  }
  for (int Pid = 0; Pid < 2; ++Pid)
    for (int At = 0; At < 3; ++At)
      EXPECT_EQ(Seen[0][Pid][At], Seen[1][Pid][At])
          << "pid " << Pid << " point " << At;

  // The stats a completed job carries: on one core type, the job's
  // cycles over that type's frequency.
  MachineConfig Sym = MachineConfig::symmetricQuad();
  std::vector<Program> Programs = {randomProgram(31), randomProgram(32)};
  PreparedSuite Suite = prepareSuite(Programs, Sym, loopTechnique());
  Workload W = Workload::random(6, 64, Programs.size(), 3);
  RunResult Runs[2];
  int E = 0;
  for (ExecEngine Engine : {ExecEngine::Reference, ExecEngine::Flat}) {
    SimConfig SC;
    SC.Engine = Engine;
    Runs[E] = runWorkload(Suite, W, Sym, SC, 25);
    ASSERT_GT(Runs[E].Completed.size(), 0u);
    for (const CompletedJob &J : Runs[E].Completed)
      EXPECT_EQ(J.Stats.CpuSeconds,
                J.Stats.CyclesConsumed / Sym.CoreTypes[0].Frequency);
    ++E;
  }
  expectRunsIdentical(Runs[0], Runs[1]);
}

TEST(PerCoreFusion, L2PartnerGoesBusyThenIdleMidWindow) {
  // Core 0 runs a memory-bound loop whose cost depends on its L2
  // partner, core 1. X migrates from the slow core 2 into the idle core
  // 1 (group count 1 -> 2), runs, and exits (2 -> 1): core 0's window
  // must settle at each change and reopen at the new price.
  MachineConfig MC = dyadicMachine();
  MC.Cores = {{0, 0}, {0, 0}, {1, 1}};
  Image Long = imageFor(loopProgram(3000000, 40, true), MC);
  ASSERT_NE(Long->cost().blockCycles(0, 0, 0, 1),
            Long->cost().blockCycles(0, 0, 0, 2));
  Image Mover = phaseChangeImage(20000, 60000, true, MC);
  Snapshots Snap;
  QuantaCounts Q = expectFusionInvisible(MC, SimConfig(), [&](Machine &M) {
    uint32_t A = spawnOn(M, Long, 1u << 0, 1);
    uint32_t X = spawnOn(M, Mover, 1u << 2, 2);
    decide(M, X, 0);
    // Until X has moved in, then until it has gone.
    while (M.queueLength(1) == 0)
      M.run(M.now() + M.simConfig().Timeslice);
    Snap.take(M);
    while (M.process(X).CompletionTime < 0)
      M.run(M.now() + 0.5);
    Snap.take(M);
    M.run(M.now() + 1.0);
    EXPECT_EQ(M.process(X).Stats.CoreSwitches, 1u);
    EXPECT_LT(M.process(A).CompletionTime, 0.0);
  });
  Snap.expectAgree();
  EXPECT_GT(Q.Fused, 10 * Q.Stepped);
}

TEST(PerCoreFusion, ObliviousBalanceMovesAfterShapeChange) {
  // Queues of three and two jobs: balancing is a no-op, so its instants
  // are skipped while the shape holds. When D exits (3 vs 1) the next
  // balance moves core 0's tail job, which depends on how far core 0's
  // deferred queue has rotated: it must settle before the policy looks.
  // D's length varies so the rotation at the move varies too.
  MachineConfig MC = dyadicMachine();
  MC.Cores = {{0, 0}, {0, 1}};
  Image Long = imageFor(loopProgram(2000000, 24, false), MC);
  for (uint32_t Trips : {120011u, 131071u, 142007u}) {
    SCOPED_TRACE("D trips " + std::to_string(Trips));
    Image Short = imageFor(loopProgram(Trips, 24, false, 2), MC);
    QuantaCounts Q = expectFusionInvisible(MC, SimConfig(), [&](Machine &M) {
      for (uint64_t Seed : {1, 2, 3})
        spawnOn(M, Long, 1u << 0, Seed);
      uint32_t D = spawnOn(M, Short, 1u << 1, 4);
      spawnOn(M, Long, 1u << 1, 5);
      // Free core 0's jobs to move; the pinned D and E keep core 1.
      for (uint32_t Pid : {0u, 1u, 2u})
        M.process(Pid).AffinityMask = M.config().allCoresMask();
      M.run(6.0);
      EXPECT_GT(M.process(D).CompletionTime, 0.0);
      EXPECT_EQ(M.queueLength(0), 2u);
      EXPECT_EQ(M.queueLength(1), 2u);
    });
    EXPECT_GT(Q.Skipped, 10u);
    EXPECT_GT(Q.Fused, 10 * Q.Stepped);
  }
}

TEST(PerCoreFusion, MaskChangeReenablesSkippedBalance) {
  // Core 0 holds three jobs pinned to it and core 1 none: no job may
  // move, so balance instants are skipped. C's phase mark then widens
  // its mask to every core (overhead-measurement tuning) without a
  // queue change; the next balance must run and move C.
  MachineConfig MC = dyadicMachine();
  MC.Cores = {{0, 0}, {0, 1}};
  Image Long = imageFor(loopProgram(2000000, 24, false), MC);
  Image Widening = phaseChangeImage(60000, 400000, false, MC);
  TunerConfig AllCores;
  AllCores.SwitchToAllCores = true;
  QuantaCounts Q = expectFusionInvisible(MC, SimConfig(), [&](Machine &M) {
    spawnOn(M, Long, 1u << 0, 1);
    spawnOn(M, Long, 1u << 0, 2);
    uint32_t C = M.spawn(Widening, AllCores, 3, -1, 1u << 0);
    M.run(1.0);
    EXPECT_EQ(M.process(C).Stats.MarksFired, 1u);
    EXPECT_EQ(M.queue(1), std::vector<uint32_t>{C});
    M.run(6.0);
    EXPECT_GT(M.process(C).CompletionTime, 0.0);
  });
  EXPECT_GT(Q.Skipped, 10u);
  EXPECT_GT(Q.Fused, 10 * Q.Stepped);
}

namespace {

/// A shape-only policy whose exit hook moves the lowest pid queued on
/// core 0 to core 1: it reads queue contents but not their order, and
/// relies on moveQueued to settle the cores it touches.
struct MoveLowestOnExit final : ObliviousScheduler {
  void onExit(Machine &M, Process &) override {
    const std::vector<uint32_t> &Q = M.queue(0);
    if (!Q.empty())
      M.moveQueued(*std::min_element(Q.begin(), Q.end()), 0, 1);
  }
};

} // namespace

TEST(PerCoreFusion, ShapeOnlyHookMovesQueuedJob) {
  // D exits on core 1 while core 0 is deferred; the policy's exit hook
  // runs without a settle and moves a job out of core 0's queue, so
  // moveQueued must settle core 0 before erasing from it.
  MachineConfig MC = dyadicMachine();
  MC.Cores = {{0, 0}, {0, 1}};
  Image Long = imageFor(loopProgram(2000000, 24, false), MC);
  Image Short = imageFor(loopProgram(131071, 24, false, 2), MC);
  QuantaCounts Q = expectFusionInvisible(
      MC, SimConfig(),
      [&](Machine &M) {
        for (uint64_t Seed : {1, 2, 3})
          spawnOn(M, Long, 1u << 0, Seed);
        uint32_t D = spawnOn(M, Short, 1u << 1, 4);
        spawnOn(M, Long, 1u << 1, 5);
        for (uint32_t Pid : {0u, 1u, 2u})
          M.process(Pid).AffinityMask = M.config().allCoresMask();
        M.run(6.0);
        EXPECT_GT(M.process(D).CompletionTime, 0.0);
        EXPECT_EQ(M.queueLength(1), 2u);
      },
      [] { return std::make_unique<MoveLowestOnExit>(); });
  EXPECT_GT(Q.Fused, 10 * Q.Stepped);
}

TEST(PerCoreFusion, IpcSamplingRunsOnDeferredWindows) {
  // ipc-sampling reads the counter telemetry of jobs that may move
  // between core types, and such jobs stay queued throughout: no
  // balance instant is skipped, each runs on deferred state and catches
  // up the windows whose processes it reads, and its moves settle only
  // the cores they touch. Movers fire a phase mark that switches them
  // to the other core type; those that must migrate join the open
  // window there.
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<Image> Images;
  for (uint32_t Job = 0; Job < 6; ++Job)
    Images.push_back(imageFor(
        loopProgram(400000 + 9973 * Job, 32, Job % 2 == 1, Job + 1), MC));
  std::vector<Image> Movers;
  for (uint32_t Job = 0; Job < 4; ++Job)
    Movers.push_back(
        phaseChangeImage(90001 + 70001 * Job, 300000, Job % 2 == 1, MC));
  SimConfig SC;
  SC.BalancePeriod = 0.05;
  QuantaCounts Q = expectFusionInvisible(
      MC, SC,
      [&](Machine &M) {
        for (const Image &I : Images)
          spawnImage(M, I);
        for (uint32_t Job = 0; Job < 4; ++Job)
          decide(M, spawnImage(M, Movers[Job], 20 + Job), Job % 2);
        M.run(8.0);
        // The policy moved processes between core types to sample them,
        // and the tuner moved the movers.
        uint32_t Sampled = 0;
        uint64_t Switches = 0;
        for (const auto &P : M.processes()) {
          const SchedTelemetry &T = M.telemetry(P->Pid);
          Sampled += T.InstsByType[0] > 0 && T.InstsByType[1] > 0;
          Switches += P->Stats.CoreSwitches;
        }
        EXPECT_GT(Sampled, 2u);
        EXPECT_GT(Switches, 0u);
      },
      [] { return std::make_unique<IpcSamplingScheduler>(20000, 1.05); });
  EXPECT_EQ(Q.Skipped, 0u);
  EXPECT_GT(Q.Fused, 10 * Q.Stepped);
  EXPECT_GT(Q.Absorbs, 0u);
  EXPECT_GT(Q.CatchUps, 0u);
}

namespace {

/// A Telemetry policy that balances like oblivious and logs, at every
/// balance instant and every exit, the clock and every process's
/// counters, read through the catching-up Machine::telemetry.
struct TelemetryLogger final : ObliviousScheduler {
  explicit TelemetryLogger(std::vector<double> &Log) : Log(Log) {}
  PolicyReads reads() const override { return PolicyReads::Telemetry; }
  void balance(Machine &M) override {
    record(M);
    ObliviousScheduler::balance(M);
  }
  void onExit(Machine &M, Process &P) override {
    Log.push_back(-1.0 - P.Pid);
    record(M);
  }
  void record(Machine &M) {
    Log.push_back(M.now());
    for (uint32_t Pid = 0; Pid < M.processes().size(); ++Pid) {
      const SchedTelemetry &T = M.telemetry(Pid);
      for (uint64_t Insts : T.InstsByType)
        Log.push_back(static_cast<double>(Insts));
      Log.insert(Log.end(), T.CyclesByType.begin(), T.CyclesByType.end());
      Log.push_back(T.WindowIpc);
      Log.push_back(T.WindowCoreType);
    }
  }
  std::vector<double> &Log;
};

} // namespace

TEST(PerCoreFusion, TelemetryPolicyReadsDeferredCores) {
  // Cores 0 and 2 hold long jobs and stay deferred. Short jobs on core 1
  // exit mid-quantum, in the first pass, where core 0's turn in the
  // quantum has run and core 2's has not. The policy reads every
  // process's counters at each exit and each balance instant without a
  // settle; every read must equal stepping's.
  MachineConfig MC = slowFastSlowMachine();
  Image Long = imageFor(loopProgram(2000000, 24, false), MC);
  std::vector<Image> Shorts;
  for (uint32_t Job = 0; Job < 6; ++Job)
    Shorts.push_back(
        imageFor(loopProgram(60000 + 30011 * Job, 24, false, Job + 2), MC));
  std::vector<double> Logs[2];
  int Made = 0;
  QuantaCounts Q = expectFusionInvisible(
      MC, SimConfig(),
      [&](Machine &M) {
        for (uint64_t Seed : {1, 2})
          spawnOn(M, Long, 1u << 0, Seed);
        for (uint64_t Seed : {3, 4, 5})
          spawnOn(M, Long, 1u << 2, Seed);
        for (uint32_t Job = 0; Job < 6; ++Job)
          spawnOn(M, Shorts[Job], 1u << 1, 10 + Job);
        M.run(4.0);
        EXPECT_EQ(M.queueLength(1), 0u);
      },
      [&] { return std::make_unique<TelemetryLogger>(Logs[Made++]); });
  EXPECT_FALSE(Logs[0].empty());
  EXPECT_TRUE(Logs[0] == Logs[1]);
  EXPECT_GT(Q.CatchUps, 0u);
  EXPECT_GT(Q.Fused, 10 * Q.Stepped);
}

TEST(PerCoreFusion, EventArrivalOntoDeferredCore) {
  // Arrivals at off-grid instants pinned to a deferred core: callbacks
  // run on settled state, and the new job joins the queue's tail.
  MachineConfig MC = slowFastSlowMachine();
  Image Long = imageFor(loopProgram(2000000, 24, false), MC);
  Image Late = imageFor(loopProgram(50000, 40, false, 2), MC);
  Snapshots Snap;
  QuantaCounts Q = expectFusionInvisible(MC, SimConfig(), [&](Machine &M) {
    spawnOn(M, Long, 1u << 0, 1);
    spawnOn(M, Long, 1u << 0, 2);
    spawnOn(M, Long, 1u << 1, 3);
    for (double At : {0.3013, 1.7771, 1.7771})
      M.scheduleAt(At, [&](Machine &Mach) {
        Snap.take(Mach);
        spawnOn(Mach, Late, 1u << 0, 7);
        Snap.take(Mach);
      });
    M.run(4.0);
  });
  Snap.expectAgree();
  EXPECT_EQ(Snap.Of[0].size(), 6u);
  EXPECT_GT(Q.Fused, 10 * Q.Stepped);
}

TEST(PerCoreFusion, BalanceInstantMeetsArrivalAndUntil) {
  // Every quantum start is a balance instant (period == timeslice), and
  // the jumps over deferred quanta skip them while balancing cannot
  // move anything. Each arrival, pinned to one core, makes the balance
  // at its own quantum start move C, the one free job, to the other
  // core: the arrival fires before that balance. The first run() ends at the first
  // arrival's quantum start, so that instant belongs to the next call.
  MachineConfig MC = dyadicMachine();
  MC.Cores = {{0, 0}, {0, 1}};
  Image Long = imageFor(loopProgram(2000000, 24, false), MC);
  SimConfig SC;
  SC.BalancePeriod = SC.Timeslice;
  Snapshots Snap;
  QuantaCounts Q = expectFusionInvisible(MC, SC, [&](Machine &M) {
    spawnOn(M, Long, 1u << 0, 1);
    spawnOn(M, Long, 1u << 0, 2);
    uint32_t C = spawnOn(M, Long, 1u << 0, 3);
    spawnOn(M, Long, 1u << 1, 4);
    spawnOn(M, Long, 1u << 1, 5);
    M.process(C).AffinityMask = M.config().allCoresMask();
    for (double At : {0.5001, 1.5001})
      M.scheduleAt(At, [&, At](Machine &Mach) {
        // 3 + 1 vs 2 first, then 3 vs 3 + 2.
        spawnOn(Mach, Long, At < 1 ? 1u << 0 : 1u << 1, 6);
        if (At > 1)
          spawnOn(Mach, Long, 1u << 1, 7);
        Snap.take(Mach);
      });
    M.run(0.5001);
    Snap.take(M);
    EXPECT_EQ(M.pendingEvents(), 2u);
    M.run(2.0);
    Snap.take(M);
    EXPECT_EQ(M.queueLength(0), 4u);
    EXPECT_EQ(M.queueLength(1), 4u);
    EXPECT_EQ(M.queue(0).back(), C);
  });
  Snap.expectAgree();
  EXPECT_EQ(Snap.Of[0].size(), 4u);
  EXPECT_GT(Q.Skipped, 100u);
  EXPECT_GT(Q.Fused, 10 * Q.Stepped);
}

TEST(PerCoreFusion, RequestStopWhileCoresDeferred) {
  // A job on core 1 stops the run when it exits, while cores 0 and 2 are
  // deferred: run() returns at the end of that quantum with both
  // settled, and later calls return at once.
  MachineConfig MC = slowFastSlowMachine();
  Image Long = imageFor(loopProgram(2000000, 24, false), MC);
  Image Short = imageFor(loopProgram(77777, 24, false, 2), MC);
  Snapshots Snap;
  QuantaCounts Q = expectFusionInvisible(MC, SimConfig(), [&](Machine &M) {
    M.setExitHandler([](Machine &Mach, Process &) { Mach.requestStop(); });
    spawnOn(M, Long, 1u << 0, 1);
    spawnOn(M, Long, 1u << 0, 2);
    spawnOn(M, Long, 1u << 2, 3);
    uint32_t S = spawnOn(M, Short, 1u << 1, 4);
    M.run(100.0);
    Snap.take(M);
    double Stop = M.now();
    EXPECT_GT(M.process(S).CompletionTime, 0.0);
    EXPECT_LT(Stop, 100.0);
    M.run(200.0);
    EXPECT_EQ(M.now(), Stop);
  });
  Snap.expectAgree();
  EXPECT_GT(Q.Fused, 10 * Q.Stepped);
}

TEST(PerCoreFusion, RunUntilCalledTwice) {
  // Windows open in one run() call are settled when it returns and
  // reopened by the next; the state between the calls matches stepping.
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<Image> Images;
  for (uint32_t Job = 0; Job < 5; ++Job)
    Images.push_back(imageFor(
        loopProgram(300000 + 7919 * Job, 24 + 8 * Job, Job % 2 == 0,
                    Job + 1),
        MC));
  Snapshots Snap;
  QuantaCounts Q = expectFusionInvisible(MC, SimConfig(), [&](Machine &M) {
    for (const Image &I : Images)
      spawnImage(M, I);
    M.run(2.5);
    Snap.take(M);
    M.run(5.0);
    Snap.take(M);
  });
  Snap.expectAgree();
  EXPECT_GT(Q.Fused, 10 * Q.Stepped);
}

//===----------------------------------------------------------------------===//
// Windows that outlive balance instants and turns that are not steady:
// a shape-only balance runs on deferred state and settles only a core
// whose order it uses, and the turn at a window's end is stepped inside
// the window, which stays open when the turn used its whole budget.
// Each case expects the machines bit-identical to the Reference one.
//===----------------------------------------------------------------------===//

namespace {

/// Two cores of the fast type on separate L2 groups.
MachineConfig twoFastCores() {
  MachineConfig MC = dyadicMachine();
  MC.Cores = {{0, 0}, {0, 1}};
  return MC;
}

/// main: a self-loop of \p PreTrips, then one of \p Trips over another
/// memory-bound mix of \p Count instructions, then a return. Its steady
/// run ends where the first loop exits; the next turn finishes that
/// loop and goes on in the second.
Program twoSelfLoops(uint32_t PreTrips, uint32_t Trips, unsigned Count) {
  IRBuilder B("two_self_loops", 4);
  uint32_t Main = B.createProc("main");
  uint32_t Pre = B.addBlock(Main);
  uint32_t Body = B.addBlock(Main);
  uint32_t Exit = B.addBlock(Main);
  B.appendMix(Main, Pre, InstMix::memory(Count, 48000, 0.3));
  B.appendMix(Main, Body, InstMix::memory(Count, 48000, 0.3));
  B.setLoop(Main, Pre, Pre, Body, PreTrips);
  B.setLoop(Main, Body, Body, Exit, Trips);
  B.setRet(Main, Exit);
  return B.take();
}

/// A shape-only policy whose balance moves the front process (the next
/// to run) of the longest queue: it picks by queue order, read through
/// the settling Machine::queue.
struct PullFront final : ObliviousScheduler {
  void balance(Machine &M) override {
    uint32_t Longest = 0;
    uint32_t Shortest = 0;
    for (uint32_t Core = 1; Core < M.config().numCores(); ++Core) {
      if (M.queueLength(Core) > M.queueLength(Longest))
        Longest = Core;
      if (M.queueLength(Core) < M.queueLength(Shortest))
        Shortest = Core;
    }
    if (M.queueLength(Longest) < M.queueLength(Shortest) + 2)
      return;
    for (uint32_t Pid : M.queue(Longest))
      if (M.process(Pid).allowedOn(Shortest)) {
        M.moveQueued(Pid, Longest, Shortest);
        return;
      }
  }
};

} // namespace

TEST(InWindowStep, PinnedImbalanceKeepsWindowsOpen) {
  // Core 0 holds three long jobs pinned to it and core 1 six short ones
  // pinned to it. Each exit on core 1 makes the next balance run, and
  // each finds a length imbalance but nothing it may move: oblivious
  // settles no core for it, so core 0 keeps one window for the whole
  // run, while the settling policy ends core 0's window at every
  // balance instant.
  MachineConfig MC = twoFastCores();
  Image Long = imageFor(loopProgram(2000000, 24, false), MC);
  std::vector<Image> Shorts;
  for (uint32_t Job = 0; Job < 6; ++Job)
    Shorts.push_back(
        imageFor(loopProgram(60000 + 30011 * Job, 24, false, Job + 2), MC));
  QuantaCounts Q[2];
  for (int Mode = 0; Mode < 2; ++Mode) {
    SCOPED_TRACE(BalanceModes[Mode].first);
    Q[Mode] = expectFusionInvisible(
        MC, SimConfig(),
        [&](Machine &M) {
          for (uint64_t Seed : {1, 2, 3})
            spawnOn(M, Long, 1u << 0, Seed);
          for (uint32_t Job = 0; Job < 6; ++Job)
            spawnOn(M, Shorts[Job], 1u << 1, 10 + Job);
          M.run(8.0);
          EXPECT_EQ(M.queueLength(0), 3u);
          EXPECT_EQ(M.queueLength(1), 0u);
        },
        BalanceModes[Mode].second);
  }
  // Core 0's one window, settled when run() returns, and one settle
  // per exit on core 1 (the in-window step that finishes the job).
  EXPECT_EQ(Q[0].Settles, 1u + 6);
  // The settling policy runs all 80 balance instants, each ending core
  // 0's window.
  EXPECT_GE(Q[1].Settles, 80u);
  EXPECT_GT(Q[0].Skipped, 50u);
}

TEST(InWindowStep, FastestFirstPullsFromDeferredCore) {
  // Core 0 (slow) holds two free jobs and core 2 (slow) one pinned job;
  // D, pinned to the fast core 1, exits while core 0 is deferred. The
  // next balance fills the idle fast core from core 0: the tail-most
  // job, which depends on how far core 0's queue has rotated, so the
  // pull must settle core 0 first. D's length varies the rotation.
  MachineConfig MC = slowFastSlowMachine();
  Image Long = imageFor(loopProgram(2000000, 24, false), MC);
  for (uint32_t Trips : {120011u, 131071u}) {
    SCOPED_TRACE("D trips " + std::to_string(Trips));
    Image Short = imageFor(loopProgram(Trips, 24, false, 2), MC);
    Snapshots Snap;
    QuantaCounts Q = expectFusionInvisible(
        MC, SimConfig(),
        [&](Machine &M) {
          uint32_t A = spawnOn(M, Long, 1u << 0, 1);
          uint32_t B = spawnOn(M, Long, 1u << 0, 2);
          spawnOn(M, Long, 1u << 2, 3);
          uint32_t D = spawnOn(M, Short, 1u << 1, 4);
          for (uint32_t Pid : {A, B})
            M.process(Pid).AffinityMask = M.config().allCoresMask();
          M.run(4.0);
          Snap.take(M);
          EXPECT_GT(M.process(D).CompletionTime, 0.0);
          EXPECT_EQ(M.queueLength(0), 1u);
          EXPECT_EQ(M.queueLength(1), 1u);
          EXPECT_EQ(M.queueLength(2), 1u);
        },
        [] { return std::make_unique<FastestFirstScheduler>(); });
    Snap.expectAgree();
    EXPECT_GT(Q.Fused, 10 * Q.Stepped);
  }
}

TEST(InWindowStep, SteadyRunEndsMidWindow) {
  // Core 0 runs two long jobs and X, whose steady run ends while the
  // window is open. X's next turn is stepped inside the window, with
  // each outcome: a full turn into its next self-loop (the window
  // survives), a phase mark that starts a monitor (it survives, and the
  // session accrues over deferred turns), a mark that migrates X to the
  // slow core, and an exit (both settle the window and step the rest of
  // the quantum).
  MachineConfig MC = dyadicMachine();
  Image Long = imageFor(loopProgram(2000000, 24, false), MC);
  enum Outcome { FullTurn, Monitor, Migration, Exit };
  for (Outcome O : {FullTurn, Monitor, Migration, Exit}) {
    SCOPED_TRACE("outcome " + std::to_string(O));
    Image X = O == FullTurn ? imageFor(nestedSelfLoops(30011, 8), MC)
              : O == Exit   ? imageFor(loopProgram(70001, 24, false, 2), MC)
                            : phaseChangeImage(70001, 2000000, false, MC);
    Snapshots Snap;
    QuantaCounts Q = expectFusionInvisible(MC, SimConfig(), [&](Machine &M) {
      spawnOn(M, Long, 1u << 0, 1);
      spawnOn(M, Long, 1u << 0, 2);
      uint32_t Pid = spawnOn(M, X, 1u << 0, 3);
      if (O == Migration)
        decide(M, Pid, 1);
      M.run(1.5);
      Snap.take(M);
      M.run(3.0);
      Snap.take(M);
      const Process &P = M.process(Pid);
      switch (O) {
      case FullTurn:
        EXPECT_LT(P.CompletionTime, 0.0);
        break;
      case Monitor:
        EXPECT_EQ(P.Stats.MonitorSessions, 1u);
        EXPECT_TRUE(P.MonActive);
        EXPECT_GT(P.MonInsts, 0u);
        break;
      case Migration:
        EXPECT_EQ(P.Stats.CoreSwitches, 1u);
        EXPECT_EQ(M.queue(1), std::vector<uint32_t>{Pid});
        break;
      case Exit:
        EXPECT_GT(P.CompletionTime, 0.0);
        break;
      }
    });
    Snap.expectAgree();
    EXPECT_GT(Q.Fused, 10 * Q.Stepped);
    if (O == FullTurn || O == Monitor) {
      EXPECT_GT(Q.WindowSteps, 0u);
      // Core 0 settles only when each run() call returns.
      EXPECT_EQ(Q.Settles, 2u);
    }
  }
}

TEST(InWindowStep, NearExactCycleBound) {
  // Each turn charges about 2^34 cycles, so the core's busy cycles
  // reach 2^37 within eight turns. B, last in the queue, leaves its
  // first self-loop at its second turn, stepped inside the window; the
  // window re-planned after it is halved to stay exact. Where the
  // busy-cycle sum, with the other jobs' turns still pending, would
  // reach the bound, the in-window step settles first, so its add
  // lands after theirs as in stepping, and the rest steps in order.
  // The jobs' costs differ, so an out-of-order add past the bound would
  // round differently.
  MachineConfig MC = oneCoreMachine();
  SimConfig SC;
  SC.Timeslice = std::ldexp(1.0, 34) / MC.CoreTypes[0].Frequency;
  SC.BalancePeriod = 1e3 * SC.Timeslice;
  auto TurnIters = [&](const Program &Prog, uint32_t Block) {
    CostModel Cost(Prog, MC);
    return static_cast<uint32_t>(
        std::ceil(std::ldexp(1.0, 34) / Cost.blockCycles(0, Block, 0, 1)));
  };
  std::vector<Image> Longs;
  for (uint32_t K = 0; K < 3; ++K) {
    Program Long = loopProgram(2, 16393 + 40 * K, true, 7 + K);
    Long.Procs[0].Blocks[0].TripCount = 6 * TurnIters(Long, 0);
    Longs.push_back(imageFor(Long, MC));
  }
  // One steady turn in the first loop, then two trips left.
  Program Leaver = twoSelfLoops(2, 2, 16384);
  uint32_t JPre = TurnIters(Leaver, 0);
  Leaver.Procs[0].Blocks[0].TripCount = JPre + 2;
  Leaver.Procs[0].Blocks[1].TripCount = 6 * JPre;
  Image B = imageFor(Leaver, MC);
  uint64_t WindowSteps = 0;
  for (uint32_t Jobs : {2u, 3u, 4u}) {
    SCOPED_TRACE("jobs " + std::to_string(Jobs));
    QuantaCounts Q = expectFusionInvisible(MC, SC, [&](Machine &M) {
      for (uint32_t Job = 1; Job < Jobs; ++Job)
        spawnImage(M, Longs[Job - 1], Job);
      spawnImage(M, B, Jobs);
      M.run(40 * SC.Timeslice);
      EXPECT_GT(M.coreBusyFraction(0) * M.now() * MC.CoreTypes[0].Frequency,
                ExactCycleBound);
    });
    WindowSteps += Q.WindowSteps;
    EXPECT_GT(Q.Fused, 0u);
    EXPECT_GE(Q.Stepped, 4u);
  }
  EXPECT_GT(WindowSteps, 0u);
}

TEST(InWindowStep, JoinNearExactCycleBound) {
  // Each turn on the fast core 0 charges about 2^34 cycles, so its busy
  // cycles reach 2^37 within eight turns. Two long jobs keep core 0 in
  // one window. X, alone on the slow core 1, leaves its first self-loop
  // in its turn K + 1 and its phase mark moves it to the fast type: it
  // joins core 0's window, re-based after the quantum whose turn core 0
  // has already run. The owed turns and the re-planned window must stay
  // exact, so the plan is halved near the bound, and past it the turns
  // step in order.
  MachineConfig MC = dyadicMachine();
  SimConfig SC;
  SC.Timeslice = std::ldexp(1.0, 34) / MC.CoreTypes[0].Frequency;
  SC.BalancePeriod = 1e3 * SC.Timeslice;
  auto TurnIters = [&](const Program &Prog, uint32_t Block, uint32_t Type) {
    CostModel Cost(Prog, MC);
    double Budget = SC.Timeslice * MC.CoreTypes[Type].Frequency;
    return static_cast<uint32_t>(
        std::ceil(Budget / Cost.blockCycles(0, Block, Type, 1)));
  };
  std::vector<Image> Longs;
  for (uint32_t K = 0; K < 2; ++K) {
    Program Long = loopProgram(2, 16393 + 40 * K, true, 7 + K);
    Long.Procs[0].Blocks[0].TripCount = 12 * TurnIters(Long, 0, 0);
    Longs.push_back(imageFor(Long, MC));
  }
  for (uint32_t K : {2u, 6u}) {
    SCOPED_TRACE("K " + std::to_string(K));
    Program Mover = twoSelfLoops(2, 2, 16384);
    uint32_t JSlow = TurnIters(Mover, 0, 1);
    Mover.Procs[0].Blocks[0].TripCount = K * JSlow + JSlow / 2;
    Mover.Procs[0].Blocks[1].TripCount = 6 * TurnIters(Mover, 1, 0);
    Image X = imageFor(Mover, MC, {{0, 0, 1, MarkPoint::Edge, 0}});
    QuantaCounts Q = expectFusionInvisible(MC, SC, [&](Machine &M) {
      spawnOn(M, Longs[0], 1u << 0, 1);
      spawnOn(M, Longs[1], 1u << 0, 2);
      uint32_t Pid = spawnOn(M, X, 1u << 1, 3);
      decide(M, Pid, 0);
      M.run(20 * SC.Timeslice);
      EXPECT_EQ(M.process(Pid).Stats.CoreSwitches, 1u);
      EXPECT_GT(M.coreBusyFraction(0) * M.now() * MC.CoreTypes[0].Frequency,
                ExactCycleBound);
    });
    EXPECT_EQ(Q.Absorbs, 1u);
    EXPECT_GT(Q.Fused, 0u);
  }
}

TEST(InWindowStep, ShapeOnlyPolicyReadsQueueOrder) {
  // D exits on core 1 while core 0 is deferred; the next balance moves
  // the front of core 0's queue, which depends on its rotation. The
  // policy reads order through the non-const Machine::queue, which
  // settles core 0 first.
  MachineConfig MC = twoFastCores();
  Image Long = imageFor(loopProgram(2000000, 24, false), MC);
  for (uint32_t Trips : {120011u, 131071u, 142007u}) {
    SCOPED_TRACE("D trips " + std::to_string(Trips));
    Image Short = imageFor(loopProgram(Trips, 24, false, 2), MC);
    QuantaCounts Q = expectFusionInvisible(
        MC, SimConfig(),
        [&](Machine &M) {
          for (uint64_t Seed : {1, 2, 3})
            spawnOn(M, Long, 1u << 0, Seed);
          uint32_t D = spawnOn(M, Short, 1u << 1, 4);
          spawnOn(M, Long, 1u << 1, 5);
          for (uint32_t Pid : {0u, 1u, 2u})
            M.process(Pid).AffinityMask = M.config().allCoresMask();
          M.run(6.0);
          EXPECT_GT(M.process(D).CompletionTime, 0.0);
          EXPECT_EQ(M.queueLength(0), 2u);
          EXPECT_EQ(M.queueLength(1), 2u);
        },
        [] { return std::make_unique<PullFront>(); });
    EXPECT_GT(Q.Skipped, 10u);
    EXPECT_GT(Q.Fused, 10 * Q.Stepped);
  }
}

//===----------------------------------------------------------------------===//
// Telemetry-free balance instants: a Telemetry policy's balance instant
// is skipped when the last balance read no telemetry, made no move and
// no queue or mask changed since. Each case expects the machines
// bit-identical to the Reference one.
//===----------------------------------------------------------------------===//

namespace {

/// A Telemetry policy that moves nothing and, at each balance, reads
/// and logs the clock and the counters of every queued process whose
/// mask reaches both core types, in pid order; it reads none while all
/// are pinned to one type. Reads holds the clock of each balance that
/// read any.
struct SpanningReader final : ObliviousScheduler {
  SpanningReader(std::vector<double> &Log, std::vector<double> &Reads)
      : Log(Log), Reads(Reads) {}
  PolicyReads reads() const override { return PolicyReads::Telemetry; }
  void balance(Machine &M) override {
    const Machine &Shape = M;
    std::vector<uint32_t> Spanning;
    for (uint32_t Core = 0; Core < M.config().numCores(); ++Core)
      for (uint32_t Pid : Shape.queue(Core)) {
        uint64_t Mask = M.process(Pid).AffinityMask;
        if ((Mask & M.config().coreMaskOfType(0)) &&
            (Mask & M.config().coreMaskOfType(1)))
          Spanning.push_back(Pid);
      }
    std::sort(Spanning.begin(), Spanning.end());
    if (!Spanning.empty())
      Reads.push_back(M.now());
    for (uint32_t Pid : Spanning) {
      const SchedTelemetry &T = M.telemetry(Pid);
      Log.push_back(M.now());
      Log.push_back(Pid);
      for (uint64_t Insts : T.InstsByType)
        Log.push_back(static_cast<double>(Insts));
      Log.insert(Log.end(), T.CyclesByType.begin(), T.CyclesByType.end());
      Log.push_back(T.WindowIpc);
    }
  }
  std::vector<double> &Log;
  std::vector<double> &Reads;
};

} // namespace

TEST(TelemetryBalance, IpcSamplingWithEveryJobPinned) {
  // Every job is pinned to one core or to the two cores of one type:
  // ipc-sampling's balance decides from the masks alone that none can
  // move, so it reads no telemetry and catches up no deferred core, and
  // the instants after a balance that read nothing are skipped until
  // an exit changes the shape.
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<Image> Images;
  for (uint32_t Job = 0; Job < 6; ++Job)
    Images.push_back(imageFor(
        loopProgram(400000 + 9973 * Job, 32, Job % 2 == 1, Job + 1), MC));
  const uint64_t Masks[] = {1u << 0, 1u << 2, 0x3, 0xC, 1u << 1, 1u << 3};
  SimConfig SC;
  SC.BalancePeriod = 0.05;
  QuantaCounts Q = expectFusionInvisible(
      MC, SC,
      [&](Machine &M) {
        for (uint32_t Job = 0; Job < 6; ++Job)
          spawnOn(M, Images[Job], Masks[Job], Job + 1);
        M.run(6.0);
        // Three jobs have exited.
        EXPECT_EQ(M.queueLength(0) + M.queueLength(1) + M.queueLength(2) +
                      M.queueLength(3),
                  3u);
      },
      [] { return std::make_unique<IpcSamplingScheduler>(20000, 1.05); });
  EXPECT_GT(Q.Skipped, 50u);
  EXPECT_EQ(Q.CatchUps, 0u);
  EXPECT_GT(Q.Fused, 10 * Q.Stepped);
}

TEST(TelemetryBalance, ReadsOnlyWhileAJobSpansTypes) {
  // Core 0 holds two long jobs pinned to it. X1, pinned to the slow core
  // 1, widens its mask to every core at its phase mark and spans both
  // types until it exits; X2 arrives after that and does the same. The
  // policy reads telemetry only while a spanning job is queued: its
  // instants are skipped before X1 widens, called while it spans,
  // skipped between X1's exit and X2's widening, and called again.
  // Every read must equal stepping's.
  MachineConfig MC = dyadicMachine();
  Image Long = imageFor(loopProgram(4000000, 24, false), MC);
  Image Widening = phaseChangeImage(60000, 200000, false, MC);
  TunerConfig AllCores;
  AllCores.SwitchToAllCores = true;
  std::vector<double> Logs[2];
  std::vector<double> Reads[2];
  int Made = 0;
  double X2Arrival = 0;
  QuantaCounts Q = expectFusionInvisible(
      MC, SimConfig(),
      [&](Machine &M) {
        spawnOn(M, Long, 1u << 0, 1);
        spawnOn(M, Long, 1u << 0, 2);
        uint32_t X1 =
            M.spawn(Widening, AllCores, 3, -1, 1u << 1);
        M.setExitHandler([&](Machine &Mach, Process &P) {
          if (P.Pid != X1)
            return;
          X2Arrival = Mach.now() + 1.0;
          Mach.scheduleAt(X2Arrival, [&](Machine &At) {
            At.spawn(Widening, AllCores, 4, -1, 1u << 1);
          });
        });
        M.run(12.0);
        ASSERT_EQ(M.processes().size(), 4u);
        EXPECT_GT(M.process(3).CompletionTime, 0.0);
        EXPECT_EQ(M.process(3).Stats.MarksFired, 1u);
      },
      [&] {
        int I = Made++;
        return std::make_unique<SpanningReader>(Logs[I], Reads[I]);
      });
  EXPECT_FALSE(Logs[0].empty());
  EXPECT_TRUE(Logs[0] == Logs[1]);
  EXPECT_TRUE(Reads[0] == Reads[1]);
  // Two runs of reading instants, one per widened job, each a run of
  // consecutive instants, with skipped instants around them.
  uint32_t Runs = 0;
  for (size_t I = 0; I < Reads[1].size(); ++I)
    Runs += I == 0 || Reads[1][I] - Reads[1][I - 1] > 0.15;
  EXPECT_EQ(Runs, 2u);
  EXPECT_GT(Reads[1].front(), 0.2);
  EXPECT_GT(Q.Skipped, 20u);
  EXPECT_GT(Q.CatchUps, 0u);
  EXPECT_GT(Q.Fused, 10 * Q.Stepped);
}

//===----------------------------------------------------------------------===//
// Jump-heavy programs
//===----------------------------------------------------------------------===//

namespace {

/// Call-free jump records whose edge carries no mark.
uint32_t markFreeJumps(const FlatImage &FI) {
  uint32_t Count = 0;
  for (uint32_t G = 0; G < FI.numBlocks(); ++G)
    Count += FI.block(G).Op == FlatOp::Jump &&
             FI.blockMarks(G).EdgeMark[0] < 0;
  return Count;
}

} // namespace

TEST(JumpHeavy, IsolatedBitIdentical) {
  uint64_t TotalMarks = 0;
  uint64_t TotalSwitches = 0;
  uint32_t MarkFreeJumps = 0;
  for (uint64_t Seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull}) {
    std::vector<Program> Programs = {randomProgram(Seed, true)};
    for (const MachineConfig &MC :
         {MachineConfig::quadAsymmetric(), threeTypeMachine()}) {
      for (const TechniqueSpec &Tech :
           {TechniqueSpec::baseline(), loopTechnique()}) {
        PreparedSuite Suite = prepareSuite(Programs, MC, Tech);
        MarkFreeJumps += markFreeJumps(*Suite.Flats[0]);
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
  // The sweep must exercise mark-free jumps and the monitored and
  // migrating paths, or the comparison proves nothing about them.
  EXPECT_GT(MarkFreeJumps, 0u);
  EXPECT_GT(TotalMarks, 0u);
  EXPECT_GT(TotalSwitches, 0u);
}

TEST(JumpHeavy, WorkloadBitIdentical) {
  std::vector<Program> Programs;
  for (uint64_t Seed : {21ull, 22ull, 23ull})
    Programs.push_back(randomProgram(Seed, true));
  for (const MachineConfig &MC :
       {MachineConfig::quadAsymmetric(), threeTypeMachine()}) {
    PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
    uint32_t MarkFreeJumps = 0;
    for (const auto &Flat : Suite.Flats)
      MarkFreeJumps += markFreeJumps(*Flat);
    EXPECT_GT(MarkFreeJumps, 0u);
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
  for (const char *Name : {"164.gzip", "179.art", "473.astar"})
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
  for (const char *Name : {"164.gzip", "179.art"})
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
