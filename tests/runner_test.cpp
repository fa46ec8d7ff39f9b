//===- tests/runner_test.cpp - suite preparation + workload replay --------===//

#include "RunIdentity.h"

#include "ir/IRBuilder.h"
#include "obs/Counters.h"
#include "workload/Benchmarks.h"
#include "workload/Runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

using namespace pbt;

namespace {

/// A trimmed suite (3 fast benchmarks) keeps these tests quick.
std::vector<Program> smallSuite() {
  auto Specs = specSuite();
  std::vector<Program> Programs;
  for (const std::string &Name : {"164.gzip", "179.art", "473.astar"})
    for (const BenchSpec &S : Specs)
      if (S.Name == Name)
        Programs.push_back(buildBenchmark(S));
  return Programs;
}

TechniqueSpec loopTechnique() {
  TransitionConfig TC;
  TC.Strat = Strategy::Loop;
  TC.MinSize = 45;
  TunerConfig TU;
  TU.IpcDelta = 0.2;
  return TechniqueSpec::tuned(TC, TU);
}

} // namespace

TEST(PrepareSuite, BaselineHasNoMarks) {
  auto Programs = smallSuite();
  PreparedSuite Suite = prepareSuite(Programs, MachineConfig::quadAsymmetric(),
                                     TechniqueSpec::baseline());
  ASSERT_EQ(Suite.Images.size(), Programs.size());
  for (const auto &Image : Suite.Images)
    EXPECT_TRUE(Image->marks().empty());
}

TEST(PrepareSuite, TunedProgramsWithPhasesHaveMarks) {
  auto Programs = smallSuite();
  PreparedSuite Suite = prepareSuite(Programs, MachineConfig::quadAsymmetric(),
                                     loopTechnique());
  // gzip and art have phase changes; astar is single-phase but its cold
  // code may still carry marks. At minimum the multi-phase ones do.
  EXPECT_FALSE(Suite.Images[0]->marks().empty());
  EXPECT_FALSE(Suite.Images[1]->marks().empty());
}

TEST(PrepareSuite, TechniqueLabels) {
  EXPECT_EQ(TechniqueSpec::baseline().label(), "Linux");
  EXPECT_EQ(loopTechnique().label(), "Loop[45]");
}

TEST(IsolatedRuntimes, OrderedLikeTableOne) {
  auto Programs = buildSuite();
  auto Iso = isolatedRuntimes(Programs, MachineConfig::quadAsymmetric());
  ASSERT_EQ(Iso.size(), Programs.size());
  auto TimeOf = [&](const char *Name) {
    for (size_t I = 0; I < Programs.size(); ++I)
      if (Programs[I].Name == Name)
        return Iso[I];
    ADD_FAILURE() << Name;
    return 0.0;
  };
  // The scaled ordering of the paper's Table 1 runtimes.
  EXPECT_LT(TimeOf("164.gzip"), TimeOf("401.bzip2"));
  EXPECT_LT(TimeOf("401.bzip2"), TimeOf("429.mcf"));
  EXPECT_LT(TimeOf("429.mcf"), TimeOf("470.lbm"));
  EXPECT_LT(TimeOf("470.lbm"), TimeOf("459.GemsFDTD"));
  EXPECT_LT(TimeOf("459.GemsFDTD"), TimeOf("171.swim"));
  EXPECT_LT(TimeOf("171.swim"), TimeOf("410.bwaves"));
  for (double T : Iso)
    EXPECT_GT(T, 0.0);
}

TEST(RunIsolated, SwitchCountsFollowTableOne) {
  auto Programs = buildSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
  SimConfig SC;
  auto SwitchesOf = [&](const char *Name) -> uint64_t {
    for (uint32_t I = 0; I < Programs.size(); ++I)
      if (Programs[I].Name == Name)
        return runIsolated(Suite, I, MC, SC).Stats.CoreSwitches;
    ADD_FAILURE() << Name;
    return 0;
  };
  uint64_t Equake = SwitchesOf("183.equake");
  uint64_t Bzip2 = SwitchesOf("401.bzip2");
  uint64_t Astar = SwitchesOf("473.astar");
  uint64_t Gems = SwitchesOf("459.GemsFDTD");
  EXPECT_GT(Equake, Bzip2);
  EXPECT_GT(Bzip2, 10u);
  EXPECT_EQ(Astar, 0u);
  EXPECT_EQ(Gems, 0u);
}

TEST(RunWorkload, CompletesAndRespawns) {
  auto Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC,
                                     TechniqueSpec::baseline());
  Workload W = Workload::random(4, 64, Programs.size(), 5);
  RunResult R = runWorkload(Suite, W, MC, SimConfig(), 40);
  EXPECT_GT(R.Completed.size(), 4u); // Slots must have recycled.
  EXPECT_GT(R.InstructionsRetired, 0u);
  for (const CompletedJob &Job : R.Completed) {
    EXPECT_GE(Job.Completion, Job.Arrival);
    EXPECT_GE(Job.Slot, 0);
    EXPECT_LT(Job.Bench, Programs.size());
  }
}

TEST(RunWorkload, ReproducibleForSameInputs) {
  auto Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
  Workload W = Workload::random(4, 64, Programs.size(), 5);
  RunResult A = runWorkload(Suite, W, MC, SimConfig(), 30);
  RunResult B = runWorkload(Suite, W, MC, SimConfig(), 30);
  EXPECT_EQ(A.InstructionsRetired, B.InstructionsRetired);
  ASSERT_EQ(A.Completed.size(), B.Completed.size());
  for (size_t I = 0; I < A.Completed.size(); ++I)
    EXPECT_DOUBLE_EQ(A.Completed[I].Completion, B.Completed[I].Completion);
}

TEST(RunWorkload, IsolatedTimesAttached) {
  auto Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC,
                                     TechniqueSpec::baseline());
  std::vector<double> Iso = {1.0, 2.0, 3.0};
  Workload W = Workload::random(4, 64, Programs.size(), 5);
  RunResult R = runWorkload(Suite, W, MC, SimConfig(), 30, Iso);
  for (const CompletedJob &Job : R.Completed)
    EXPECT_DOUBLE_EQ(Job.Isolated, Iso[Job.Bench]);
}

TEST(RunWorkload, MarksFireOnlyWhenInstrumented) {
  auto Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  Workload W = Workload::random(4, 64, Programs.size(), 5);
  RunResult Base = runWorkload(
      prepareSuite(Programs, MC, TechniqueSpec::baseline()), W, MC,
      SimConfig(), 30);
  RunResult Tuned = runWorkload(prepareSuite(Programs, MC, loopTechnique()),
                                W, MC, SimConfig(), 30);
  EXPECT_EQ(Base.TotalMarks, 0u);
  EXPECT_EQ(Base.TotalSwitches, 0u);
  EXPECT_DOUBLE_EQ(Base.TotalOverheadCycles, 0.0);
  EXPECT_GT(Tuned.TotalMarks, 0u);
}

TEST(RunWorkload, ErrorInjectionStillRuns) {
  auto Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();
  Tech.TypingError = 0.3;
  PreparedSuite Suite = prepareSuite(Programs, MC, Tech);
  Workload W = Workload::random(4, 64, Programs.size(), 5);
  RunResult R = runWorkload(Suite, W, MC, SimConfig(), 20);
  EXPECT_GT(R.InstructionsRetired, 0u);
}

TEST(RunWorkload, StaticTypingPipelineRuns) {
  auto Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();
  Tech.UseStaticTyping = true;
  PreparedSuite Suite = prepareSuite(Programs, MC, Tech);
  Workload W = Workload::random(4, 64, Programs.size(), 5);
  RunResult R = runWorkload(Suite, W, MC, SimConfig(), 20);
  EXPECT_GT(R.InstructionsRetired, 0u);
}

TEST(HassStatic, PinsDominantProgramsAtSpawn) {
  // The HASS comparator is an OS policy, not a preparation: the
  // uninstrumented baseline images replay under hass-static, and the
  // whole-program mask analysis pins clearly dominant programs only.
  auto Programs = buildSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC,
                                     TechniqueSpec::baseline());
  for (const auto &Image : Suite.Images)
    EXPECT_TRUE(Image->marks().empty());
  int PinnedFast = 0, PinnedSlow = 0;
  for (size_t I = 0; I < Programs.size(); ++I) {
    uint64_t Mask =
        hassWholeProgramMask(Programs[I], *Suite.Costs[I], MC);
    if (Mask == 0)
      continue;
    if (Mask == MC.coreMaskOfType(0))
      ++PinnedFast;
    else if (Mask == MC.coreMaskOfType(1))
      ++PinnedSlow;
    else
      ADD_FAILURE() << "unexpected mask " << Mask;
  }
  EXPECT_GT(PinnedFast, 0);
  EXPECT_GT(PinnedSlow, 0);
  EXPECT_EQ(SchedulerSpec::hassStatic().label(), "hass-static");
}

TEST(HassStatic, PinRespectedThroughoutRun) {
  auto Programs = buildSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC,
                                     TechniqueSpec::baseline());
  Workload W = Workload::random(4, 32, Programs.size(), 5);
  RunResult R = runWorkload(Suite, W, MC, SimConfig(), 20, {},
                            SchedulerSpec::hassStatic());
  EXPECT_EQ(R.TotalSwitches, 0u); // Static assignment never migrates.
  EXPECT_GT(R.InstructionsRetired, 0u);
}

//===----------------------------------------------------------------------===//
// Stop rules over fused quanta. runWorkload makes one run(Horizon) call
// and stops through Machine::requestStop; the Reference engine steps
// every quantum, so it replays the old per-quantum stop loop, and the
// Flat engine, which fuses runs of steady quanta, must match it exactly.
//===----------------------------------------------------------------------===//

namespace {

/// main: block 0 self-loops \p Trips times over 24 compute
/// instructions, then block 1 returns.
Program selfLoopProgram(uint32_t Trips) {
  IRBuilder B("self_loop_" + std::to_string(Trips));
  uint32_t Main = B.createProc("main");
  uint32_t Body = B.addBlock(Main);
  uint32_t Exit = B.addBlock(Main);
  B.appendMix(Main, Body, InstMix::compute(24, 0.2));
  B.setLoop(Main, Body, Body, Exit, Trips);
  B.setRet(Main, Exit);
  return B.take();
}

uint64_t registryCount(const char *Name) {
  return obs::CounterRegistry::global().value(Name);
}

/// Quanta a runWorkload call stepped and fused (registry deltas).
struct Quanta {
  uint64_t Stepped = 0;
  uint64_t Fused = 0;
};

/// Replays one scenario under Reference, then Flat; expects the two
/// runs bit-identical (horizon included) and returns the Flat run and
/// its quantum counts.
RunResult expectStopMatchesStepped(const PreparedSuite &Suite,
                                   const Workload &W,
                                   const MachineConfig &MC, SimConfig SC,
                                   double Horizon,
                                   const ScenarioSpec &Scenario,
                                   Quanta &FlatQuanta) {
  SC.Engine = ExecEngine::Reference;
  RunResult Stepped = runWorkload(Suite, W, MC, SC, Horizon, {},
                                  SchedulerSpec::oblivious(), Scenario);
  uint64_t StepBefore = registryCount("sim.quanta_stepped");
  uint64_t FuseBefore = registryCount("sim.quanta_fused");
  SC.Engine = ExecEngine::Flat;
  RunResult Fused = runWorkload(Suite, W, MC, SC, Horizon, {},
                                SchedulerSpec::oblivious(), Scenario);
  FlatQuanta.Stepped = registryCount("sim.quanta_stepped") - StepBefore;
  FlatQuanta.Fused = registryCount("sim.quanta_fused") - FuseBefore;
  expectRunsIdentical(Stepped, Fused);
  EXPECT_EQ(Stepped.Horizon, Fused.Horizon);
  EXPECT_EQ(Stepped.CompletedCount, Fused.CompletedCount);
  return Fused;
}

} // namespace

TEST(StopRules, MaxJobsMatchesSteppedRun) {
  auto Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite =
      prepareSuite(Programs, MC, TechniqueSpec::baseline());
  Workload W = Workload::random(6, 64, Programs.size(), 5);
  Quanta Q;
  RunResult R = expectStopMatchesStepped(Suite, W, MC, SimConfig(), 500,
                                         ScenarioSpec::batch().withMaxJobs(7),
                                         Q);
  EXPECT_GE(R.CompletedCount, 7u); // Same-quantum exits may overshoot.
  EXPECT_LT(R.Horizon, 500.0);
  EXPECT_GT(Q.Fused, 0u);
}

TEST(StopRules, OpenStopRightAfterFusedWindow) {
  // One core, one self-loop benchmark, arrivals a second apart that each
  // finish well before the next: every job's life is one fused window
  // plus the stepped quantum (or two) that runs its exit, and the idle
  // gaps fuse too. The run stops at the last exit, so the stop quantum
  // directly follows a fused window.
  MachineConfig MC;
  MC.CoreTypes = {{"fast", 2.4e6, 4096}};
  MC.Cores = {{0, 0}};
  std::vector<Program> Programs = {selfLoopProgram(60000)};
  PreparedSuite Suite =
      prepareSuite(Programs, MC, TechniqueSpec::baseline());
  Workload W = Workload::random(1, 4, 1, 3);
  SimConfig SC;
  SC.BalancePeriod = 100;
  Quanta Q;
  RunResult R = expectStopMatchesStepped(
      Suite, W, MC, SC, 2.5, ScenarioSpec::periodic(1.0), Q);
  EXPECT_EQ(R.CompletedCount, 3u);
  EXPECT_GT(R.Horizon, 2.0);
  EXPECT_LT(R.Horizon, 2.5);
  EXPECT_LE(Q.Stepped, 2u * R.CompletedCount);
  EXPECT_GT(Q.Fused, 100 * Q.Stepped);
}

TEST(StopRules, EmptyOpenStreamStopsAtTimeZero) {
  // A stream with no arrival inside the horizon has nothing to run: the
  // run stops before its first quantum.
  auto Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite =
      prepareSuite(Programs, MC, TechniqueSpec::baseline());
  Workload W = Workload::random(2, 4, Programs.size(), 5);
  Quanta Q;
  RunResult R = expectStopMatchesStepped(Suite, W, MC, SimConfig(), 50,
                                         ScenarioSpec::poisson(1e-9), Q);
  EXPECT_EQ(R.Horizon, 0.0);
  EXPECT_EQ(R.CompletedCount, 0u);
  EXPECT_EQ(R.InstructionsRetired, 0u);
  EXPECT_EQ(Q.Stepped + Q.Fused, 0u);
}

TEST(RunIsolated, NonTerminatingBenchmarkThrows) {
  // A mark-free jump cycle never returns. A one-hertz core with a 1e5 s
  // timeslice reaches the 1e7 s limit in a hundred cheap quanta.
  Program Prog;
  Prog.Name = "spin";
  Procedure Main;
  Main.Id = 0;
  Main.Name = "main";
  for (uint32_t Id = 0; Id < 3; ++Id) {
    BasicBlock BB;
    BB.Id = Id;
    for (int I = 0; I < 100; ++I)
      BB.Insts.push_back(Instruction::intAlu());
    BB.Term = Id < 2 ? TermKind::Jump : TermKind::Ret;
    if (Id < 2)
      BB.Succs = {1 - Id};
    Main.Blocks.push_back(BB);
  }
  Prog.Procs = {Main};
  std::string Error;
  ASSERT_TRUE(verify(Prog, &Error)) << Error;

  MachineConfig MC;
  MC.CoreTypes = {{"slow", 1.0, 4096}};
  MC.Cores = {{0, 0}};
  SimConfig SC;
  SC.Timeslice = 1e5;
  SC.BalancePeriod = 1e5;
  try {
    isolatedRuntimes({Prog}, MC, SC);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error &E) {
    EXPECT_NE(std::string(E.what()).find("'spin'"), std::string::npos)
        << E.what();
  }
}
