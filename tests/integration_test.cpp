//===- tests/integration_test.cpp - end-to-end behaviour ------------------===//
//
// Whole-pipeline checks that reproduce the paper's qualitative claims in
// miniature: tuned assignments send memory phases to slow cores, overall
// throughput and fairness beat the oblivious baseline, the overhead-
// measurement mode is cheap, and the technique ports across machines
// ("tune once, run anywhere").
//
//===----------------------------------------------------------------------===//

#include "metrics/Fairness.h"
#include "workload/Benchmarks.h"
#include "workload/Runner.h"

#include <gtest/gtest.h>

using namespace pbt;

namespace {

TechniqueSpec loopTechnique(double Delta = 0.2) {
  TransitionConfig TC;
  TC.Strat = Strategy::Loop;
  TC.MinSize = 45;
  TunerConfig TU;
  TU.IpcDelta = Delta;
  return TechniqueSpec::tuned(TC, TU);
}

} // namespace

TEST(Integration, AlternatingBenchmarkLearnsDistinctAssignments) {
  auto Specs = specSuite();
  Program Prog = buildBenchmark(Specs[5]); // 183.equake.
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<Program> One{Prog};
  PreparedSuite Suite = prepareSuite(One, MC, loopTechnique());
  CompletedJob Job = runIsolated(Suite, 0, MC, SimConfig());
  // Alternating phases must keep switching after the decision: far more
  // switches than the handful used for sampling.
  EXPECT_GT(Job.Stats.CoreSwitches, 50u);
  EXPECT_GT(Job.Stats.MarksFired, Job.Stats.CoreSwitches);
}

TEST(Integration, SwitchCostAmortized) {
  auto Specs = specSuite();
  Program Prog = buildBenchmark(Specs[5]);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<Program> One{Prog};
  PreparedSuite Suite = prepareSuite(One, MC, loopTechnique());
  CompletedJob Job = runIsolated(Suite, 0, MC, SimConfig());
  ASSERT_GT(Job.Stats.CoreSwitches, 0u);
  double CyclesPerSwitch =
      Job.Stats.CyclesConsumed / static_cast<double>(Job.Stats.CoreSwitches);
  // Paper Fig. 5: work per switch dwarfs the ~1000-cycle switch cost.
  EXPECT_GT(CyclesPerSwitch,
            10.0 * Suite.Flats[0]->program().cost().SwitchCycles);
}

TEST(Integration, TunedBeatsBaselineOnQuad) {
  // Per-seed fairness metrics are noisy (they are in the paper's Table 2
  // as well); compare means over two workload seeds at a 400 s horizon.
  auto Programs = buildSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  SimConfig SC;
  auto Iso = isolatedRuntimes(Programs, MC, SC);
  PreparedSuite Base = prepareSuite(Programs, MC, TechniqueSpec::baseline());
  PreparedSuite Tuned = prepareSuite(Programs, MC, loopTechnique());
  double BaseAvg = 0, TunedAvg = 0;
  uint64_t BaseInsts = 0, TunedInsts = 0;
  for (uint64_t Seed : {21ULL, 99ULL}) {
    Workload W = Workload::random(18, 128, Programs.size(), Seed);
    RunResult RB = runWorkload(Base, W, MC, SC, 400, Iso);
    RunResult RT = runWorkload(Tuned, W, MC, SC, 400, Iso);
    BaseInsts += RB.InstructionsRetired;
    TunedInsts += RT.InstructionsRetired;
    BaseAvg += computeFairness(RB.Completed).AvgProcessTime;
    TunedAvg += computeFairness(RT.Completed).AvgProcessTime;
  }
  EXPECT_GT(TunedInsts, BaseInsts);
  EXPECT_LT(TunedAvg, BaseAvg);
}

TEST(Integration, OverheadModeIsCheap) {
  // Fig. 4 methodology: marks switch to "all cores"; the runtime delta
  // vs the uninstrumented binary is the instrumentation overhead.
  auto Specs = specSuite();
  Program Prog = buildBenchmark(Specs[8]); // 401.bzip2: many marks fire.
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<Program> One{Prog};
  SimConfig SC;

  PreparedSuite Plain =
      prepareSuite(One, MC, TechniqueSpec::baseline());
  TechniqueSpec Overhead = loopTechnique();
  Overhead.Tuner.SwitchToAllCores = true;
  PreparedSuite Marked = prepareSuite(One, MC, Overhead);

  double TPlain =
      runIsolated(Plain, 0, MC, SC).Completion;
  double TMarked =
      runIsolated(Marked, 0, MC, SC).Completion;
  double OverheadPct = 100.0 * (TMarked - TPlain) / TPlain;
  EXPECT_GE(OverheadPct, -0.5);
  EXPECT_LT(OverheadPct, 2.0); // Paper: well under 2%, as low as 0.14%.
}

TEST(Integration, TuneOnceRunAnywhere) {
  // The same instrumented image (no machine knowledge baked in) adapts
  // to a 3-core machine: it still learns assignments and completes.
  auto Specs = specSuite();
  Program Prog = buildBenchmark(Specs[5]);
  std::vector<Program> One{Prog};
  MachineConfig Quad = MachineConfig::quadAsymmetric();
  MachineConfig Three = MachineConfig::threeCore();
  // Prepare against the quad (the typing is behavioural, but marks are
  // machine-independent).
  PreparedSuite Suite = prepareSuite(One, Quad, loopTechnique());
  // Run the SAME instrumented image on the 3-core machine, flattened
  // with costs recomputed there.
  std::shared_ptr<const InstrumentedProgram> Image(
      Suite.Flats[0], &Suite.Flats[0]->program());
  auto FlatThree = std::make_shared<const FlatImage>(
      Image, std::make_shared<const CostModel>(Prog, Three));
  Machine M(Three, SimConfig(), std::make_unique<ObliviousScheduler>());
  uint32_t Pid = M.spawn(FlatThree, Suite.Tuner, 9);
  M.run(400);
  const Process &P = M.process(Pid);
  EXPECT_TRUE(P.Finished);
  EXPECT_GT(P.Stats.CoreSwitches, 10u);
}

TEST(Integration, SymmetricMachineDegradesGracefully) {
  // On a symmetric machine there is one core type: the tuner decides
  // instantly and never migrates across types.
  auto Specs = specSuite();
  Program Prog = buildBenchmark(Specs[5]);
  std::vector<Program> One{Prog};
  MachineConfig Sym = MachineConfig::symmetricQuad();
  PreparedSuite Suite = prepareSuite(One, Sym, loopTechnique());
  CompletedJob Job = runIsolated(Suite, 0, Sym, SimConfig());
  EXPECT_EQ(Job.Stats.CoreSwitches, 0u);
}

TEST(Integration, ExtremeDeltaCollapsesToOneCoreType) {
  // Fig. 6's extremes: a huge delta keeps every phase on the lowest-IPC
  // type (fast); throughput suffers vs a mid-range delta.
  auto Programs = buildSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  SimConfig SC;
  Workload W = Workload::random(12, 128, Programs.size(), 3);
  RunResult Mid = runWorkload(prepareSuite(Programs, MC, loopTechnique(0.2)),
                              W, MC, SC, 150);
  RunResult Extreme = runWorkload(
      prepareSuite(Programs, MC, loopTechnique(50.0)), W, MC, SC, 150);
  EXPECT_GT(Mid.InstructionsRetired, Extreme.InstructionsRetired);
}

TEST(Integration, ClusteringErrorDegradesGradually) {
  // Fig. 7: mild error costs little; heavy error erases most of the win.
  // Uses the paper's BB[15,0] configuration: block-level error hits the
  // basic-block strategy directly (loop summarization largely votes the
  // error away, an observation the paper's loop results hint at).
  auto Programs = buildSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  SimConfig SC;
  TransitionConfig BB15;
  BB15.Strat = Strategy::BasicBlock;
  BB15.MinSize = 15;
  auto Run = [&](double Error) {
    TechniqueSpec Tech = TechniqueSpec::tuned(BB15, loopTechnique().Tuner);
    Tech.TypingError = Error;
    PreparedSuite Suite = prepareSuite(Programs, MC, Tech);
    uint64_t Sum = 0;
    for (uint64_t Seed : {13ULL, 31ULL}) {
      Workload W = Workload::random(12, 128, Programs.size(), Seed);
      Sum += runWorkload(Suite, W, MC, SC, 150).InstructionsRetired;
    }
    return Sum;
  };
  uint64_t E0 = Run(0.0);
  uint64_t E10 = Run(0.10);
  uint64_t E30 = Run(0.30);
  // Small error stays close to the error-free result.
  EXPECT_GT(static_cast<double>(E10),
            0.97 * static_cast<double>(E0));
  // Large error must not beat the error-free configuration (mean of two
  // seeds; individual runs are noisy, as in the paper).
  EXPECT_LE(static_cast<double>(E30),
            1.02 * static_cast<double>(E0));
}

TEST(Integration, CounterContentionIsRare) {
  // Paper Sec. III: because little code is monitored, processes seldom
  // wait for counters even with only 4 slots machine-wide.
  auto Programs = buildSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  SimConfig SC;
  Workload W = Workload::random(18, 128, Programs.size(), 5);
  RunResult R = runWorkload(prepareSuite(Programs, MC, loopTechnique()), W,
                            MC, SC, 120);
  ASSERT_GT(R.TotalMarks, 0u);
  // The paper's claim is about time: waiting must not impact
  // performance. Waits cluster at workload start-up while every process
  // samples; their total cost must stay below 0.1% of consumed cycles.
  double WaitCycles =
      static_cast<double>(R.CounterWaits) * SC.CounterWaitCycles;
  EXPECT_LT(WaitCycles, 0.001 * R.TotalCycles);
}

TEST(Integration, FeedbackResamplingStillConverges) {
  // Sec. VI-B extension: periodic re-sampling keeps working.
  auto Specs = specSuite();
  Program Prog = buildBenchmark(Specs[5]);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<Program> One{Prog};
  TechniqueSpec Tech = loopTechnique();
  Tech.Tuner.ResampleAfterMarks = 40;
  PreparedSuite Suite = prepareSuite(One, MC, Tech);
  CompletedJob Job = runIsolated(Suite, 0, MC, SimConfig());
  EXPECT_GT(Job.Stats.MonitorSessions, 4u); // Re-learned at least once.
  EXPECT_GT(Job.Stats.CoreSwitches, 20u);
}
