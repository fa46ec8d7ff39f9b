//===- tests/workload_test.cpp - benchmark suite + workload tests ---------===//

#include "support/ThreadPool.h"
#include "workload/Benchmarks.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

using namespace pbt;

TEST(Suite, FifteenBenchmarks) {
  EXPECT_EQ(specSuite().size(), 15u);
}

TEST(Suite, AllProgramsVerify) {
  for (const Program &Prog : buildSuite()) {
    std::string Error;
    EXPECT_TRUE(verify(Prog, &Error)) << Prog.Name << ": " << Error;
  }
}

TEST(Suite, ProgramsAreSubstantial) {
  for (const Program &Prog : buildSuite()) {
    EXPECT_GT(Prog.instructionCount(), 10000u) << Prog.Name;
    EXPECT_GT(Prog.Procs.size(), 10u) << Prog.Name; // Cold procedures.
  }
}

TEST(Suite, SinglePhaseBenchmarksExist) {
  // 473.astar and 459.GemsFDTD are single-phase (0 switches in Table 1).
  auto Specs = specSuite();
  int SinglePhase = 0;
  for (const BenchSpec &S : Specs)
    SinglePhase += S.Phases.size() == 1;
  EXPECT_GE(SinglePhase, 2);
}

TEST(Suite, DeterministicConstruction) {
  Program A = buildBenchmark(specSuite()[0]);
  Program B = buildBenchmark(specSuite()[0]);
  EXPECT_EQ(A.instructionCount(), B.instructionCount());
  EXPECT_EQ(A.blockCount(), B.blockCount());
  EXPECT_EQ(printProgram(A), printProgram(B));
}

// buildSuite builds its programs as one parallelFor on the global pool:
// both a direct call and a call from inside a pool task (which runs
// inline) return, in spec order, the programs a serial loop builds.
TEST(Suite, ParallelBuildMatchesSerialBuild) {
  const std::vector<BenchSpec> Specs = specSuite();
  std::vector<Program> Serial;
  for (const BenchSpec &S : Specs)
    Serial.push_back(buildBenchmark(S));
  const std::vector<Program> Direct = buildSuite();
  std::vector<Program> Nested;
  ThreadPool::global().parallelFor(2, [&](size_t I) {
    if (I == 0)
      Nested = buildSuite();
  });

  ASSERT_EQ(Direct.size(), Specs.size());
  ASSERT_EQ(Nested.size(), Specs.size());
  for (size_t I = 0; I < Specs.size(); ++I) {
    EXPECT_EQ(Direct[I].Name, Specs[I].Name);
    EXPECT_TRUE(Direct[I] == Serial[I]) << Specs[I].Name;
    EXPECT_TRUE(Nested[I] == Serial[I]) << Specs[I].Name;
  }
}

TEST(Suite, InterProceduralPhasesExist) {
  // Some benchmarks place phase loops in callees.
  int WithCallee = 0;
  for (const BenchSpec &S : specSuite())
    for (const PhaseSpec &P : S.Phases)
      WithCallee += P.InCallee;
  EXPECT_GE(WithCallee, 3);
}

TEST(Suite, AlternationCountsFollowTableOne) {
  // equake must alternate the most, then bzip2, swim, mgrid.
  auto Specs = specSuite();
  auto Find = [&](const char *Name) -> const BenchSpec & {
    for (const BenchSpec &S : Specs)
      if (S.Name == Name)
        return S;
    ADD_FAILURE() << "missing " << Name;
    return Specs[0];
  };
  EXPECT_GT(Find("183.equake").Alternations, Find("401.bzip2").Alternations);
  EXPECT_GT(Find("401.bzip2").Alternations, Find("171.swim").Alternations);
  EXPECT_GT(Find("171.swim").Alternations, Find("172.mgrid").Alternations);
  EXPECT_EQ(Find("473.astar").Alternations, 1u);
  EXPECT_EQ(Find("459.GemsFDTD").Alternations, 1u);
}

TEST(Workload, RandomIsDeterministic) {
  Workload A = Workload::random(10, 20, 15, 99);
  Workload B = Workload::random(10, 20, 15, 99);
  EXPECT_EQ(A.Slots, B.Slots);
}

TEST(Workload, DifferentSeedsDiffer) {
  Workload A = Workload::random(10, 20, 15, 1);
  Workload B = Workload::random(10, 20, 15, 2);
  EXPECT_NE(A.Slots, B.Slots);
}

TEST(Workload, ShapeMatchesRequest) {
  Workload W = Workload::random(18, 64, 15, 7);
  EXPECT_EQ(W.numSlots(), 18u);
  for (const auto &Queue : W.Slots) {
    EXPECT_EQ(Queue.size(), 64u);
    for (uint32_t Bench : Queue)
      EXPECT_LT(Bench, 15u);
  }
}

TEST(Workload, CoversBenchmarkRange) {
  Workload W = Workload::random(20, 64, 15, 11);
  std::vector<bool> Seen(15, false);
  for (const auto &Queue : W.Slots)
    for (uint32_t Bench : Queue)
      Seen[Bench] = true;
  for (size_t I = 0; I < Seen.size(); ++I)
    EXPECT_TRUE(Seen[I]) << "benchmark " << I << " never drawn";
}

TEST(Workload, JobSeedsStablePerSlotIndex) {
  Workload W = Workload::random(4, 8, 15, 3);
  EXPECT_EQ(W.jobSeed(0, 0), W.jobSeed(0, 0));
  EXPECT_NE(W.jobSeed(0, 0), W.jobSeed(0, 1));
  EXPECT_NE(W.jobSeed(0, 0), W.jobSeed(1, 0));
}
