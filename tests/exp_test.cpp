//===- tests/exp_test.cpp - experiment harness: cache, sweeps, parallel ---===//

#include "RunIdentity.h"
#include "StoreEntries.h"
#include "TestDirs.h"

#include "exp/CacheStore.h"
#include "exp/Harness.h"
#include "exp/Lab.h"
#include "exp/SuiteCache.h"
#include "exp/Sweep.h"
#include "support/Binary.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "workload/Benchmarks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <utime.h>

using namespace pbt;
using namespace pbt::exp;
using pbt_test::entryPath;
using pbt_test::loadSuite;
using pbt_test::saveSuite;
using pbt_test::testCacheDir;

namespace {

/// A trimmed suite (3 fast benchmarks) keeps these tests quick.
std::vector<Program> smallSuite() {
  auto Specs = specSuite();
  std::vector<Program> Programs;
  for (const char *Name : {"164.gzip", "179.art", "473.astar"})
    for (const BenchSpec &S : Specs)
      if (S.Name == Name)
        Programs.push_back(buildBenchmark(S));
  return Programs;
}

/// Randomized benchmark programs: structure drawn deterministically from
/// \p Seed, exercising multi-phase bodies, callee phases, and cold code.
std::vector<Program> randomPrograms(uint64_t Seed, unsigned Count) {
  Rng Gen(Seed);
  std::vector<Program> Programs;
  for (unsigned I = 0; I < Count; ++I) {
    BenchSpec Spec;
    Spec.Name = "rand" + std::to_string(I);
    Spec.TargetSeconds = 0.2 + 0.1 * static_cast<double>(Gen.next() % 8);
    Spec.Alternations = 1 + static_cast<unsigned>(Gen.next() % 40);
    Spec.ColdCodeInsts = 2000 + static_cast<unsigned>(Gen.next() % 20000);
    unsigned NumPhases = 1 + static_cast<unsigned>(Gen.next() % 3);
    for (unsigned P = 0; P < NumPhases; ++P) {
      PhaseSpec Phase;
      Phase.Memory = (Gen.next() & 1) != 0;
      Phase.Share = 1.0 / NumPhases;
      Phase.BodyInsts = 40 + static_cast<unsigned>(Gen.next() % 300);
      Phase.InCallee = (Gen.next() & 1) != 0;
      Spec.Phases.push_back(Phase);
    }
    Programs.push_back(buildBenchmark(Spec));
  }
  return Programs;
}

TechniqueSpec loopTechnique(double Delta = 0.2) {
  TransitionConfig TC;
  TC.Strat = Strategy::Loop;
  TC.MinSize = 45;
  TunerConfig TU;
  TU.IpcDelta = Delta;
  return TechniqueSpec::tuned(TC, TU);
}

/// Asserts every prepared artifact of \p A and \p B is identical:
/// instrumented images (marks, byte sizes), cost-model samples, flat
/// images, and spawn affinities.
void expectSuitesIdentical(const PreparedSuite &A, const PreparedSuite &B) {
  ASSERT_EQ(A.Flats.size(), B.Flats.size());
  EXPECT_EQ(A.Names, B.Names);
  for (size_t I = 0; I < A.Flats.size(); ++I) {
    const InstrumentedProgram &IA = A.Flats[I]->program();
    const InstrumentedProgram &IB = B.Flats[I]->program();
    ASSERT_EQ(IA.marks().size(), IB.marks().size());
    for (size_t M = 0; M < IA.marks().size(); ++M) {
      EXPECT_EQ(IA.marks()[M].Proc, IB.marks()[M].Proc);
      EXPECT_EQ(IA.marks()[M].Block, IB.marks()[M].Block);
      EXPECT_EQ(IA.marks()[M].SuccIndex, IB.marks()[M].SuccIndex);
      EXPECT_EQ(IA.marks()[M].Point, IB.marks()[M].Point);
      EXPECT_EQ(IA.marks()[M].PhaseType, IB.marks()[M].PhaseType);
    }
    EXPECT_EQ(IA.instrumentedByteSize(), IB.instrumentedByteSize());
    EXPECT_DOUBLE_EQ(IA.spaceOverheadPercent(), IB.spaceOverheadPercent());
    // Cost models: exact cycle samples across every (block, core type).
    const Program &Prog = IA.program();
    for (const Procedure &Proc : Prog.Procs)
      for (const BasicBlock &BB : Proc.Blocks) {
        EXPECT_EQ(A.Flats[I]->cost().blockInsts(Proc.Id, BB.Id),
                  B.Flats[I]->cost().blockInsts(Proc.Id, BB.Id));
        EXPECT_DOUBLE_EQ(A.Flats[I]->cost().blockCycles(Proc.Id, BB.Id, 0, 1),
                         B.Flats[I]->cost().blockCycles(Proc.Id, BB.Id, 0, 1));
      }
    EXPECT_EQ(A.Flats[I]->numBlocks(), B.Flats[I]->numBlocks());
  }
}

// expectRunsIdentical (the bit-identity comparator) is shared with the
// scheduler suite; see tests/RunIdentity.h.

} // namespace

//===----------------------------------------------------------------------===//
// Parallel prepareSuite determinism
//===----------------------------------------------------------------------===//

// prepareSuite fans out per program; a single-thread pool (what
// PBT_THREADS=1 pins the global pool to) must produce the same suite,
// bit for bit, as a many-thread pool.
TEST(PrepareSuiteParallel, BitIdenticalToSerialOnRandomPrograms) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  ThreadPool Serial(1);
  ThreadPool Many(8);
  for (uint64_t Seed : {1ull, 77ull, 991ull}) {
    std::vector<Program> Programs = randomPrograms(Seed, 6);
    TechniqueSpec BB = loopTechnique();
    BB.Transition.Strat = Strategy::BasicBlock;
    BB.Transition.MinSize = 15;
    for (const TechniqueSpec &Tech :
         {TechniqueSpec::baseline(), loopTechnique(), BB}) {
      PreparedSuite A = prepareSuite(Programs, MC, Tech, 42, &Serial);
      PreparedSuite B = prepareSuite(Programs, MC, Tech, 42, &Many);
      expectSuitesIdentical(A, B);
    }
  }
}

TEST(PrepareSuiteParallel, StaticTypingAndErrorInjectionDeterministic) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  ThreadPool Serial(1);
  ThreadPool Many(8);
  std::vector<Program> Programs = randomPrograms(5, 8);
  TechniqueSpec Tech = loopTechnique();
  Tech.UseStaticTyping = true;
  Tech.TypingError = 0.2;
  PreparedSuite A = prepareSuite(Programs, MC, Tech, 7, &Serial);
  PreparedSuite B = prepareSuite(Programs, MC, Tech, 7, &Many);
  expectSuitesIdentical(A, B);
}

TEST(PrepareSuiteParallel, DownstreamRunResultsBitIdentical) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  ThreadPool Serial(1);
  ThreadPool Many(8);
  std::vector<Program> Programs = randomPrograms(13, 5);
  PreparedSuite A = prepareSuite(Programs, MC, loopTechnique(), 42, &Serial);
  PreparedSuite B = prepareSuite(Programs, MC, loopTechnique(), 42, &Many);
  Workload W = Workload::random(4, 64, Programs.size(), 3);
  RunResult RA = runWorkload(A, W, MC, SimConfig(), 20);
  RunResult RB = runWorkload(B, W, MC, SimConfig(), 20);
  expectRunsIdentical(RA, RB);
}

//===----------------------------------------------------------------------===//
// SuiteCache
//===----------------------------------------------------------------------===//

TEST(SuiteCacheTest, TunerOnlyVariationHitsCache) {
  std::vector<Program> Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  SuiteCache Cache;

  PreparedSuite First = Cache.get(Programs, MC, loopTechnique(0.1));
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.hits(), 0u);

  // Same preparation, different tuner: served from cache, tuner honored.
  PreparedSuite Second = Cache.get(Programs, MC, loopTechnique(0.4));
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_DOUBLE_EQ(Second.Tuner.IpcDelta, 0.4);
  EXPECT_DOUBLE_EQ(First.Tuner.IpcDelta, 0.1);
  // The heavy artifacts are shared, not rebuilt.
  ASSERT_EQ(First.Flats.size(), Second.Flats.size());
  for (size_t I = 0; I < First.Flats.size(); ++I)
    EXPECT_EQ(First.Flats[I].get(), Second.Flats[I].get());

  // A different transition is a different preparation.
  TechniqueSpec BB = loopTechnique();
  BB.Transition.Strat = Strategy::BasicBlock;
  BB.Transition.MinSize = 15;
  Cache.get(Programs, MC, BB);
  EXPECT_EQ(Cache.misses(), 2u);
  EXPECT_EQ(Cache.size(), 2u);
}

TEST(SuiteCacheTest, KeyCoversMachineSeedAndPreparationFields) {
  std::vector<Program> Programs = smallSuite();
  SuiteCache Cache;
  Cache.get(Programs, MachineConfig::quadAsymmetric(), loopTechnique());
  Cache.get(Programs, MachineConfig::threeCore(), loopTechnique());
  EXPECT_EQ(Cache.misses(), 2u); // Machine differs.
  Cache.get(Programs, MachineConfig::quadAsymmetric(), loopTechnique(), 7);
  EXPECT_EQ(Cache.misses(), 3u); // Typing seed differs.
  TechniqueSpec Err = loopTechnique();
  Err.TypingError = 0.1;
  Cache.get(Programs, MachineConfig::quadAsymmetric(), Err);
  EXPECT_EQ(Cache.misses(), 4u); // Preparation differs.
  EXPECT_EQ(Cache.hits(), 0u);
  Cache.get(Programs, MachineConfig::quadAsymmetric(), loopTechnique());
  EXPECT_EQ(Cache.hits(), 1u);
}

TEST(SuiteCacheTest, RenamedMachineStillHits) {
  std::vector<Program> Programs = smallSuite();
  SuiteCache Cache;
  MachineConfig MC = MachineConfig::quadAsymmetric();
  Cache.get(Programs, MC, loopTechnique());
  MC.Name = "renamed"; // Display label is not part of the identity.
  Cache.get(Programs, MC, loopTechnique());
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 1u);
}

// Programs are not part of the in-memory key, so a cache serves the
// program set of its first request only: any other set throws instead
// of being handed the first set's suite (same size) or reading past its
// hashes (larger).
TEST(SuiteCacheTest, RejectsAProgramSetOtherThanTheFirst) {
  std::vector<Program> Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  SuiteCache Cache;
  Cache.get(Programs, MC, loopTechnique());

  std::vector<Program> Larger = Programs;
  Larger.push_back(randomPrograms(5, 1)[0]);
  EXPECT_THROW(Cache.get(Larger, MC, loopTechnique()), std::invalid_argument);
  std::vector<Program> Smaller(Programs.begin(), Programs.end() - 1);
  EXPECT_THROW(Cache.get(Smaller, MC, loopTechnique()),
               std::invalid_argument);

  std::vector<Program> Renamed = Programs;
  Renamed[1].Name += "'";
  EXPECT_THROW(Cache.get(Renamed, MC, loopTechnique()),
               std::invalid_argument);
  // Program 0's name on program 2's body: other block and instruction
  // counts.
  std::vector<Program> Swapped = Programs;
  Swapped[0] = Programs[2];
  Swapped[0].Name = Programs[0].Name;
  ASSERT_NE(Swapped[0].instructionCount(), Programs[0].instructionCount());
  EXPECT_THROW(Cache.get(Swapped, MC, loopTechnique()),
               std::invalid_argument);

  // The first set is still served from memory.
  Cache.get(Programs, MC, loopTechnique());
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 1u);
}

// The disk tier's per-program hashes are computed on the pool: the
// same values, in the same order, as a serial hashProgram loop, and
// computed once per cache.
TEST(SuiteCacheTest, ProgramHashesEqualASerialLoopInOrder) {
  std::vector<Program> Programs = buildSuite();
  std::vector<uint64_t> Serial;
  for (const Program &Prog : Programs)
    Serial.push_back(CacheStore::hashProgram(Prog));

  SuiteCache Cache;
  const std::vector<uint64_t> &Hashes = Cache.programHashes(Programs);
  EXPECT_EQ(Hashes, Serial);
  EXPECT_EQ(&Cache.programHashes(Programs), &Hashes);
}

//===----------------------------------------------------------------------===//
// Sweeps
//===----------------------------------------------------------------------===//

// A sweep that varies only the tuner must prepare the technique images
// exactly once — the acceptance check that cached-suite sweeps skip
// re-preparation, observed through the cache counters.
TEST(SweepTest, CachedSweepSkipsRePreparation) {
  Lab L(smallSuite(), MachineConfig::quadAsymmetric());
  SweepGrid G;
  for (double Delta : {0.05, 0.1, 0.2, 0.4})
    G.Techniques.push_back(loopTechnique(Delta));
  G.Workloads = {{/*Slots=*/4, /*Horizon=*/20, /*Seed=*/5, /*JobsPerSlot=*/64}};
  SweepResult R = runSweep(L, G);
  ASSERT_EQ(R.Cells.size(), 4u);
  // One preparation for the shared Loop[45] images, one for the baseline
  // (requested first by the isolated-runtime measurement, which also
  // goes through the cache): 2 misses; the remaining 3 technique
  // requests and the sweep's own baseline request all hit.
  EXPECT_EQ(L.cache().misses(), 2u);
  EXPECT_EQ(L.cache().hits(), 4u);
  // The tuner still varies per cell: deltas produce different switching.
  EXPECT_GT(R.Cells[0].Run.InstructionsRetired, 0u);
}

namespace {

/// Field-exact equality of two fairness summaries.
void expectFairIdentical(const FairnessMetrics &A, const FairnessMetrics &B) {
  EXPECT_EQ(A.MaxFlow, B.MaxFlow);
  EXPECT_EQ(A.MaxStretch, B.MaxStretch);
  EXPECT_EQ(A.AvgProcessTime, B.AvgProcessTime);
  EXPECT_EQ(A.P95Flow, B.P95Flow);
  EXPECT_EQ(A.Jobs, B.Jobs);
}

} // namespace

// Every sweep cell, its baseline, and the Comparison assembled from them
// equal direct replays of the same queues and their fairness metrics.
TEST(SweepTest, CellsBitIdenticalToDirectLabRuns) {
  Lab L(smallSuite(), MachineConfig::quadAsymmetric());
  SweepGrid G;
  G.Techniques = {loopTechnique(0.2), loopTechnique(0.05)};
  G.Workloads = {{4, 20, 5, 64}, {3, 15, 9, 64}};
  SweepResult R = runSweep(L, G);
  ASSERT_EQ(R.Cells.size(), 4u);
  ASSERT_EQ(R.Baselines.size(), 2u);

  Lab Fresh(smallSuite(), MachineConfig::quadAsymmetric());
  auto DirectRun = [&](const TechniqueSpec &Tech, const WorkloadSpec &Spec) {
    PreparedSuite Suite = Fresh.suite(Tech);
    Workload W = Workload::random(Spec.Slots, Spec.JobsPerSlot,
                                  Fresh.programs().size(), Spec.Seed);
    return runWorkload(Suite, W, Fresh.machine(), Fresh.sim(), Spec.Horizon,
                       Fresh.isolated());
  };
  std::vector<RunResult> DirectBases;
  for (size_t WIdx = 0; WIdx < G.Workloads.size(); ++WIdx) {
    DirectBases.push_back(
        DirectRun(TechniqueSpec::baseline(), G.Workloads[WIdx]));
    expectRunsIdentical(R.Baselines[WIdx], DirectBases.back());
  }
  for (const SweepCell &Cell : R.Cells) {
    RunResult Direct = DirectRun(G.Techniques[Cell.Technique],
                                 G.Workloads[Cell.Workload]);
    expectRunsIdentical(Cell.Run, Direct);

    Comparison C = R.comparison(Cell);
    const RunResult &DirectBase = DirectBases[Cell.Workload];
    expectRunsIdentical(C.Base, DirectBase);
    expectRunsIdentical(C.Tuned, Direct);
    expectFairIdentical(C.BaseFair, computeFairness(DirectBase.Completed));
    expectFairIdentical(C.TunedFair, computeFairness(Direct.Completed));
  }
}

// The scheduler axis multiplies cells but NOT preparations: policies
// only steer replays, so a grid sweeping four schedulers over one
// technique prepares exactly as much as the one-scheduler grid.
TEST(SweepTest, SchedulerAxisEnumeratesWithoutExtraPreparation) {
  Lab L(smallSuite(), MachineConfig::quadAsymmetric());
  SweepGrid G;
  G.Techniques = {TechniqueSpec::baseline()};
  G.Schedulers = {SchedulerSpec::oblivious(), SchedulerSpec::fastestFirst(),
                  SchedulerSpec::hassStatic(),
                  SchedulerSpec::ipcSampling()};
  G.Workloads = {{/*Slots=*/4, /*Horizon=*/15, /*Seed=*/5,
                  /*JobsPerSlot=*/64}};
  SweepResult R = runSweep(L, G);
  ASSERT_EQ(R.Cells.size(), 4u);
  for (uint32_t I = 0; I < 4; ++I)
    EXPECT_EQ(R.Cells[I].Scheduler, I);
  // One preparation total (the baseline suite, shared by the isolated-
  // runtime measurement, the technique cells, and the baseline replay).
  EXPECT_EQ(L.cache().misses(), 1u);
  // The oblivious cell replays the baseline suite on the baseline
  // workload: it must equal the shared baseline replay exactly.
  EXPECT_EQ(R.Cells[0].Run.InstructionsRetired,
            R.Baselines[0].InstructionsRetired);
  // Policies genuinely differ: the ipc-sampling reassigner migrates
  // processes the oblivious baseline leaves in place. (fastest-first can
  // legitimately coincide with oblivious here — the quad's fast cores
  // come first, so the tie-breaks pick the same cores.)
  EXPECT_NE(R.Cells[3].Run.InstructionsRetired,
            R.Cells[0].Run.InstructionsRetired);
}

// The CI warm-cache invariant, in-process: a scheduler-only sweep over
// a persistent store must replay entirely from cached suites —
// prepared() == 0, storeHits() > 0 — in a cold lab.
TEST(SweepTest, SchedulerOnlySweepServedFromStore) {
  auto Store = std::make_shared<CacheStore>(testCacheDir("exp_test_schedaxis.cache"));
  SweepGrid G;
  G.Techniques = {TechniqueSpec::baseline()};
  G.Schedulers = {SchedulerSpec::oblivious(), SchedulerSpec::fastestFirst(),
                  SchedulerSpec::ipcSampling()};
  G.Workloads = {{4, 10, 5, 64}};
  G.WithBaseline = false;

  Lab First(smallSuite(), MachineConfig::quadAsymmetric());
  First.cache().setStore(Store);
  SweepResult Cold = runSweep(First, G);

  Lab Second(smallSuite(), MachineConfig::quadAsymmetric());
  Second.cache().setStore(Store);
  SweepResult Warm = runSweep(Second, G);
  EXPECT_EQ(Second.cache().prepared(), 0u);
  EXPECT_GT(Second.cache().storeHits(), 0u);

  // And cached replays are bit-identical to the cold ones.
  ASSERT_EQ(Cold.Cells.size(), Warm.Cells.size());
  for (size_t I = 0; I < Cold.Cells.size(); ++I)
    expectRunsIdentical(Cold.Cells[I].Run, Warm.Cells[I].Run);
}

// The artifact records the scheduler label per cell, and the grid-pure
// distinct_preparations ignores the scheduler axis.
TEST(HarnessTest, SchedulerLabelsRecordedPreparationsExcludeAxis) {
  ExperimentHarness H("sched_axis_artifact", "scheduler axis artifact",
                      "none");
  SweepGrid G;
  G.Techniques = {loopTechnique(0.2)};
  G.Schedulers = {SchedulerSpec::oblivious(),
                  SchedulerSpec::fastestFirst()};
  G.Workloads = {{4, 10, 5, 64}};
  H.sweep(H.lab(MachineConfig::quadAsymmetric()), G);
  std::string Artifact = H.json().dump(0);
  EXPECT_NE(Artifact.find("\"schema\":\"pbt-bench-v7\""), std::string::npos);
  EXPECT_NE(Artifact.find("\"scheduler\":\"oblivious\""),
            std::string::npos);
  EXPECT_NE(Artifact.find("\"scheduler\":\"fastest-first\""),
            std::string::npos);
  // Every cell of a classic grid carries the default scenario label and
  // the latency block (v4 additions).
  EXPECT_NE(Artifact.find("\"scenario\":\"batch\""), std::string::npos);
  EXPECT_NE(Artifact.find("\"latency\":{\"jobs\":"), std::string::npos);
  EXPECT_NE(Artifact.find("\"p95_flow\":"), std::string::npos);
  // v5 additions: the sweep records which engine replayed it and every
  // metrics block carries an explicit percentile mode.
  EXPECT_NE(Artifact.find("\"engine\":\"flat\""), std::string::npos);
  EXPECT_NE(Artifact.find("\"percentile_mode\":\"exact\""),
            std::string::npos);
  // One technique preparation + the baseline: the two schedulers add
  // nothing.
  EXPECT_NE(Artifact.find("\"distinct_preparations\":2"),
            std::string::npos);
}

TEST(SweepTest, TypingSeedAxisEnumerates) {
  Lab L(smallSuite(), MachineConfig::quadAsymmetric());
  SweepGrid G;
  TechniqueSpec Tech = loopTechnique();
  Tech.UseStaticTyping = true;
  G.Techniques = {Tech};
  G.Workloads = {{4, 15, 5, 64}};
  G.TypingSeeds = {42, 7, 9};
  G.WithBaseline = false;
  SweepResult R = runSweep(L, G);
  ASSERT_EQ(R.Cells.size(), 3u);
  EXPECT_TRUE(R.Baselines.empty());
  for (uint32_t I = 0; I < 3; ++I)
    EXPECT_EQ(R.Cells[I].TypingSeed, I);
  // One preparation per typing seed, plus the baseline prepared for the
  // isolated-runtime measurement (cached like any other suite).
  EXPECT_EQ(L.cache().misses(), 4u);
}

//===----------------------------------------------------------------------===//
// Labels and config identity
//===----------------------------------------------------------------------===//

TEST(TechniqueLabels, MarkersAreUnambiguous) {
  EXPECT_EQ(TechniqueSpec::baseline().label(), "Linux");
  EXPECT_EQ(loopTechnique().label(), "Loop[45]");
  TechniqueSpec Static = loopTechnique();
  Static.UseStaticTyping = true;
  EXPECT_EQ(Static.label(), "Loop[45]+static");
  TechniqueSpec Err = loopTechnique();
  Err.TypingError = 0.10;
  EXPECT_EQ(Err.label(), "Loop[45]+err10%");
  TechniqueSpec Both = Static;
  Both.TypingError = 0.05;
  EXPECT_EQ(Both.label(), "Loop[45]+static+err5%");
}

TEST(ConfigIdentity, EqualityAndHashing) {
  TechniqueSpec A = loopTechnique(0.2);
  TechniqueSpec B = loopTechnique(0.2);
  EXPECT_TRUE(A == B);
  EXPECT_EQ(hashValue(A), hashValue(B));

  TechniqueSpec C = loopTechnique(0.15);
  EXPECT_FALSE(A == C);          // Tuner differs...
  EXPECT_TRUE(A.samePreparation(C)); // ...but preparation matches.
  EXPECT_EQ(A.preparationHash(), C.preparationHash());

  TechniqueSpec D = A;
  D.TypingError = 0.1;
  EXPECT_FALSE(A.samePreparation(D));
  EXPECT_NE(A.preparationHash(), D.preparationHash());

  EXPECT_TRUE(MachineConfig::quadAsymmetric() ==
              MachineConfig::quadAsymmetric());
  EXPECT_FALSE(MachineConfig::quadAsymmetric() ==
               MachineConfig::threeCore());
  EXPECT_EQ(hashValue(MachineConfig::quadAsymmetric()),
            hashValue(MachineConfig::quadAsymmetric()));
  EXPECT_NE(hashValue(MachineConfig::quadAsymmetric()),
            hashValue(MachineConfig::octoAsymmetric()));
}

//===----------------------------------------------------------------------===//
// JSON emitter
//===----------------------------------------------------------------------===//

TEST(JsonTest, BuildsOrderedDocuments) {
  Json Root = Json::object();
  Root["b"] = 1;
  Root["a"] = "x";
  Root["nested"]["deep"] = true;
  Root["list"].push(1);
  Root["list"].push(2.5);
  Root["list"].push("s");
  EXPECT_EQ(Root.dump(0),
            "{\"b\":1,\"a\":\"x\",\"nested\":{\"deep\":true},"
            "\"list\":[1,2.5,\"s\"]}");
}

TEST(JsonTest, EscapesStrings) {
  Json J = std::string("a\"b\\c\nd\te\x01");
  EXPECT_EQ(J.dump(0), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(JsonTest, NumbersRoundTrip) {
  Json J = Json::object();
  J["big"] = 225641552188ull;
  J["neg"] = -42;
  J["frac"] = 0.125;
  EXPECT_EQ(J.dump(0), "{\"big\":225641552188,\"neg\":-42,\"frac\":0.125}");
}

//===----------------------------------------------------------------------===//
// CacheStore: persistent per-program store
//===----------------------------------------------------------------------===//

namespace {

/// Bitwise comparison of every numeric table of two suites: flat-image
/// cycle tables compared with memcmp over the raw doubles, so
/// round-trips are proven bit-identical, not just approximately equal.
void expectTablesBitIdentical(const PreparedSuite &A,
                              const PreparedSuite &B) {
  ASSERT_EQ(A.Flats.size(), B.Flats.size());
  for (size_t I = 0; I < A.Flats.size(); ++I) {
    const FlatImage &FA = *A.Flats[I];
    const FlatImage &FB = *B.Flats[I];
    ASSERT_EQ(FA.numBlocks(), FB.numBlocks());
    ASSERT_EQ(FA.configStride(), FB.configStride());
    size_t CycleBytes =
        static_cast<size_t>(FA.numBlocks()) * FA.configStride() *
        sizeof(double);
    EXPECT_EQ(0,
              std::memcmp(FA.cycleTable(), FB.cycleTable(), CycleBytes));
    // Block records are compared through their serialized byte streams:
    // field-exact, without touching the structs' (indeterminate)
    // padding bytes.
    BinaryWriter WA, WB;
    FA.serialize(WA);
    FB.serialize(WB);
    EXPECT_EQ(WA.buffer(), WB.buffer());
  }
}

} // namespace

// A suite written to the store entry by entry and loaded back must be
// bit-identical to the freshly prepared one — every mark, every cost
// sample, every flat record and cycle-table double — and must replay
// workloads with bit-identical results.
TEST(CacheStoreTest, RoundTripBitIdentical) {
  CacheStore Store(testCacheDir("exp_test_roundtrip.cache"));
  std::vector<Program> Programs = randomPrograms(31, 5);
  MachineConfig MC = MachineConfig::quadAsymmetric();

  TechniqueSpec Static = loopTechnique();
  Static.UseStaticTyping = true;
  for (const TechniqueSpec &Tech :
       {TechniqueSpec::baseline(), loopTechnique(), Static}) {
    PreparedSuite Fresh = prepareSuite(Programs, MC, Tech, 42);
    ASSERT_TRUE(saveSuite(Store, Programs, MC, Tech, 42, Fresh));

    PreparedSuite Reloaded;
    ASSERT_TRUE(loadSuite(Store, Programs, MC, Tech, 42, &Reloaded));
    Reloaded.Tuner = Tech.Tuner; // Callers stamp the tuner, as SuiteCache does.

    expectSuitesIdentical(Fresh, Reloaded);
    expectTablesBitIdentical(Fresh, Reloaded);

    Workload W = Workload::random(4, 64, Programs.size(), 9);
    RunResult FromFresh = runWorkload(Fresh, W, MC, SimConfig(), 15);
    RunResult FromDisk = runWorkload(Reloaded, W, MC, SimConfig(), 15);
    expectRunsIdentical(FromFresh, FromDisk);
  }
  EXPECT_EQ(Store.hits(), 3 * Programs.size());
  EXPECT_EQ(Store.writes(), 3 * Programs.size());
  EXPECT_EQ(Store.rejects(), 0u);
}

TEST(CacheStoreTest, VersionMismatchRejected) {
  CacheStore Store(testCacheDir("exp_test_version.cache"));
  std::vector<Program> Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();
  ASSERT_TRUE(saveSuite(Store, Programs, MC, Tech, 42,
                        prepareSuite(Programs, MC, Tech, 42)));

  // Bump the format-version field (bytes 4..7, after the magic) of the
  // first program's entry.
  std::string Path = entryPath(Store, Programs[0], MC, Tech, 42);
  std::string Bytes;
  ASSERT_TRUE(readFile(Path, Bytes));
  Bytes[4] = static_cast<char>(CacheStore::ProgFormatVersion + 1);
  ASSERT_TRUE(writeFileAtomic(Path, Bytes));

  EXPECT_FALSE(loadSuite(Store, Programs, MC, Tech, 42));
  EXPECT_EQ(Store.rejects(), 1u);
  EXPECT_EQ(Store.hits(), Programs.size() - 1);
}

TEST(CacheStoreTest, TruncatedAndCorruptFilesRejected) {
  CacheStore Store(testCacheDir("exp_test_corrupt.cache"));
  std::vector<Program> Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();
  ASSERT_TRUE(saveSuite(Store, Programs, MC, Tech, 42,
                        prepareSuite(Programs, MC, Tech, 42)));
  uint64_t Hash = CacheStore::hashProgram(Programs[0]);
  std::string Path = entryPath(Store, Programs[0], MC, Tech, 42);
  std::string Good;
  ASSERT_TRUE(readFile(Path, Good));

  // Truncation at several depths: inside the header, at the payload
  // boundary (the header is 64 bytes), and mid-payload.
  for (size_t Keep : {size_t(10), size_t(64), Good.size() / 2}) {
    ASSERT_TRUE(writeFileAtomic(Path, Good.substr(0, Keep)));
    EXPECT_TRUE(Store.loadProgram(Programs[0], Hash, MC, Tech, 42) ==
                nullptr)
        << "truncated to " << Keep << " bytes";
  }

  // A single flipped payload byte must fail the checksum.
  std::string Flipped = Good;
  Flipped[Good.size() - 7] ^= 0x20;
  ASSERT_TRUE(writeFileAtomic(Path, Flipped));
  EXPECT_TRUE(Store.loadProgram(Programs[0], Hash, MC, Tech, 42) ==
              nullptr);
  EXPECT_EQ(Store.rejects(), 4u);

  // The pristine bytes still load.
  ASSERT_TRUE(writeFileAtomic(Path, Good));
  EXPECT_TRUE(Store.loadProgram(Programs[0], Hash, MC, Tech, 42) != nullptr);
}

// --clean-cache's helper: only entries carrying a foreign format
// version are deleted; current entries and non-store files survive.
TEST(CacheStoreTest, CleanMismatchedVersionsRemovesOnlyStaleEntries) {
  CacheStore Store(testCacheDir("exp_test_clean.cache"));
  std::vector<Program> Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();
  ASSERT_TRUE(saveSuite(Store, Programs, MC, Tech, 42,
                        prepareSuite(Programs, MC, Tech, 42)));

  // A stale entry from a previous format version ("PBTP" + version 1),
  // and a foreign file that merely looks similar.
  std::string StalePath = Store.dir() + "/prog-00000000deadbeef.pbt";
  std::string Stale("PBTP\x01\x00\x00\x00stale-payload", 21);
  ASSERT_TRUE(writeFileAtomic(StalePath, Stale));
  std::string ForeignPath = Store.dir() + "/prog-0000000000000000.txt";
  ASSERT_TRUE(writeFileAtomic(ForeignPath, "not a store file"));

  EXPECT_EQ(Store.cleanMismatchedVersions(), 1u);

  std::string Bytes;
  EXPECT_FALSE(readFile(StalePath, Bytes)) << "stale entry must be gone";
  EXPECT_TRUE(readFile(ForeignPath, Bytes)) << "foreign file untouched";
  EXPECT_TRUE(loadSuite(Store, Programs, MC, Tech, 42))
      << "current-version entries untouched";
  std::remove(ForeignPath.c_str());
}

namespace {

/// Pins \p Path's mtime to \p SecondsAgo before now (the LRU clock
/// gc() sorts by).
void setFileAge(const std::string &Path, long SecondsAgo) {
  struct utimbuf Times;
  Times.actime = Times.modtime = std::time(nullptr) - SecondsAgo;
  ASSERT_EQ(::utime(Path.c_str(), &Times), 0) << Path;
}

uint64_t fileBytes(const std::string &Path) {
  std::string Bytes;
  return readFile(Path, Bytes) ? Bytes.size() : 0;
}

/// Every store entry file currently in \p Dir, sorted for
/// deterministic diffs.
std::vector<std::string> listEntryFiles(const std::string &Dir) {
  std::vector<std::string> Files;
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (const dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name.size() > 4 && Name.compare(Name.size() - 4, 4, ".pbt") == 0)
        Files.push_back(Dir + "/" + Name);
    }
    ::closedir(D);
  }
  std::sort(Files.begin(), Files.end());
  return Files;
}

uint64_t groupBytes(const std::vector<std::string> &Paths) {
  uint64_t N = 0;
  for (const std::string &P : Paths)
    N += fileBytes(P);
  return N;
}

/// Three distinct suites in a fresh GC-test store, oldest first. A
/// suite is a file *group* — one entry per program — and gc treats each
/// file as an entry, so each element holds all of one suite's files,
/// aged together: suite I's mtime is (3 - I) hours ago.
std::vector<std::vector<std::string>> populateGcStore(CacheStore &Store) {
  std::vector<Program> Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<std::vector<std::string>> Groups;
  std::vector<std::string> Before;
  for (uint32_t I = 0; I < 3; ++I) {
    TechniqueSpec Tech = loopTechnique();
    Tech.Transition.MinSize = 40 + I; // Distinct preparations.
    EXPECT_TRUE(saveSuite(Store, Programs, MC, Tech, 42,
                          prepareSuite(Programs, MC, Tech, 42)));
    std::vector<std::string> After = listEntryFiles(Store.dir());
    std::vector<std::string> Fresh;
    std::set_difference(After.begin(), After.end(), Before.begin(),
                        Before.end(), std::back_inserter(Fresh));
    for (const std::string &Path : Fresh)
      setFileAge(Path, (3 - I) * 3600L);
    Groups.push_back(std::move(Fresh));
    Before = std::move(After);
  }
  return Groups;
}

bool fileExists(const std::string &Path) {
  std::string Bytes;
  return readFile(Path, Bytes);
}

void expectGroup(const std::vector<std::string> &Paths, bool Present,
                 const char *Why) {
  for (const std::string &P : Paths)
    EXPECT_EQ(fileExists(P), Present) << P << ": " << Why;
}

} // namespace

// Size-bound GC evicts least-recently-used entries first and stops as
// soon as the store fits the budget. Eviction is per file, but mtimes
// move per suite (its entries age together), so a whole suite is the
// natural LRU victim.
TEST(CacheStoreTest, GcEvictsLeastRecentlyUsedBeyondSizeBudget) {
  CacheStore Store(testCacheDir("exp_test_gc_size.cache"));
  std::vector<std::vector<std::string>> Groups = populateGcStore(Store);
  ASSERT_EQ(Groups.size(), 3u);
  size_t TotalFiles = Groups[0].size() + Groups[1].size() + Groups[2].size();

  // Budget exactly fits the two newest suites: only the oldest group
  // (every one of its entries) goes.
  uint64_t Budget = groupBytes(Groups[1]) + groupBytes(Groups[2]);
  CacheStore::GcStats Stats = Store.gc(Budget);
  EXPECT_EQ(Stats.Scanned, TotalFiles);
  EXPECT_EQ(Stats.Evicted, Groups[0].size());
  EXPECT_GT(Stats.BytesEvicted, 0u);
  expectGroup(Groups[0], false, "LRU suite must be evicted");
  expectGroup(Groups[1], true, "newer suite survives");
  expectGroup(Groups[2], true, "newest suite survives");

  // An unbounded pass (no size, no age) evicts nothing.
  Stats = Store.gc(/*MaxBytes=*/0);
  EXPECT_EQ(Stats.Evicted, 0u);
  EXPECT_EQ(Stats.Scanned, TotalFiles - Groups[0].size());
}

// Age-bound GC evicts every entry older than the cutoff, even when the
// size budget is satisfied; foreign files are never touched.
TEST(CacheStoreTest, GcAgeBoundEvictsOldEntriesOnly) {
  CacheStore Store(testCacheDir("exp_test_gc_age.cache"));
  std::vector<std::vector<std::string>> Groups = populateGcStore(Store);
  std::string ForeignPath = Store.dir() + "/prog-0000000000000000.txt";
  ASSERT_TRUE(writeFileAtomic(ForeignPath, "not a store file"));

  // Cutoff at 2.5 hours: the 3-hour suite's entries go, the 2- and
  // 1-hour suites stay.
  CacheStore::GcStats Stats = Store.gc(/*MaxBytes=*/0,
                                       /*MaxAgeSeconds=*/2.5 * 3600);
  EXPECT_EQ(Stats.Evicted, Groups[0].size());
  expectGroup(Groups[0], false, "suite beyond the age cutoff evicted");
  expectGroup(Groups[1], true, "younger suite stays");
  expectGroup(Groups[2], true, "youngest suite stays");
  EXPECT_TRUE(fileExists(ForeignPath)) << "foreign file untouched";
  std::remove(ForeignPath.c_str());
}

// loadProgram() refreshes the mtime of every entry it serves, so
// loading a suite protects its whole group from the next GC pass — the
// property that makes mtime an LRU clock.
TEST(CacheStoreTest, LoadRefreshesLruRecency) {
  CacheStore Store(testCacheDir("exp_test_gc_lru.cache"));
  std::vector<std::vector<std::string>> Groups = populateGcStore(Store);

  // Touch the oldest suite through real loads.
  std::vector<Program> Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Oldest = loopTechnique();
  Oldest.Transition.MinSize = 40;
  ASSERT_TRUE(loadSuite(Store, Programs, MC, Oldest, 42));

  // A budget fitting two suites must now evict Groups[1] (MinSize 41,
  // the new LRU), not the freshly used Groups[0].
  uint64_t Budget = groupBytes(Groups[0]) + groupBytes(Groups[2]);
  CacheStore::GcStats Stats = Store.gc(Budget);
  EXPECT_EQ(Stats.Evicted, Groups[1].size());
  expectGroup(Groups[0], true, "recently hit suite survives");
  expectGroup(Groups[1], false, "unused suite is the LRU victim");
  expectGroup(Groups[2], true, "newest suite survives");
}

// A SuiteCache with an attached store serves cross-"process" requests
// (modeled as a second, cold SuiteCache over the same directory) from
// disk without re-running the static pipeline.
TEST(CacheStoreTest, SuiteCacheLoadThrough) {
  auto Store = std::make_shared<CacheStore>(
      testCacheDir("exp_test_loadthrough.cache"));
  TechniqueSpec Tech = loopTechnique(0.2);
  Tech.Transition.MinSize = 44;
  std::vector<Program> Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();

  SuiteCache First;
  First.setStore(Store);
  PreparedSuite Prepared = First.get(Programs, MC, Tech);
  EXPECT_EQ(First.prepared(), 1u);
  EXPECT_EQ(First.storeHits(), 0u);

  SuiteCache Second;
  Second.setStore(Store);
  PreparedSuite FromDisk = Second.get(Programs, MC, Tech);
  EXPECT_EQ(Second.misses(), 1u);   // Not in Second's memory...
  EXPECT_EQ(Second.storeHits(), 1u); // ...but served from disk...
  EXPECT_EQ(Second.prepared(), 0u);  // ...with no pipeline run.
  expectSuitesIdentical(Prepared, FromDisk);
  expectTablesBitIdentical(Prepared, FromDisk);

  // And a repeat request is a plain memory hit: the disk tier is only
  // consulted on memory misses.
  Second.get(Programs, MC, Tech);
  EXPECT_EQ(Second.hits(), 1u);
  EXPECT_EQ(Second.storeHits(), 1u);
}

//===----------------------------------------------------------------------===//
// Shared lab pool: the driver's byte-identity contract
//===----------------------------------------------------------------------===//

// The one-process driver resolves every experiment's labs through one
// process-wide pool, so a grid may be satisfied entirely from another
// experiment's warm caches. The artifact must not notice: this runs the
// same "experiment" cold (a fresh custom lab over the same suite and
// machine) and warm (the pool's lab, pre-warmed by a different grid)
// and requires byte-identical artifact JSON — the in-process version of
// the run-alone vs whole-registry BENCH_*.json comparison CI performs
// on the real driver.
TEST(HarnessTest, DriverSharedLabsByteIdenticalArtifacts) {
  auto RunExperiment = [](bool Cold) {
    ExperimentHarness H("pool_identity", "shared-pool identity check",
                        "none");
    Lab &L = Cold ? H.customLab(buildSuite(),
                                MachineConfig::quadAsymmetric())
                  : H.lab();
    SweepGrid G;
    G.Techniques = {loopTechnique(0.2), loopTechnique(0.05)};
    G.Workloads = {{/*Slots=*/4, /*Horizon=*/10, /*Seed=*/5,
                    /*JobsPerSlot=*/64}};
    SweepResult R = H.sweep(L, G);
    Table T({"technique", "throughput %"});
    for (const SweepCell &Cell : R.Cells)
      T.addRow({G.Techniques[Cell.Technique].label(),
                Table::fmt(R.throughputImprovement(Cell), 2)});
    H.table(T);
    return H.json().dump();
  };

  std::string Cold = RunExperiment(/*Cold=*/true);

  {
    // A different experiment warms the pool's lab first (baseline,
    // isolated runtimes, and one of the techniques above).
    ExperimentHarness Warmup("pool_warmup", "warmup", "none");
    SweepGrid G;
    G.Techniques = {loopTechnique(0.2)};
    G.Workloads = {{4, 10, 7, 64}};
    Warmup.sweep(Warmup.lab(), G);
  }
  Lab &Pooled =
      ExperimentHarness::labPool().lab(MachineConfig::quadAsymmetric());
  uint64_t HitsBefore = Pooled.cache().hits();
  std::string Warm = RunExperiment(/*Cold=*/false);

  EXPECT_EQ(Cold, Warm);

  // The warm run really did reuse the pool's caches.
  EXPECT_GT(Pooled.cache().hits(), HitsBefore);
}

// The driver's suite-cache summary reads the pool's totals(): a custom
// lab's preparations join them when its harness goes away, so a cold
// driver's prepared_programs counts every program it prepared.
TEST(HarnessTest, CustomLabCountersJoinPoolTotals) {
  LabPool &Pool = ExperimentHarness::labPool();
  SuiteCacheTotals Before = Pool.totals();
  std::vector<Program> Programs = smallSuite();
  {
    ExperimentHarness H("custom_totals", "custom-lab totals", "none");
    Lab &L = H.customLab(Programs, MachineConfig::quadAsymmetric());
    L.suite(loopTechnique());
    L.suite(loopTechnique(0.05)); // Tuner only: a memory hit.
    EXPECT_EQ(Pool.totals().MemoryHits, Before.MemoryHits);
  }
  // Each program was prepared, or served by a store when PBT_CACHE_DIR
  // names one.
  SuiteCacheTotals After = Pool.totals();
  EXPECT_EQ(After.PreparedPrograms + After.ProgramStoreHits -
                Before.PreparedPrograms - Before.ProgramStoreHits,
            Programs.size());
  EXPECT_EQ(After.Prepared + After.StoreHits - Before.Prepared -
                Before.StoreHits,
            1u);
  EXPECT_EQ(After.MemoryHits - Before.MemoryHits, 1u);
}

TEST(LabPoolTest, ConcurrentResolutionIsSafeAndDeduplicated) {
  // The pool is process-wide, so any thread may resolve a lab: lab()
  // must not race on the pool's map, and concurrent requests for one
  // machine must get ONE lab. (Labs themselves stay single-threaded:
  // the driver runs one experiment body at a time.)
  LabPool Pool;
  MachineConfig A = MachineConfig::quadAsymmetric();
  MachineConfig B = MachineConfig::quadAsymmetric();
  B.Name = "renamed-twin"; // Same structure, own lab (name-keyed).
  constexpr int NumThreads = 8;
  std::vector<Lab *> SeenA(NumThreads, nullptr);
  std::vector<Lab *> SeenB(NumThreads, nullptr);
  std::vector<std::thread> Threads;
  for (int I = 0; I < NumThreads; ++I)
    Threads.emplace_back([&, I] {
      SeenA[I] = &Pool.lab(A);
      SeenB[I] = &Pool.lab(B);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Pool.labs().size(), 2u);
  EXPECT_NE(SeenA[0], SeenB[0]);
  for (int I = 1; I < NumThreads; ++I) {
    EXPECT_EQ(SeenA[I], SeenA[0]);
    EXPECT_EQ(SeenB[I], SeenB[0]);
  }
}
