//===- tests/fastreplay_test.cpp - fused replay and streaming metrics -----===//
//
// The flat engine's O(1) charges must be invisible: on chain-heavy
// randomized programs (long mark-free jump runs between self-loops,
// calls, and marks) it stays bit-identical to the block-at-a-time
// reference interpreter, isolated and under contention. Also covers
// the hot-lane configuration-offset cache (must be invisible too), the
// P² streaming quantile sketch against exact percentiles on
// adversarial streams, the streaming metric accumulators against their
// exact twins, and the completion sink's O(1)-memory run path.
//
//===----------------------------------------------------------------------===//

#include "RunIdentity.h"

#include "core/Transitions.h"
#include "ir/IRBuilder.h"
#include "metrics/Fairness.h"
#include "metrics/Latency.h"
#include "sim/Machine.h"
#include "support/Binary.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "workload/Runner.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace pbt;

namespace {

/// Same generator family as tests/flatimage_test.cpp: random but
/// guaranteed-terminating, with jump runs for the chain builder.
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
      InstMix Mix =
          Memory
              ? InstMix::memory(
                    Count,
                    1u << (15 + static_cast<unsigned>(Gen.nextBelow(4))),
                    0.1 + 0.4 * Gen.nextDouble())
              : InstMix::compute(Count, 0.85 * Gen.nextDouble());
      B.appendMix(P, I, Mix);

      if (I == N - 1) {
        B.setRet(P, I);
        continue;
      }
      double Roll = Gen.nextDouble();
      if (Roll < (ChainHeavy ? 0.5 : 0.3)) {
        B.setJump(P, I, I + 1);
      } else if (Roll < 0.5) {
        uint32_t Other =
            I + 1 + static_cast<uint32_t>(Gen.nextBelow(N - I - 1));
        B.setCond(P, I, I + 1, Other, 0.1 + 0.8 * Gen.nextDouble());
      } else if (Roll < 0.8) {
        B.setLoop(P, I, I, I + 1,
                  20 + static_cast<uint32_t>(Gen.nextBelow(700)));
      } else if (Roll < 0.95 && P + 1 < NumProcs) {
        uint32_t Callee =
            P + 1 + static_cast<uint32_t>(Gen.nextBelow(NumProcs - P - 1));
        B.appendCall(P, I, Callee);
        B.setJump(P, I, I + 1);
      } else if (I >= 2) {
        B.setRet(P, I);
      } else {
        B.setJump(P, I, I + 1);
      }
    }
  }
  return B.take();
}

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

const Process &runAlone(Machine &M, const PreparedSuite &Suite,
                        uint64_t Seed) {
  uint32_t Pid = M.spawn(Suite.Images[0], Suite.Costs[0], Suite.Tuner, Seed,
                         -1, 0, Suite.Flats[0]);
  while (M.process(Pid).CompletionTime < 0)
    M.run(M.now() + 64);
  return M.process(Pid);
}

} // namespace

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
// P² streaming quantile sketch
//===----------------------------------------------------------------------===//

TEST(P2QuantileTest, ExactForFiveOrFewerSamples) {
  Rng Gen(5);
  for (double Pct : {10.0, 50.0, 90.0, 95.0, 99.0}) {
    for (size_t N = 1; N <= 5; ++N) {
      P2Quantile Sketch(Pct);
      std::vector<double> Sample;
      for (size_t I = 0; I < N; ++I) {
        double X = 100 * Gen.nextDouble();
        Sketch.add(X);
        Sample.push_back(X);
      }
      EXPECT_EQ(Sketch.value(), percentile(Sample, Pct))
          << "pct " << Pct << " n " << N;
    }
  }
}

TEST(P2QuantileTest, ConstantStreamIsExact) {
  P2Quantile Sketch(95);
  for (int I = 0; I < 10000; ++I)
    Sketch.add(7.25);
  EXPECT_EQ(Sketch.value(), 7.25);
  EXPECT_EQ(Sketch.count(), 10000u);
}

TEST(P2QuantileTest, SortedStreamWithinDocumentedTolerance) {
  // Monotone input is adversarial for marker-based sketches. Documented
  // tolerance: within 2% of the sample range of the exact percentile.
  for (bool Ascending : {true, false}) {
    P2Quantile P50(50), P95(95);
    std::vector<double> Sample;
    const int N = 10000;
    for (int I = 0; I < N; ++I) {
      double X = Ascending ? I : N - 1 - I;
      P50.add(X);
      P95.add(X);
      Sample.push_back(X);
    }
    double Range = N - 1;
    EXPECT_NEAR(P50.value(), percentile(Sample, 50), 0.02 * Range)
        << (Ascending ? "ascending" : "descending");
    EXPECT_NEAR(P95.value(), percentile(Sample, 95), 0.02 * Range)
        << (Ascending ? "ascending" : "descending");
  }
}

TEST(P2QuantileTest, BimodalStreamWithinDocumentedTolerance) {
  // Two far-apart modes (90% at 10, every 10th observation at 1000).
  // Documented tolerance: within 5% of the sample range.
  P2Quantile P50(50), P95(95);
  std::vector<double> Sample;
  for (int I = 0; I < 10000; ++I) {
    double X = (I % 10 == 9) ? 1000.0 : 10.0;
    P50.add(X);
    P95.add(X);
    Sample.push_back(X);
  }
  double Range = 990;
  EXPECT_NEAR(P50.value(), percentile(Sample, 50), 0.05 * Range);
  EXPECT_NEAR(P95.value(), percentile(Sample, 95), 0.05 * Range);
}

TEST(P2QuantileTest, UniformRandomStreamClose) {
  // The sketch's home turf: on i.i.d. samples the estimate lands within
  // 1% of the range.
  Rng Gen(99);
  P2Quantile P50(50), P95(95), P99(99);
  std::vector<double> Sample;
  for (int I = 0; I < 20000; ++I) {
    double X = 1000 * Gen.nextDouble();
    P50.add(X);
    P95.add(X);
    P99.add(X);
    Sample.push_back(X);
  }
  EXPECT_NEAR(P50.value(), percentile(Sample, 50), 10.0);
  EXPECT_NEAR(P95.value(), percentile(Sample, 95), 10.0);
  EXPECT_NEAR(P99.value(), percentile(Sample, 99), 10.0);
}

TEST(P2QuantileTest, DeterministicAcrossReplays) {
  // Identical observation sequences must produce bit-identical
  // estimates (streamed metrics of replayed runs are reproducible).
  Rng GenA(7), GenB(7);
  P2Quantile A(95), B(95);
  for (int I = 0; I < 5000; ++I) {
    A.add(GenA.nextDouble());
    B.add(GenB.nextDouble());
  }
  EXPECT_EQ(A.value(), B.value());
}

//===----------------------------------------------------------------------===//
// Streaming metrics vs exact twins
//===----------------------------------------------------------------------===//

namespace {

/// One contended run with completions and slowdown oracles, shared by
/// the streaming-metrics tests.
RunResult metricsRun(const MachineConfig &MC, std::vector<double> &Iso) {
  static std::vector<Program> Programs = [] {
    std::vector<Program> P;
    for (uint64_t Seed : {51ull, 52ull, 53ull})
      P.push_back(randomProgram(Seed));
    return P;
  }();
  PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
  Iso = isolatedRuntimes(Programs, MC);
  Workload W = Workload::random(6, 64, Programs.size(), 13);
  return runWorkload(Suite, W, MC, SimConfig(), 25, Iso);
}

} // namespace

TEST(StreamingMetrics, LatencyMatchesExactWithinSketchTolerance) {
  std::vector<double> Iso;
  MachineConfig MC = MachineConfig::quadAsymmetric();
  RunResult Run = metricsRun(MC, Iso);
  ASSERT_GT(Run.Completed.size(), 20u);

  LatencyMetrics Exact = computeLatency(Run, MC);
  LatencyMetrics Stream =
      computeLatency(Run, MC, PercentileMode::Streaming);

  // Counts, running sums, maxima, and throughput are computed the same
  // way in both modes: identical.
  EXPECT_EQ(Exact.Jobs, Stream.Jobs);
  EXPECT_EQ(Exact.MeanTurnaround, Stream.MeanTurnaround);
  EXPECT_EQ(Exact.MeanSlowdown, Stream.MeanSlowdown);
  EXPECT_EQ(Exact.MaxSlowdown, Stream.MaxSlowdown);
  EXPECT_EQ(Exact.JobsPerMegacycle, Stream.JobsPerMegacycle);
  // Percentiles come from the sketch: close, not identical. Tolerance
  // is 10% of the turnaround spread (small samples sit between
  // markers).
  double Spread = Exact.P99Turnaround - Exact.P50Turnaround + 1e-12;
  EXPECT_NEAR(Exact.P50Turnaround, Stream.P50Turnaround, 0.2 * Spread);
  EXPECT_NEAR(Exact.P95Turnaround, Stream.P95Turnaround, 0.2 * Spread);
  EXPECT_NEAR(Exact.P99Turnaround, Stream.P99Turnaround, 0.2 * Spread);
  EXPECT_GT(Stream.P95Turnaround, 0.0);
}

TEST(StreamingMetrics, FairnessMatchesExactWithinSketchTolerance) {
  std::vector<double> Iso;
  MachineConfig MC = MachineConfig::quadAsymmetric();
  RunResult Run = metricsRun(MC, Iso);
  ASSERT_GT(Run.Completed.size(), 20u);

  FairnessMetrics Exact = computeFairness(Run.Completed);
  FairnessMetrics Stream =
      computeFairness(Run.Completed, PercentileMode::Streaming);
  EXPECT_EQ(Exact.Jobs, Stream.Jobs);
  EXPECT_EQ(Exact.MaxFlow, Stream.MaxFlow);
  EXPECT_EQ(Exact.MaxStretch, Stream.MaxStretch);
  EXPECT_EQ(Exact.AvgProcessTime, Stream.AvgProcessTime);
  EXPECT_NEAR(Exact.P95Flow, Stream.P95Flow, 0.2 * Exact.MaxFlow);
}

//===----------------------------------------------------------------------===//
// Completion sink: the O(1)-memory run path
//===----------------------------------------------------------------------===//

TEST(CompletionSink, SinkRunBuffersNothingAndLosesNoJob) {
  std::vector<Program> Programs;
  for (uint64_t Seed : {61ull, 62ull})
    Programs.push_back(randomProgram(Seed));
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
  Workload W = Workload::random(5, 48, Programs.size(), 19);
  SimConfig SC;

  RunResult Buffered = runWorkload(Suite, W, MC, SC, 25);
  ASSERT_GT(Buffered.Completed.size(), 0u);

  std::vector<CompletedJob> Sunk;
  RunResult Streamed =
      runWorkload(Suite, W, MC, SC, 25, {}, SchedulerSpec(),
                  ScenarioSpec(),
                  [&Sunk](const CompletedJob &Job) { Sunk.push_back(Job); });

  // The sink run buffers nothing but still counts completions, and the
  // simulation itself is bit-identical.
  EXPECT_TRUE(Streamed.Completed.empty());
  EXPECT_EQ(Streamed.CompletedCount, Buffered.Completed.size());
  EXPECT_EQ(Streamed.CompletedCount, Sunk.size());
  EXPECT_EQ(Buffered.CompletedCount, Buffered.Completed.size());
  EXPECT_EQ(Streamed.InstructionsRetired, Buffered.InstructionsRetired);
  EXPECT_EQ(Streamed.TotalCycles, Buffered.TotalCycles);

  // The sink delivers machine exit order; canonically re-sorted it is
  // the exact same job multiset as the buffered run's Completed.
  auto Canonical = [](const CompletedJob &A, const CompletedJob &B) {
    if (A.Completion != B.Completion)
      return A.Completion < B.Completion;
    if (A.Slot != B.Slot)
      return A.Slot < B.Slot;
    if (A.Arrival != B.Arrival)
      return A.Arrival < B.Arrival;
    return A.Bench < B.Bench;
  };
  std::sort(Sunk.begin(), Sunk.end(), Canonical);
  std::vector<CompletedJob> Expected = Buffered.Completed;
  std::sort(Expected.begin(), Expected.end(), Canonical);
  for (size_t I = 0; I < Sunk.size(); ++I) {
    EXPECT_EQ(Sunk[I].Bench, Expected[I].Bench);
    EXPECT_EQ(Sunk[I].Slot, Expected[I].Slot);
    EXPECT_EQ(Sunk[I].Arrival, Expected[I].Arrival);
    EXPECT_EQ(Sunk[I].Completion, Expected[I].Completion);
    expectStatsIdentical(Sunk[I].Stats, Expected[I].Stats);
  }
}

TEST(CompletionSink, FeedsStreamingAccumulatorsEndToEnd) {
  // The composed O(1) pipeline: sink -> streaming accumulators, no
  // buffered completions anywhere. Order-insensitive fields must equal
  // the buffered exact metrics; sketched percentiles must be close.
  std::vector<Program> Programs = {randomProgram(71), randomProgram(72)};
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
  std::vector<double> Iso = isolatedRuntimes(Programs, MC);
  Workload W = Workload::random(5, 48, Programs.size(), 23);
  SimConfig SC;

  RunResult Buffered = runWorkload(Suite, W, MC, SC, 25, Iso);
  ASSERT_GT(Buffered.Completed.size(), 10u);
  LatencyMetrics Exact = computeLatency(Buffered, MC);
  FairnessMetrics ExactFair = computeFairness(Buffered.Completed);

  LatencyAccumulator Lat;
  FairnessAccumulator Fair;
  RunResult Streamed = runWorkload(
      Suite, W, MC, SC, 25, Iso, SchedulerSpec(), ScenarioSpec(),
      [&](const CompletedJob &Job) {
        Lat.add(Job);
        Fair.add(Job);
      });
  EXPECT_TRUE(Streamed.Completed.empty());
  EXPECT_EQ(Lat.jobs(), Buffered.Completed.size());

  LatencyMetrics Stream = Lat.finish(Streamed.Horizon, MC);
  FairnessMetrics StreamFair = Fair.finish();
  EXPECT_EQ(Stream.Jobs, Exact.Jobs);
  EXPECT_EQ(Stream.MaxSlowdown, Exact.MaxSlowdown);
  EXPECT_EQ(Stream.JobsPerMegacycle, Exact.JobsPerMegacycle);
  // Sums fold in exit order, not canonical order: identical value up
  // to FP reassociation of a few dozen additions.
  EXPECT_NEAR(Stream.MeanTurnaround, Exact.MeanTurnaround,
              1e-9 * Exact.MeanTurnaround);
  double Spread = Exact.P99Turnaround - Exact.P50Turnaround + 1e-12;
  EXPECT_NEAR(Stream.P95Turnaround, Exact.P95Turnaround, 0.25 * Spread);
  EXPECT_EQ(StreamFair.MaxFlow, ExactFair.MaxFlow);
  EXPECT_EQ(StreamFair.MaxStretch, ExactFair.MaxStretch);
  EXPECT_NEAR(StreamFair.AvgProcessTime, ExactFair.AvgProcessTime,
              1e-9 * ExactFair.AvgProcessTime);
  EXPECT_NEAR(StreamFair.P95Flow, ExactFair.P95Flow,
              0.25 * ExactFair.MaxFlow);
}

//===----------------------------------------------------------------------===//
// Mergeable t-digest sketch (the sharded fabric's percentile carrier)
//===----------------------------------------------------------------------===//

namespace {

std::string digestBytes(const TDigest &D) {
  BinaryWriter W;
  D.serialize(W);
  return W.buffer();
}

/// Synthetic completed jobs for the accumulator merge tests: no
/// simulation, just a deterministic stream with a slowdown oracle.
std::vector<CompletedJob> syntheticJobs(size_t N, uint64_t Seed) {
  Rng Gen(Seed);
  std::vector<CompletedJob> Jobs;
  for (size_t I = 0; I < N; ++I) {
    CompletedJob J;
    J.Bench = static_cast<uint32_t>(Gen.next() % 5);
    J.Slot = static_cast<int32_t>(I % 8);
    J.Arrival = 0.01 * static_cast<double>(Gen.next() % 1000);
    J.Admitted = J.Arrival;
    J.Completion =
        J.Arrival + 0.1 + 0.01 * static_cast<double>(Gen.next() % 3000);
    J.Isolated = 0.05 + 0.001 * static_cast<double>(Gen.next() % 500);
    J.Stats.CpuSeconds = 0.05 + 0.001 * static_cast<double>(Gen.next() % 200);
    Jobs.push_back(J);
  }
  return Jobs;
}

} // namespace

// Below 2 x Compression observations no centroids ever merge, so the
// digest IS the sample and quantile() reduces to the exact type-7
// percentile — the regime every per-shard sweep sketch lives in.
TEST(TDigestTest, ExactBelowCompactionThreshold) {
  Rng Gen(31);
  TDigest D;
  std::vector<double> Sample;
  for (int I = 0; I < 500; ++I) {
    double X = 100 * Gen.nextDouble();
    D.add(X);
    Sample.push_back(X);
  }
  ASSERT_EQ(D.count(), 500u);
  for (double Pct : {1.0, 25.0, 50.0, 90.0, 95.0, 99.0})
    EXPECT_EQ(D.percentile(Pct), percentile(Sample, Pct)) << "pct " << Pct;
}

// The digest is a pure function of the observation sequence: replaying
// the stream reproduces the serialized centroid list byte for byte.
TEST(TDigestTest, DeterministicAcrossReplays) {
  std::string First;
  for (int Round = 0; Round < 2; ++Round) {
    Rng Gen(77);
    TDigest D;
    for (int I = 0; I < 10000; ++I)
      D.add(1000 * Gen.nextDouble());
    if (Round == 0)
      First = digestBytes(D);
    else
      EXPECT_EQ(digestBytes(D), First);
  }
}

// merged() gathers, sorts, and compacts once, so any permutation of the
// same parts produces a bit-identical digest — the property that lets
// the fabric merge shard sketches without prescribing launch order.
TEST(TDigestTest, MergeIsPermutationIndependent) {
  Rng Gen(41);
  std::vector<TDigest> Parts(4);
  for (int I = 0; I < 8000; ++I)
    Parts[static_cast<size_t>(I) % 4].add(500 * Gen.nextDouble());
  std::vector<const TDigest *> Order = {&Parts[0], &Parts[1], &Parts[2],
                                        &Parts[3]};
  TDigest Canonical = TDigest::merged(Order);
  std::string CanonicalBytes = digestBytes(Canonical);
  std::vector<const TDigest *> Shuffled = {&Parts[2], &Parts[0], &Parts[3],
                                           &Parts[1]};
  EXPECT_EQ(digestBytes(TDigest::merged(Shuffled)), CanonicalBytes);
  std::vector<const TDigest *> Reversed = {&Parts[3], &Parts[2], &Parts[1],
                                           &Parts[0]};
  EXPECT_EQ(digestBytes(TDigest::merged(Reversed)), CanonicalBytes);
}

// A single-part merge is an identical copy, never a re-compaction —
// merging a 1-shard fabric cannot perturb its sketch.
TEST(TDigestTest, SingleInputMergeIsIdentity) {
  Rng Gen(43);
  TDigest D;
  for (int I = 0; I < 3000; ++I)
    D.add(Gen.nextDouble());
  TDigest Copy = TDigest::merged({&D});
  EXPECT_EQ(digestBytes(Copy), digestBytes(D));
  EXPECT_EQ(Copy.quantile(0.5), D.quantile(0.5));
}

// Documented tolerance on large streams: within 1% of the sample range
// at the median, tails near-exact (extremes survive as singletons).
TEST(TDigestTest, LargeStreamWithinDocumentedTolerance) {
  Rng Gen(47);
  TDigest D;
  std::vector<double> Sample;
  for (int I = 0; I < 20000; ++I) {
    double X = 100 * Gen.nextDouble();
    D.add(X);
    Sample.push_back(X);
  }
  double Range = 100;
  for (double Pct : {50.0, 90.0, 95.0, 99.0})
    EXPECT_NEAR(D.percentile(Pct), percentile(Sample, Pct), 0.01 * Range)
        << "pct " << Pct;
  // The extremes are exact: tail centroids stay singletons.
  std::sort(Sample.begin(), Sample.end());
  EXPECT_EQ(D.quantile(0.0), Sample.front());
  EXPECT_EQ(D.quantile(1.0), Sample.back());
}

TEST(TDigestTest, SerializeRoundTripsBitExactly) {
  Rng Gen(53);
  TDigest D;
  for (int I = 0; I < 5000; ++I)
    D.add(Gen.nextDouble() * 1e6);
  std::string Bytes = digestBytes(D);
  BinaryReader R(Bytes);
  TDigest Restored;
  ASSERT_TRUE(Restored.deserialize(R));
  EXPECT_EQ(R.remaining(), 0u);
  EXPECT_EQ(digestBytes(Restored), Bytes);
  for (double Q : {0.05, 0.5, 0.95, 0.99})
    EXPECT_EQ(Restored.quantile(Q), D.quantile(Q));
}

// deserialize enforces the digest invariants, not just the wire
// format: a crafted or corrupt-but-checksummed stream with an
// oversized compression (add() sizes its buffer as 2 x Compression),
// a Total inconsistent with the centroid weight mass, or non-positive
// weights must be rejected, never loaded as a silently skewed digest.
TEST(TDigestTest, DeserializeRejectsInvariantViolations) {
  auto Rejects = [](double Compression, double Total,
                    std::vector<std::pair<double, double>> Centroids) {
    BinaryWriter W;
    W.f64(Compression);
    W.f64(Total);
    W.u32(static_cast<uint32_t>(Centroids.size()));
    for (const auto &C : Centroids) {
      W.f64(C.first);  // mean
      W.f64(C.second); // weight
    }
    BinaryReader R(W.buffer());
    TDigest D;
    return !D.deserialize(R);
  };
  EXPECT_FALSE(Rejects(256, 3, {{1, 1}, {2, 1}, {3, 1}})); // sane: loads
  EXPECT_TRUE(Rejects(1e9, 3, {{1, 1}, {2, 1}, {3, 1}}));  // huge compression
  EXPECT_TRUE(Rejects(4, 3, {{1, 1}, {2, 1}, {3, 1}}));    // undersized
  EXPECT_TRUE(Rejects(256, 5, {{1, 1}, {2, 1}, {3, 1}}));  // Total > mass
  EXPECT_TRUE(Rejects(256, 2, {{1, 1}, {2, 1}, {3, 1}}));  // Total < mass
  EXPECT_TRUE(Rejects(256, 1, {{1, 0}, {2, 1}}));          // zero weight
  EXPECT_TRUE(Rejects(256, 0, {{1, -1}, {2, 1}}));         // negative weight
  EXPECT_TRUE(Rejects(256, 3, {}));                        // Total, no mass
}

//===----------------------------------------------------------------------===//
// Mergeable metric accumulators (shard manifests -> BENCH_merge.json)
//===----------------------------------------------------------------------===//

// Four shard-sized parts merged in canonical order reproduce the
// single-stream accumulator: counts and maxima bit-equal, sums equal up
// to FP reassociation, percentiles bit-equal in the exact regime.
TEST(MergeableAccumulatorTest, LatencyPartsMergeToSingleStream) {
  std::vector<CompletedJob> Jobs = syntheticJobs(400, 99);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  LatencyAccumulator Single;
  std::vector<LatencyAccumulator> Parts(4);
  for (size_t I = 0; I < Jobs.size(); ++I) {
    Single.add(Jobs[I]);
    Parts[I * 4 / Jobs.size()].add(Jobs[I]); // contiguous quarters
  }
  LatencyAccumulator Merged = LatencyAccumulator::merged(Parts);
  LatencyMetrics A = Single.finish(100, MC);
  LatencyMetrics B = Merged.finish(100, MC);
  EXPECT_EQ(A.Jobs, B.Jobs);
  EXPECT_EQ(A.MaxSlowdown, B.MaxSlowdown);
  EXPECT_EQ(A.JobsPerMegacycle, B.JobsPerMegacycle);
  EXPECT_NEAR(A.MeanTurnaround, B.MeanTurnaround, 1e-9);
  EXPECT_NEAR(A.MeanSlowdown, B.MeanSlowdown, 1e-9);
  // 400 observations: every digest is still exact, so the merged
  // percentiles equal the single-stream ones bit for bit.
  EXPECT_EQ(A.P50Turnaround, B.P50Turnaround);
  EXPECT_EQ(A.P95Turnaround, B.P95Turnaround);
  EXPECT_EQ(A.P99Turnaround, B.P99Turnaround);
  EXPECT_EQ(A.P95Slowdown, B.P95Slowdown);
  // Determinism: merging the same parts again is bit-identical.
  LatencyMetrics C = LatencyAccumulator::merged(Parts).finish(100, MC);
  EXPECT_EQ(B.MeanTurnaround, C.MeanTurnaround);
  EXPECT_EQ(B.P95Turnaround, C.P95Turnaround);
  // Single-part merge is the identity.
  LatencyMetrics D =
      LatencyAccumulator::merged({Single}).finish(100, MC);
  EXPECT_EQ(A.MeanTurnaround, D.MeanTurnaround);
  EXPECT_EQ(A.P99Turnaround, D.P99Turnaround);
}

TEST(MergeableAccumulatorTest, FairnessPartsMergeToSingleStream) {
  std::vector<CompletedJob> Jobs = syntheticJobs(400, 101);
  FairnessAccumulator Single;
  std::vector<FairnessAccumulator> Parts(4);
  for (size_t I = 0; I < Jobs.size(); ++I) {
    Single.add(Jobs[I]);
    Parts[I * 4 / Jobs.size()].add(Jobs[I]);
  }
  FairnessMetrics A = Single.finish();
  FairnessMetrics B = FairnessAccumulator::merged(Parts).finish();
  EXPECT_EQ(A.Jobs, B.Jobs);
  EXPECT_EQ(A.MaxFlow, B.MaxFlow);
  EXPECT_EQ(A.MaxStretch, B.MaxStretch);
  EXPECT_NEAR(A.AvgProcessTime, B.AvgProcessTime, 1e-9);
  EXPECT_EQ(A.P95Flow, B.P95Flow); // exact regime
  FairnessMetrics C = FairnessAccumulator::merged({Single}).finish();
  EXPECT_EQ(A.MaxFlow, C.MaxFlow);
  EXPECT_EQ(A.P95Flow, C.P95Flow);
}

// Accumulators round-trip through their manifest serialization
// bit-exactly: the restored accumulator re-serializes to the same
// bytes and finishes to the same metrics.
TEST(MergeableAccumulatorTest, SerializeRoundTripsBitExactly) {
  std::vector<CompletedJob> Jobs = syntheticJobs(1000, 103);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  LatencyAccumulator Lat;
  FairnessAccumulator Fair;
  for (const CompletedJob &J : Jobs) {
    Lat.add(J);
    Fair.add(J);
  }
  BinaryWriter W;
  Lat.serialize(W);
  Fair.serialize(W);
  BinaryReader R(W.buffer());
  LatencyAccumulator Lat2;
  FairnessAccumulator Fair2;
  ASSERT_TRUE(Lat2.deserialize(R));
  ASSERT_TRUE(Fair2.deserialize(R));
  EXPECT_EQ(R.remaining(), 0u);
  BinaryWriter W2;
  Lat2.serialize(W2);
  Fair2.serialize(W2);
  EXPECT_EQ(W2.buffer(), W.buffer());
  LatencyMetrics A = Lat.finish(50, MC);
  LatencyMetrics B = Lat2.finish(50, MC);
  EXPECT_EQ(A.MeanTurnaround, B.MeanTurnaround);
  EXPECT_EQ(A.P95Turnaround, B.P95Turnaround);
  EXPECT_EQ(Fair.finish().P95Flow, Fair2.finish().P95Flow);
}
