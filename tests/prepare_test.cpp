//===- tests/prepare_test.cpp - preparation pipeline & self-verification --===//
//
// The static preparation pipeline and its self-verification:
// prepareSuite's output is pinned by digest, every stage runs once per
// program it applies to, verify-IR leaves output untouched, and
// verifyPrep / verifyPrepared accept every well-formed preparation and
// reject each documented class of broken state.

#include "analysis/PassManager.h"

#include "sim/CostModel.h"
#include "sim/FlatImage.h"
#include "support/Binary.h"
#include "support/Hashing.h"
#include "support/Rng.h"
#include "workload/Benchmarks.h"
#include "workload/Runner.h"

#include <gtest/gtest.h>

#include <cstring>
#include <ios>

using namespace pbt;

namespace {

/// Randomized benchmark programs, same generator shape as
/// tests/exp_test.cpp: multi-phase bodies, callee phases, cold code.
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

TechniqueSpec loopTechnique() {
  TransitionConfig TC;
  TC.Strat = Strategy::Loop;
  TC.MinSize = 45;
  TunerConfig TU;
  TU.IpcDelta = 0.2;
  return TechniqueSpec::tuned(TC, TU);
}

/// Static k-means typing with clustering error: the technique that runs
/// every stage, error-inject included.
TechniqueSpec staticWithError(double TypingError) {
  TechniqueSpec Static = loopTechnique();
  Static.UseStaticTyping = true;
  Static.TypingError = TypingError;
  return Static;
}

/// The pinned techniques, one per class: the baseline, the oracle-typed
/// loop and basic-block techniques, and static typing with two
/// clustering-error rates (the path that runs every stage).
std::vector<TechniqueSpec> pinTechniques() {
  TechniqueSpec BB = loopTechnique();
  BB.Transition.Strat = Strategy::BasicBlock;
  BB.Transition.MinSize = 15;
  return {TechniqueSpec::baseline(), loopTechnique(), BB,
          staticWithError(0.25), staticWithError(0.15)};
}

/// FNV-1a digest of everything that makes up a prepared suite: each
/// program's name, marks and instrumented size, its cost tables, and its
/// serialized flat image (which carries the cycle and chain tables).
uint64_t suiteDigest(const PreparedSuite &Suite) {
  BinaryWriter W;
  for (size_t I = 0; I < Suite.Images.size(); ++I) {
    const InstrumentedProgram &IP = *Suite.Images[I];
    W.str(Suite.Names[I]);
    W.u64(IP.marks().size());
    for (const PhaseMark &M : IP.marks()) {
      W.u32(M.Proc);
      W.u32(M.Block);
      W.u32(M.SuccIndex);
      W.u8(static_cast<uint8_t>(M.Point));
      W.u32(M.PhaseType);
    }
    W.u64(IP.instrumentedByteSize());
    Suite.Costs[I]->serializeTables(W);
    Suite.Flats[I]->serialize(W);
  }
  return hashString(W.buffer());
}

/// Restores the process-wide verify-IR toggle on scope exit, so tests
/// that flip it cannot leak into later tests of the same binary.
struct VerifyIRGuard {
  bool Saved;
  VerifyIRGuard() : Saved(verifyIREnabled()) {}
  ~VerifyIRGuard() { setVerifyIR(Saved); }
};

/// Programs stage \p Name has run on so far in this process.
uint64_t stagePrograms(const PipelineStats &Stats, const char *Name) {
  for (const PassStats &P : Stats.Passes)
    if (P.Name == Name)
      return P.Programs;
  return 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// Digest pins: prepared output is fixed across commits
//===----------------------------------------------------------------------===//

// Every prepared byte of a grid of suites, pinned. The digests were
// taken when prepareSuite was proven bit-identical to a second,
// monolithic preparation path, so they carry that guarantee forward. A
// change that alters prepared artifacts must update this table in a
// reviewed edit and give its reason in CHANGES.md. The digests assume
// IEEE-754 doubles without floating-point contraction (the default
// x86-64 build); a target that fuses multiply-adds prepares different
// cost tables.
TEST(PreparePins, DigestsMatchPinnedValues) {
  struct Row {
    uint64_t ProgramSeed;
    unsigned Count;
    size_t Tech; ///< Index into pinTechniques().
    uint64_t TypingSeed;
    uint64_t Digest;
  };
  const Row Pins[] = {
      {3, 6, 0, 42, 0x5a49e5ccbc357f01ull},     // Linux
      {3, 6, 1, 42, 0x2be78cbd8de8c2deull},     // Loop[45]
      {3, 6, 2, 42, 0x632133fd2d606886ull},     // BB[15,0]
      {3, 6, 3, 42, 0x353d21f5e35c1481ull},     // Loop[45]+static+err25%
      {101, 6, 0, 42, 0x7d382951bf742aaeull},   // Linux
      {101, 6, 1, 42, 0x83666f2814afafe3ull},   // Loop[45]
      {101, 6, 2, 42, 0xdbc9d26f7eed41d6ull},   // BB[15,0]
      {101, 6, 3, 42, 0x1cd35e1859000c3aull},   // Loop[45]+static+err25%
      {17, 5, 4, 7, 0xc04f5fcf4fb17c07ull},     // Loop[45]+static+err15%
      {17, 5, 4, 42, 0x4d2cbc2f831c1c35ull},    // Loop[45]+static+err15%
      {17, 5, 4, 1234, 0x91e2c0ad260b8404ull},  // Loop[45]+static+err15%
  };
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<TechniqueSpec> Techniques = pinTechniques();
  for (const Row &R : Pins) {
    std::vector<Program> Programs = randomPrograms(R.ProgramSeed, R.Count);
    const TechniqueSpec &Tech = Techniques[R.Tech];
    uint64_t Digest =
        suiteDigest(prepareSuite(Programs, MC, Tech, R.TypingSeed));
    EXPECT_EQ(Digest, R.Digest)
        << "program seed " << R.ProgramSeed << ", " << Tech.label()
        << ", typing seed " << R.TypingSeed << ": digest 0x" << std::hex
        << Digest;
  }
}

// Turning the verification sweep on must never perturb pipeline output:
// verify-IR is read-only analysis.
TEST(PreparePins, VerifyIRDoesNotPerturbOutput) {
  VerifyIRGuard Guard;
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<Program> Programs = randomPrograms(29, 4);
  TechniqueSpec Tech = loopTechnique();

  setVerifyIR(false);
  uint64_t Plain = suiteDigest(prepareSuite(Programs, MC, Tech, 42));
  setVerifyIR(true);
  uint64_t Verified = suiteDigest(prepareSuite(Programs, MC, Tech, 42));
  EXPECT_EQ(Plain, Verified);
}

//===----------------------------------------------------------------------===//
// Stage loop: per-stage program counts
//===----------------------------------------------------------------------===//

// Each stage runs once on every program it applies to, and one
// preparation grows the cumulative stats by exactly its own counts. The
// baseline skips typing and error-inject; error-inject runs only with a
// nonzero typing error; under verify-IR the sweep follows every stage
// that ran.
TEST(PrepareStages, EachStageRunsOncePerProgram) {
  static const char *const Order[] = {"cost-model",  "typing",
                                      "error-inject", "transitions",
                                      "instrument",  "flatten"};
  struct Row {
    TechniqueSpec Tech;
    bool VerifyIR;
    /// Whether each stage of Order runs.
    bool Runs[6];
  };
  const Row Rows[] = {
      {loopTechnique(), false, {true, true, false, true, true, true}},
      {TechniqueSpec::baseline(), false, {true, false, false, true, true, true}},
      {staticWithError(0.3), false, {true, true, true, true, true, true}},
      {loopTechnique(), true, {true, true, false, true, true, true}},
  };
  VerifyIRGuard Guard;
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<Program> Programs = randomPrograms(11, 5);
  const uint64_t N = Programs.size();

  for (const Row &R : Rows) {
    SCOPED_TRACE(R.Tech.label() + (R.VerifyIR ? " under verify-IR" : ""));
    setVerifyIR(R.VerifyIR);
    PipelineStats Before = cumulativePipelineStats();
    std::vector<PreparedProgram> Prepared =
        preparePrograms(Programs, MC, R.Tech, 42);
    PipelineStats After = cumulativePipelineStats();

    ASSERT_GE(After.Passes.size(), 6u);
    uint64_t StagesRun = 0;
    for (size_t S = 0; S < 6; ++S) {
      EXPECT_EQ(After.Passes[S].Name, Order[S]);
      EXPECT_EQ(stagePrograms(After, Order[S]) -
                    stagePrograms(Before, Order[S]),
                R.Runs[S] ? N : 0)
          << Order[S];
      StagesRun += R.Runs[S];
    }
    EXPECT_EQ(stagePrograms(After, "verify") - stagePrograms(Before, "verify"),
              R.VerifyIR ? StagesRun * N : 0);
    if (R.VerifyIR) {
      ASSERT_EQ(After.Passes.size(), 7u);
      EXPECT_EQ(After.Passes.back().Name, "verify");
    }

    // Every program's prepared state is complete and verifies.
    for (size_t I = 0; I < N; ++I) {
      ProgramPrep PC;
      PC.Prog = &Programs[I];
      PC.Cost = Prepared[I].Cost;
      PC.Image = Prepared[I].Image;
      PC.Flat = Prepared[I].Flat;
      std::string Err;
      EXPECT_TRUE(PC.Cost && PC.Image && PC.Flat);
      EXPECT_TRUE(verifyPrep(PC, &R.Tech, &Err)) << Err;
    }
  }
}

//===----------------------------------------------------------------------===//
// verifyPrep: negative tests over deliberately broken state
//===----------------------------------------------------------------------===//

namespace {

/// Fully prepared programs plus the technique they were prepared for —
/// the healthy baseline each negative test then breaks.
struct PreparedFixture {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();
  std::vector<Program> Programs = randomPrograms(53, 2);
  std::vector<PreparedProgram> Prepared =
      preparePrograms(Programs, MC, Tech, 42);

  /// The prepared state of program \p I as a ProgramPrep.
  ProgramPrep prep(size_t I) const {
    ProgramPrep PC;
    PC.Prog = &Programs[I];
    PC.Cost = Prepared[I].Cost;
    PC.Image = Prepared[I].Image;
    PC.Flat = Prepared[I].Flat;
    return PC;
  }
};

void expectRejected(const ProgramPrep &PC, const TechniqueSpec *Tech,
                    const char *ExpectedFragment) {
  std::string Err;
  EXPECT_FALSE(verifyPrep(PC, Tech, &Err));
  EXPECT_NE(Err.find(ExpectedFragment), std::string::npos)
      << "diagnostic was: " << Err;
}

} // namespace

TEST(VerifyPass, AcceptsHealthyPreparedState) {
  PreparedFixture F;
  for (size_t I = 0; I < F.Programs.size(); ++I) {
    std::string Err;
    EXPECT_TRUE(verifyPrep(F.prep(I), &F.Tech, &Err)) << Err;
  }
}

TEST(VerifyPass, RejectsEmptyPrep) {
  PreparedFixture F;
  ProgramPrep Empty;
  expectRejected(Empty, &F.Tech, "no program to verify");
}

TEST(VerifyPass, RejectsZeroTypeTyping) {
  PreparedFixture F;
  ProgramPrep PC = F.prep(0);
  PC.Typed = true; // Typing left default-constructed: zero types.
  expectRejected(PC, &F.Tech, "typing has zero types");
}

TEST(VerifyPass, RejectsTypingShapeMismatch) {
  PreparedFixture F;
  ProgramPrep PC = F.prep(0);
  PC.Typed = true;
  PC.Typing.NumTypes = 2;
  // One row too few: the typing does not cover every procedure.
  PC.Typing.TypeOf.resize(F.Programs[0].Procs.size() - 1);
  expectRejected(PC, &F.Tech, "typing proc count mismatch");

  // Right row count, one row the wrong width.
  PC.Typing.TypeOf.assign(F.Programs[0].Procs.size(), {});
  for (size_t P = 0; P < F.Programs[0].Procs.size(); ++P)
    PC.Typing.TypeOf[P].assign(F.Programs[0].Procs[P].Blocks.size(), 0);
  PC.Typing.TypeOf[0].push_back(0);
  expectRejected(PC, &F.Tech, "typing row size mismatch");

  // Right shape, one block typed outside [0, NumTypes).
  PC.Typing.TypeOf[0].pop_back();
  PC.Typing.TypeOf[0][0] = 7;
  expectRejected(PC, &F.Tech, "block type out of range");
}

TEST(VerifyPass, RejectsBrokenPreImageMarking) {
  PreparedFixture F;
  ProgramPrep PC;
  PC.Prog = &F.Programs[0];
  PC.Marked = true; // No image yet: the pre-instrumentation shape rules.
  expectRejected(PC, &F.Tech, "marking has zero types");

  PC.Marking.NumTypes = 2;
  PC.Marking.RegionType.resize(F.Programs[0].Procs.size() + 1);
  expectRejected(PC, &F.Tech, "marking region-type proc count mismatch");

  // A mark whose anchor points past the program.
  PC.Marking.RegionType.resize(F.Programs[0].Procs.size());
  PhaseMark Bad;
  Bad.Proc = static_cast<uint32_t>(F.Programs[0].Procs.size());
  Bad.Block = 0;
  Bad.Point = MarkPoint::Edge;
  PC.Marking.Marks.push_back(Bad);
  expectRejected(PC, &F.Tech, "mark proc out of range");
}

TEST(VerifyPass, RejectsCrossWiredArtifacts) {
  PreparedFixture F;

  // Flat image of program 0 presented with program 1's image.
  ProgramPrep Mixed = F.prep(1);
  Mixed.Flat = F.Prepared[0].Flat;
  expectRejected(Mixed, &F.Tech, "flat image bound to a different image");

  // Flat image presented with a freshly built (equal-valued but
  // different-object) cost model: binding is by identity, because the
  // flat image inlined that exact object's tables.
  ProgramPrep Rebound = F.prep(0);
  Rebound.Cost =
      std::make_shared<const CostModel>(F.Programs[0], F.MC);
  expectRejected(Rebound, &F.Tech, "flat image bound to a different cost model");
}

TEST(VerifyPass, RejectsImageCostModelDivergence) {
  PreparedFixture F;
  // The technique the context claims uses a different mark-cost profile
  // than the image was instrumented with.
  TechniqueSpec Claimed = F.Tech;
  Claimed.Cost = MarkCostModel::atomStyle();
  expectRejected(F.prep(0), &Claimed, "image mark-cost model differs");
}

TEST(VerifyPass, RejectsOffGridCostTables) {
  // A store entry written before cost quantization holds off-grid
  // tables; the audit must reject them whether they arrive through the
  // cost model or only through the flat image's inlined copy.
  PreparedFixture F;
  const Program &Prog = F.Programs[0];
  BinaryWriter W;
  F.Prepared[0].Cost->serializeTables(W);
  std::string Bytes = W.buffer();
  // Entry 0's BaseCycles follows MaxSharers, the proc-offset vector,
  // the entry count, and entry 0's Insts and MemOps.
  size_t At = 4 + 4 + 4 * Prog.Procs.size() + 4 + 4 + 4;
  double Base;
  std::memcpy(&Base, Bytes.data() + At, sizeof(Base));
  ASSERT_TRUE(onCycleGrid(Base));
  double OffGrid = Base + 0x1p-20;
  std::memcpy(&Bytes[At], &OffGrid, sizeof(OffGrid));
  BinaryReader R(Bytes);
  auto Cost = std::make_shared<const CostModel>(
      CostModel::deserializeTables(R, F.MC, Prog));
  ASSERT_FALSE(R.failed());

  ProgramPrep PC = F.prep(0);
  PC.Cost = Cost;
  PC.Flat = std::make_shared<const FlatImage>(PC.Image, Cost);
  expectRejected(PC, &F.Tech, "cost table entry off the cycle grid");
  PC.Cost = nullptr;
  expectRejected(PC, &F.Tech, "cycle table off the cycle grid");
}

//===----------------------------------------------------------------------===//
// verifyPrepared: whole-suite audit
//===----------------------------------------------------------------------===//

TEST(VerifyPrepared, AcceptsFreshSuiteAndNamesBrokenProgram) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<Program> Programs = randomPrograms(61, 3);
  PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique(), 42);

  std::string Err;
  EXPECT_TRUE(verifyPrepared(Suite, MC, &Err)) << Err;

  // Mismatched array sizes are caught before any per-program check.
  PreparedSuite Lopsided = Suite;
  Lopsided.Names.pop_back();
  EXPECT_FALSE(verifyPrepared(Lopsided, MC, &Err));
  EXPECT_NE(Err.find("suite arrays have mismatched sizes"),
            std::string::npos);

  // Swapping two programs' flat images is caught at the first broken
  // index, with the diagnostic naming suite slot and program.
  PreparedSuite Swapped = Suite;
  std::swap(Swapped.Flats[0], Swapped.Flats[1]);
  EXPECT_FALSE(verifyPrepared(Swapped, MC, &Err));
  EXPECT_NE(Err.find("suite[0] '" + Suite.Names[0] + "'"),
            std::string::npos)
      << Err;
  EXPECT_NE(Err.find("flat image bound to a different image"),
            std::string::npos);
}

// The full benchmark registry — every program the experiments can run —
// must pass the static verification, under every technique class.
TEST(VerifyPrepared, FullRegistryVerifiesUnderEveryTechniqueClass) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<Program> Programs;
  for (const BenchSpec &S : specSuite())
    Programs.push_back(buildBenchmark(S));
  ASSERT_FALSE(Programs.empty());

  for (const TechniqueSpec &Tech :
       {TechniqueSpec::baseline(), loopTechnique(), staticWithError(0.1)}) {
    PreparedSuite Suite = prepareSuite(Programs, MC, Tech, 42);
    std::string Err;
    EXPECT_TRUE(verifyPrepared(Suite, MC, &Err))
        << "technique " << Tech.label() << ": " << Err;
  }
}
