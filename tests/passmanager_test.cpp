//===- tests/passmanager_test.cpp - static pipeline & self-verification ---===//
//
// The pass-manager promotion contract and the VerifyPass static
// analysis: prepareSuite (the pass-manager pipeline) must be
// bit-identical to the legacy monolithic path, the cross-program
// fixpoint must quiesce in one working round, and verifyPrep /
// verifyPrepared must accept every well-formed preparation and reject
// each documented class of broken state.

#include "analysis/PassManager.h"

#include "sim/CostModel.h"
#include "sim/FlatImage.h"
#include "support/Binary.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "workload/Benchmarks.h"
#include "workload/Runner.h"

#include <gtest/gtest.h>

#include <cstring>

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

/// The techniques the promotion contract sweeps: the baseline, the
/// oracle-typed loop technique, and static typing with clustering error
/// (the path that exercises typing + error-inject).
std::vector<TechniqueSpec> contractTechniques() {
  TechniqueSpec Static = loopTechnique();
  Static.UseStaticTyping = true;
  Static.TypingError = 0.25;
  TechniqueSpec BB = loopTechnique();
  BB.Transition.Strat = Strategy::BasicBlock;
  BB.Transition.MinSize = 15;
  return {TechniqueSpec::baseline(), loopTechnique(), BB, Static};
}

/// Field-exact equality of two suites, down to serialized flat images
/// and memcmp over the raw cycle-table doubles.
void expectSuitesBitIdentical(const PreparedSuite &A,
                              const PreparedSuite &B) {
  ASSERT_EQ(A.Images.size(), B.Images.size());
  EXPECT_EQ(A.Names, B.Names);
  for (size_t I = 0; I < A.Images.size(); ++I) {
    const InstrumentedProgram &IA = *A.Images[I];
    const InstrumentedProgram &IB = *B.Images[I];
    ASSERT_EQ(IA.marks().size(), IB.marks().size());
    for (size_t M = 0; M < IA.marks().size(); ++M) {
      EXPECT_EQ(IA.marks()[M].Proc, IB.marks()[M].Proc);
      EXPECT_EQ(IA.marks()[M].Block, IB.marks()[M].Block);
      EXPECT_EQ(IA.marks()[M].SuccIndex, IB.marks()[M].SuccIndex);
      EXPECT_EQ(IA.marks()[M].Point, IB.marks()[M].Point);
      EXPECT_EQ(IA.marks()[M].PhaseType, IB.marks()[M].PhaseType);
    }
    EXPECT_EQ(IA.instrumentedByteSize(), IB.instrumentedByteSize());
    const Program &Prog = IA.program();
    for (const Procedure &Proc : Prog.Procs)
      for (const BasicBlock &BB : Proc.Blocks) {
        EXPECT_EQ(A.Costs[I]->blockInsts(Proc.Id, BB.Id),
                  B.Costs[I]->blockInsts(Proc.Id, BB.Id));
        EXPECT_DOUBLE_EQ(A.Costs[I]->blockCycles(Proc.Id, BB.Id, 0, 1),
                         B.Costs[I]->blockCycles(Proc.Id, BB.Id, 0, 1));
      }
    const FlatImage &FA = *A.Flats[I];
    const FlatImage &FB = *B.Flats[I];
    ASSERT_EQ(FA.numBlocks(), FB.numBlocks());
    ASSERT_EQ(FA.configStride(), FB.configStride());
    ASSERT_EQ(FA.chainRecordCount(), FB.chainRecordCount());
    size_t CycleBytes = static_cast<size_t>(FA.numBlocks()) *
                        FA.configStride() * sizeof(double);
    EXPECT_EQ(0, std::memcmp(FA.cycleTable(), FB.cycleTable(), CycleBytes));
    size_t ChainBytes = static_cast<size_t>(FA.chainRecordCount()) *
                        FA.configStride() * sizeof(double);
    EXPECT_EQ(0, std::memcmp(FA.chainCycleTable(), FB.chainCycleTable(),
                             ChainBytes));
    BinaryWriter WA, WB;
    FA.serialize(WA);
    FB.serialize(WB);
    EXPECT_EQ(WA.buffer(), WB.buffer());
  }
}

/// Restores the process-wide verify-IR toggle on scope exit, so tests
/// that flip it cannot leak into later tests of the same binary.
struct VerifyIRGuard {
  bool Saved;
  VerifyIRGuard() : Saved(verifyIREnabled()) {}
  ~VerifyIRGuard() { setVerifyIR(Saved); }
};

const PassStats *findPass(const PipelineStats &Stats, const char *Name) {
  for (const PassStats &P : Stats.Passes)
    if (P.Name == Name)
      return &P;
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// Promotion contract: pass manager == legacy monolithic pipeline
//===----------------------------------------------------------------------===//

// The tentpole's promotion contract: the pass-manager pipeline behind
// prepareSuite must produce artifacts bit-identical to the
// pre-pass-manager monolithic path, for every technique class —
// baseline, loop/BB marking, static typing with error injection.
TEST(PassManagerPromotion, BitIdenticalToMonolithicPath) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  for (uint64_t Seed : {3ull, 101ull}) {
    std::vector<Program> Programs = randomPrograms(Seed, 6);
    for (const TechniqueSpec &Tech : contractTechniques()) {
      PreparedSuite FromPasses = prepareSuite(Programs, MC, Tech, 42);
      PreparedSuite Reference = prepareSuiteMonolithic(Programs, MC, Tech, 42);
      expectSuitesBitIdentical(FromPasses, Reference);
    }
  }
}

// The contract must hold for non-default typing seeds too (seed flows
// through typing and error injection on different pass boundaries than
// in the monolithic path).
TEST(PassManagerPromotion, ContractHoldsAcrossTypingSeeds) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<Program> Programs = randomPrograms(17, 5);
  TechniqueSpec Tech = loopTechnique();
  Tech.UseStaticTyping = true;
  Tech.TypingError = 0.15;
  for (uint64_t TypingSeed : {7ull, 42ull, 1234ull}) {
    PreparedSuite FromPasses = prepareSuite(Programs, MC, Tech, TypingSeed);
    PreparedSuite Reference =
        prepareSuiteMonolithic(Programs, MC, Tech, TypingSeed);
    expectSuitesBitIdentical(FromPasses, Reference);
  }
}

// Turning the verification sweep on must never perturb pipeline output:
// verify-IR is read-only analysis, so prepared artifacts stay
// bit-identical to the unverified (and monolithic) run.
TEST(PassManagerPromotion, VerifyIRDoesNotPerturbOutput) {
  VerifyIRGuard Guard;
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<Program> Programs = randomPrograms(29, 4);
  TechniqueSpec Tech = loopTechnique();

  setVerifyIR(false);
  PreparedSuite Plain = prepareSuite(Programs, MC, Tech, 42);
  setVerifyIR(true);
  PreparedSuite Verified = prepareSuite(Programs, MC, Tech, 42);
  expectSuitesBitIdentical(Plain, Verified);
}

//===----------------------------------------------------------------------===//
// Fixpoint mechanics and per-pass stats
//===----------------------------------------------------------------------===//

// The preparation passes are idempotent, so the cross-program fixpoint
// is one working round plus the quiescent round that proves it; every
// pass visits every program each round, and the working round's change
// counts are exactly the programs each stage had to fill in.
TEST(PassManagerFixpoint, OneWorkingRoundThenQuiescence) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<Program> Programs = randomPrograms(11, 5);
  TechniqueSpec Tech = loopTechnique();
  const uint64_t N = Programs.size();

  PassManager PM = buildPreparationPipeline();
  ASSERT_EQ(PM.size(), 6u);
  PipelineContext Ctx = makePipelineContext(Programs, MC, Tech, 42);
  Ctx.VerifyIR = false;
  PipelineStats Stats = PM.run(Ctx);

  EXPECT_EQ(Stats.Rounds, 2u);
  ASSERT_EQ(Stats.Passes.size(), 6u);
  const char *Order[] = {"cost-model", "typing",     "error-inject",
                         "transitions", "instrument", "flatten"};
  for (size_t P = 0; P < 6; ++P) {
    EXPECT_EQ(Stats.Passes[P].Name, Order[P]);
    EXPECT_EQ(Stats.Passes[P].Invocations, Stats.Rounds * N);
  }
  // Loop technique, no error injection: every stage except error-inject
  // computes something for every program, exactly once.
  EXPECT_EQ(findPass(Stats, "cost-model")->ProgramsChanged, N);
  EXPECT_EQ(findPass(Stats, "typing")->ProgramsChanged, N);
  EXPECT_EQ(findPass(Stats, "error-inject")->ProgramsChanged, 0u);
  EXPECT_EQ(findPass(Stats, "transitions")->ProgramsChanged, N);
  EXPECT_EQ(findPass(Stats, "instrument")->ProgramsChanged, N);
  EXPECT_EQ(findPass(Stats, "flatten")->ProgramsChanged, N);

  // Every program's prepared state is complete and verifies.
  for (const ProgramPrep &PC : Ctx.Programs) {
    EXPECT_TRUE(PC.Cost && PC.Image && PC.Flat);
    std::string Err;
    EXPECT_TRUE(verifyPrep(PC, Ctx, &Err)) << Err;
  }

  // Re-running on the already-prepared context is a pure no-op: a
  // single quiescent round, nothing changed.
  PipelineStats Again = PM.run(Ctx);
  EXPECT_EQ(Again.Rounds, 1u);
  for (const PassStats &P : Again.Passes) {
    EXPECT_EQ(P.Invocations, N);
    EXPECT_EQ(P.ProgramsChanged, 0u);
  }
}

// The baseline technique short-circuits typing and error injection but
// still flows through transitions (the trivial one-type marking),
// instrumentation, and flattening.
TEST(PassManagerFixpoint, BaselineSkipsTypingStages) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<Program> Programs = randomPrograms(23, 4);
  TechniqueSpec Tech = TechniqueSpec::baseline();
  const uint64_t N = Programs.size();

  PipelineContext Ctx = makePipelineContext(Programs, MC, Tech, 42);
  Ctx.VerifyIR = false;
  PipelineStats Stats = buildPreparationPipeline().run(Ctx);

  EXPECT_EQ(Stats.Rounds, 2u);
  EXPECT_EQ(findPass(Stats, "typing")->ProgramsChanged, 0u);
  EXPECT_EQ(findPass(Stats, "error-inject")->ProgramsChanged, 0u);
  EXPECT_EQ(findPass(Stats, "transitions")->ProgramsChanged, N);
  EXPECT_EQ(findPass(Stats, "flatten")->ProgramsChanged, N);
  for (const ProgramPrep &PC : Ctx.Programs) {
    EXPECT_FALSE(PC.Typed);
    EXPECT_TRUE(PC.Flat != nullptr);
  }
}

// With error injection enabled the error-inject pass perturbs every
// typed program exactly once, and stays idempotent.
TEST(PassManagerFixpoint, ErrorInjectionChangesEveryTypedProgramOnce) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<Program> Programs = randomPrograms(37, 5);
  TechniqueSpec Tech = loopTechnique();
  Tech.UseStaticTyping = true;
  Tech.TypingError = 0.3;
  const uint64_t N = Programs.size();

  PipelineContext Ctx = makePipelineContext(Programs, MC, Tech, 42);
  Ctx.VerifyIR = false;
  PipelineStats Stats = buildPreparationPipeline().run(Ctx);
  EXPECT_EQ(Stats.Rounds, 2u);
  EXPECT_EQ(findPass(Stats, "error-inject")->ProgramsChanged, N);
  for (const ProgramPrep &PC : Ctx.Programs)
    EXPECT_TRUE(PC.ErrorInjected);
}

// Under verify-IR the manager appends a "verify" stats entry and runs
// the sweep after every pass of every round: passes * rounds * programs
// verification invocations, with no exception on healthy state.
TEST(PassManagerFixpoint, VerifySweepRunsAfterEveryPass) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<Program> Programs = randomPrograms(41, 3);
  TechniqueSpec Tech = loopTechnique();
  const uint64_t N = Programs.size();

  PipelineContext Ctx = makePipelineContext(Programs, MC, Tech, 42);
  Ctx.VerifyIR = true;
  PipelineStats Stats = buildPreparationPipeline().run(Ctx);

  ASSERT_EQ(Stats.Passes.size(), 7u);
  EXPECT_EQ(Stats.Passes.back().Name, "verify");
  EXPECT_EQ(Stats.Passes.back().Invocations, 6u * Stats.Rounds * N);
  EXPECT_EQ(Stats.Passes.back().ProgramsChanged, 0u);
}

// Pipeline runs accumulate into the process-wide cumulative stats the
// driver surfaces; the deterministic counters grow by exactly one
// run's worth.
TEST(PassManagerFixpoint, CumulativeStatsAccumulateAcrossRuns) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<Program> Programs = randomPrograms(43, 4);
  const uint64_t N = Programs.size();

  PipelineStats Before = cumulativePipelineStats();
  TechniqueSpec Tech = loopTechnique();
  PipelineContext Ctx = makePipelineContext(Programs, MC, Tech, 42);
  Ctx.VerifyIR = false;
  PipelineStats Run = buildPreparationPipeline().run(Ctx);
  PipelineStats After = cumulativePipelineStats();

  EXPECT_EQ(After.Rounds, Before.Rounds + Run.Rounds);
  for (const char *Name : {"cost-model", "typing", "flatten"}) {
    const PassStats *B = findPass(Before, Name);
    const PassStats *A = findPass(After, Name);
    ASSERT_TRUE(A != nullptr);
    uint64_t BeforeInvocations = B ? B->Invocations : 0;
    EXPECT_EQ(A->Invocations, BeforeInvocations + Run.Rounds * N);
  }
}

//===----------------------------------------------------------------------===//
// VerifyPass: negative tests over deliberately broken state
//===----------------------------------------------------------------------===//

namespace {

/// One fully prepared program plus the context it was prepared under —
/// the healthy baseline each negative test then breaks.
struct PreparedFixture {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();
  std::vector<Program> Programs = randomPrograms(53, 2);
  std::vector<PreparedProgram> Prepared;
  PipelineContext Ctx;

  PreparedFixture() {
    Prepared = preparePrograms(Programs, MC, Tech, 42);
    Ctx.Machine = &MC;
    Ctx.Tech = &Tech;
    Ctx.TypingSeed = 42;
  }

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

void expectRejected(const ProgramPrep &PC, const PipelineContext &Ctx,
                    const char *ExpectedFragment) {
  std::string Err;
  EXPECT_FALSE(verifyPrep(PC, Ctx, &Err));
  EXPECT_NE(Err.find(ExpectedFragment), std::string::npos)
      << "diagnostic was: " << Err;
}

} // namespace

TEST(VerifyPass, AcceptsHealthyPreparedState) {
  PreparedFixture F;
  for (size_t I = 0; I < F.Programs.size(); ++I) {
    std::string Err;
    EXPECT_TRUE(verifyPrep(F.prep(I), F.Ctx, &Err)) << Err;
  }
}

TEST(VerifyPass, RejectsEmptyPrep) {
  PreparedFixture F;
  ProgramPrep Empty;
  expectRejected(Empty, F.Ctx, "no program to verify");
}

TEST(VerifyPass, RejectsZeroTypeTyping) {
  PreparedFixture F;
  ProgramPrep PC = F.prep(0);
  PC.Typed = true; // Typing left default-constructed: zero types.
  expectRejected(PC, F.Ctx, "typing has zero types");
}

TEST(VerifyPass, RejectsTypingShapeMismatch) {
  PreparedFixture F;
  ProgramPrep PC = F.prep(0);
  PC.Typed = true;
  PC.Typing.NumTypes = 2;
  // One row too few: the typing does not cover every procedure.
  PC.Typing.TypeOf.resize(F.Programs[0].Procs.size() - 1);
  expectRejected(PC, F.Ctx, "typing proc count mismatch");

  // Right row count, one row the wrong width.
  PC.Typing.TypeOf.assign(F.Programs[0].Procs.size(), {});
  for (size_t P = 0; P < F.Programs[0].Procs.size(); ++P)
    PC.Typing.TypeOf[P].assign(F.Programs[0].Procs[P].Blocks.size(), 0);
  PC.Typing.TypeOf[0].push_back(0);
  expectRejected(PC, F.Ctx, "typing row size mismatch");

  // Right shape, one block typed outside [0, NumTypes).
  PC.Typing.TypeOf[0].pop_back();
  PC.Typing.TypeOf[0][0] = 7;
  expectRejected(PC, F.Ctx, "block type out of range");
}

TEST(VerifyPass, RejectsBrokenPreImageMarking) {
  PreparedFixture F;
  ProgramPrep PC;
  PC.Prog = &F.Programs[0];
  PC.Marked = true; // No image yet: the pre-instrumentation shape rules.
  expectRejected(PC, F.Ctx, "marking has zero types");

  PC.Marking.NumTypes = 2;
  PC.Marking.RegionType.resize(F.Programs[0].Procs.size() + 1);
  expectRejected(PC, F.Ctx, "marking region-type proc count mismatch");

  // A mark whose anchor points past the program.
  PC.Marking.RegionType.resize(F.Programs[0].Procs.size());
  PhaseMark Bad;
  Bad.Proc = static_cast<uint32_t>(F.Programs[0].Procs.size());
  Bad.Block = 0;
  Bad.Point = MarkPoint::Edge;
  PC.Marking.Marks.push_back(Bad);
  expectRejected(PC, F.Ctx, "mark proc out of range");
}

TEST(VerifyPass, RejectsCrossWiredArtifacts) {
  PreparedFixture F;

  // Flat image of program 0 presented with program 1's image.
  ProgramPrep Mixed = F.prep(1);
  Mixed.Flat = F.Prepared[0].Flat;
  expectRejected(Mixed, F.Ctx, "flat image bound to a different image");

  // Flat image presented with a freshly built (equal-valued but
  // different-object) cost model: binding is by identity, because the
  // flat image inlined that exact object's tables.
  ProgramPrep Rebound = F.prep(0);
  Rebound.Cost =
      std::make_shared<const CostModel>(F.Programs[0], F.MC);
  expectRejected(Rebound, F.Ctx, "flat image bound to a different cost model");
}

TEST(VerifyPass, RejectsImageCostModelDivergence) {
  PreparedFixture F;
  // The technique the context claims uses a different mark-cost profile
  // than the image was instrumented with.
  TechniqueSpec Claimed = F.Tech;
  Claimed.Cost = MarkCostModel::atomStyle();
  PipelineContext Ctx = F.Ctx;
  Ctx.Tech = &Claimed;
  expectRejected(F.prep(0), Ctx, "image mark-cost model differs");
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
  expectRejected(PC, F.Ctx, "cost table entry off the cycle grid");
  PC.Cost = nullptr;
  expectRejected(PC, F.Ctx, "cycle table off the cycle grid");
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

  TechniqueSpec Static = loopTechnique();
  Static.UseStaticTyping = true;
  Static.TypingError = 0.1;
  for (const TechniqueSpec &Tech :
       {TechniqueSpec::baseline(), loopTechnique(), Static}) {
    PreparedSuite Suite = prepareSuite(Programs, MC, Tech, 42);
    std::string Err;
    EXPECT_TRUE(verifyPrepared(Suite, MC, &Err))
        << "technique " << Tech.label() << ": " << Err;
  }
}
