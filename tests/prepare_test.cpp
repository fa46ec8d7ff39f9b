//===- tests/prepare_test.cpp - preparation pipeline & self-verification --===//
//
// The static preparation pipeline and its self-verification:
// prepareSuite's output is pinned by digest, every stage runs once per
// program it applies to, verify-IR leaves output untouched, every
// technique shares one program base per (program, machine), and
// verifyPrep / verifyPrepared accept every well-formed preparation and
// reject each documented class of broken state.

#include "analysis/PassManager.h"

#include "obs/Counters.h"
#include "sim/CostModel.h"
#include "sim/FlatImage.h"
#include "support/Binary.h"
#include "support/Hashing.h"
#include "support/Rng.h"
#include "workload/Benchmarks.h"
#include "workload/Runner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ios>
#include <memory>
#include <set>
#include <thread>

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

/// \p Cost's data in the layout the digests were taken with: sharer
/// depth, the block count and each block's instruction count (global
/// block order: procedures in id order), the table length and the cycle
/// table.
void writeCostModel(BinaryWriter &W, const Program &Prog,
                    const CostModel &Cost) {
  W.u32(Cost.maxSharers());
  W.u32(static_cast<uint32_t>(Prog.blockCount()));
  for (uint32_t P = 0; P < Prog.Procs.size(); ++P)
    for (uint32_t B = 0; B < Prog.Procs[P].Blocks.size(); ++B)
      W.u32(Cost.blockInsts(P, B));
  W.u32(static_cast<uint32_t>(Cost.cycleTable().size()));
  for (double Value : Cost.cycleTable())
    W.f64(Value);
}

/// FNV-1a digest of everything that makes up a prepared suite: each
/// program's name, marks and instrumented size, its cost model, and its
/// serialized flat image (which carries the cycle table).
uint64_t suiteDigest(const PreparedSuite &Suite) {
  BinaryWriter W;
  for (size_t I = 0; I < Suite.Flats.size(); ++I) {
    const InstrumentedProgram &IP = Suite.Flats[I]->program();
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
    writeCostModel(W, IP.program(), Suite.Flats[I]->cost());
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

/// The prepared state of \p Prog as a ProgramPrep: the flat image with
/// the instrumented program and cost model it owns.
ProgramPrep prepOf(const Program &Prog,
                   const std::shared_ptr<const FlatImage> &Flat) {
  ProgramPrep PC;
  PC.Prog = &Prog;
  PC.Cost = std::shared_ptr<const CostModel>(Flat, &Flat->cost());
  PC.Image =
      std::shared_ptr<const InstrumentedProgram>(Flat, &Flat->program());
  PC.Flat = Flat;
  return PC;
}

/// A copy of \p Flat's cost model with its first cycle-table entry
/// nudged off the cycle grid, as a costing change that skipped
/// quantization would build it.
std::shared_ptr<const CostModel> offGridCost(const FlatImage &Flat) {
  auto Cost = std::make_shared<CostModel>(Flat.cost());
  // The copy is not const, so writing through the accessor is defined.
  auto &Table = const_cast<std::vector<double> &>(Cost->cycleTable());
  EXPECT_TRUE(onCycleGrid(Table[0]));
  EXPECT_EQ(Table[0], Flat.cycleTable()[0]);
  Table[0] += 0x1p-20;
  return Cost;
}

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
// monolithic preparation path, so they carry that guarantee forward.
// When the flat image dropped its superblock-chain summaries they were
// re-taken, and equal the digests of the older pipeline with each image
// serialized without its chain fields (Chain ops counted as Jump). When
// the cost model came to keep instruction counts plus one cycle table
// (and serialize just those) they were re-taken again, and equal the
// digests of the older pipeline with each cost model serialized in the
// new layout from its own tables. A
// change that alters prepared artifacts must update this table in a
// reviewed edit and give its reason in CHANGES.md. The digests assume
// IEEE-754 doubles without floating-point contraction (the default
// x86-64 build); a target that fuses multiply-adds prepares different
// cost tables.
namespace {

struct PinRow {
  uint64_t ProgramSeed;
  unsigned Count;
  size_t Tech; ///< Index into pinTechniques().
  uint64_t TypingSeed;
  uint64_t Digest;
};

const PinRow Pins[] = {
    {3, 6, 0, 42, 0x303f51f4d6fd2783ull},     // Linux
    {3, 6, 1, 42, 0xe753670ed6b804fbull},     // Loop[45]
    {3, 6, 2, 42, 0x3a88c9a99d1afe53ull},     // BB[15,0]
    {3, 6, 3, 42, 0xbe52e00de3f4d472ull},     // Loop[45]+static+err25%
    {101, 6, 0, 42, 0x55bb231c9f271785ull},   // Linux
    {101, 6, 1, 42, 0x90143396c0ecb4b6ull},   // Loop[45]
    {101, 6, 2, 42, 0xc6198a748116a500ull},   // BB[15,0]
    {101, 6, 3, 42, 0x0f9c23a839df6fcfull},   // Loop[45]+static+err25%
    {17, 5, 4, 7, 0x758287242b686c69ull},     // Loop[45]+static+err15%
    {17, 5, 4, 42, 0xf51fd812a779b7ebull},    // Loop[45]+static+err15%
    {17, 5, 4, 1234, 0x06ff81946c0687c8ull},  // Loop[45]+static+err15%
};

} // namespace

TEST(PreparePins, DigestsMatchPinnedValues) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<TechniqueSpec> Techniques = pinTechniques();
  for (const PinRow &R : Pins) {
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
    std::vector<std::shared_ptr<const FlatImage>> Prepared =
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
      ASSERT_TRUE(Prepared[I]);
      std::string Err;
      EXPECT_TRUE(verifyPrep(prepOf(Programs[I], Prepared[I]), &R.Tech, &Err))
          << Err;
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
  std::vector<std::shared_ptr<const FlatImage>> Prepared =
      preparePrograms(Programs, MC, Tech, 42);

  /// The prepared state of program \p I as a ProgramPrep.
  ProgramPrep prep(size_t I) const { return prepOf(Programs[I], Prepared[I]); }
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

TEST(VerifyPass, RejectsImageCostModelDivergence) {
  PreparedFixture F;
  // The technique the context claims uses a different mark-cost profile
  // than the image was instrumented with.
  TechniqueSpec Claimed = F.Tech;
  Claimed.Cost = MarkCostModel::atomStyle();
  expectRejected(F.prep(0), &Claimed, "image mark-cost model differs");
}

TEST(VerifyPass, RejectsOffGridCostTables) {
  // An off-grid table breaks the engine's exact sums; the audit must
  // reject it whether it arrives as the cost-model stage's binding or
  // only through the flat image that reads the table.
  PreparedFixture F;
  auto Cost = offGridCost(*F.Prepared[0]);
  ProgramPrep PC = F.prep(0);
  PC.Flat = nullptr;
  PC.Cost = Cost;
  expectRejected(PC, &F.Tech, "cost table entry off the cycle grid");
  PC = F.prep(0);
  PC.Flat = std::make_shared<const FlatImage>(PC.Image, Cost);
  expectRejected(PC, &F.Tech, "cost table entry off the cycle grid");
}

TEST(VerifyPass, RejectsWrongMarkTableRow) {
  // The audit reads the mark table the engines read and checks it
  // against the marks themselves: a row naming a mark anchored elsewhere
  // and a mark missing from its row are both caught.
  PreparedFixture F;
  size_t I = 0;
  while (I < F.Prepared.size() && F.Prepared[I]->program().marks().empty())
    ++I;
  ASSERT_LT(I, F.Prepared.size()) << "no prepared program has marks";
  ProgramPrep PC = F.prep(I);
  const InstrumentedProgram &IP = *PC.Image;
  const PhaseMark &First = IP.marks()[0];
  const uint32_t Marked = PC.Flat->globalId(First.Proc, First.Block);

  // A copy of the image with one row changed in place; the copy is not
  // const, so writing through the accessor is defined.
  auto Planted = [&](auto Edit) {
    auto Copy = std::make_shared<InstrumentedProgram>(IP);
    auto &Table = const_cast<std::vector<BlockMarks> &>(Copy->markTable());
    Edit(Table);
    ProgramPrep Broken = PC;
    Broken.Image = Copy;
    Broken.Flat = std::make_shared<const FlatImage>(Copy, PC.Cost);
    return Broken;
  };

  // Mark 0 also named on a block without marks.
  ProgramPrep Stray = Planted([&](std::vector<BlockMarks> &Table) {
    for (size_t G = 0; G < Table.size(); ++G)
      if (G != Marked && Table[G].EdgeMark[0] < 0 &&
          Table[G].EdgeMark[1] < 0 && Table[G].CallMark < 0) {
        Table[G].EdgeMark[0] = 0;
        return;
      }
    ADD_FAILURE() << "no unmarked block";
  });
  expectRejected(Stray, &F.Tech, "stray mark-table entry");

  // Mark 0 dropped from its own row.
  ProgramPrep Missing = Planted([&](std::vector<BlockMarks> &Table) {
    BlockMarks &Row = Table[Marked];
    for (int32_t *Slot : {&Row.EdgeMark[0], &Row.EdgeMark[1], &Row.CallMark})
      if (*Slot == 0)
        *Slot = -1;
  });
  expectRejected(Missing, &F.Tech, "mark missing from mark table");
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

  // An image reading an off-grid cycle table is caught, with the
  // diagnostic naming suite slot and program.
  PreparedSuite Broken = Suite;
  const FlatImage &Second = *Suite.Flats[1];
  Broken.Flats[1] = std::make_shared<const FlatImage>(
      std::shared_ptr<const InstrumentedProgram>(Suite.Flats[1],
                                                 &Second.program()),
      offGridCost(Second));
  EXPECT_FALSE(verifyPrepared(Broken, MC, &Err));
  EXPECT_NE(Err.find("suite[1] '" + Suite.Names[1] + "'"), std::string::npos)
      << Err;
  EXPECT_NE(Err.find("off the cycle grid"), std::string::npos) << Err;
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

//===----------------------------------------------------------------------===//
// Shared program bases: one Program and CostModel per (program, machine)
//===----------------------------------------------------------------------===//

namespace {

/// The paper's Table 2 grid: the baseline plus the 18 marking variants
/// BB[{10,15,20},{0..3}], Int[{30,45,60}] and Loop[{30,45,60}].
std::vector<TechniqueSpec> tableTwoTechniques() {
  std::vector<TransitionConfig> Variants;
  for (uint32_t MinSize : {10u, 15u, 20u})
    for (uint32_t Lookahead : {0u, 1u, 2u, 3u}) {
      TransitionConfig C;
      C.Strat = Strategy::BasicBlock;
      C.MinSize = MinSize;
      C.Lookahead = Lookahead;
      Variants.push_back(C);
    }
  for (Strategy Strat : {Strategy::Interval, Strategy::Loop})
    for (uint32_t MinSize : {30u, 45u, 60u}) {
      TransitionConfig C;
      C.Strat = Strat;
      C.MinSize = MinSize;
      Variants.push_back(C);
    }
  std::vector<TechniqueSpec> Out = {TechniqueSpec::baseline()};
  TunerConfig Tuner;
  Tuner.IpcDelta = 0.15;
  for (const TransitionConfig &C : Variants)
    Out.push_back(TechniqueSpec::tuned(C, Tuner));
  return Out;
}

uint64_t counterValue(const char *Name) {
  return obs::CounterRegistry::global().value(Name);
}

/// A copy of \p Prog with one field of one instruction or block changed.
/// \p Edit returns false when the program has no site it applies to.
template <typename EditFn> Program edited(Program Prog, EditFn Edit) {
  for (Procedure &P : Prog.Procs)
    for (BasicBlock &BB : P.Blocks)
      if (Edit(BB))
        return Prog;
  ADD_FAILURE() << "no block to edit";
  return Prog;
}

} // namespace

// The whole Table 2 grid over the paper suite builds one base per
// benchmark: every technique's image and cost model of a benchmark are
// the same objects, every flat image reads that cost model's cycle
// table and block layout, and the base is an equal copy of the input.
TEST(SharedBase, TableTwoTechniquesShareOneBasePerBenchmark) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<Program> Programs = buildSuite();
  const size_t N = Programs.size();
  std::vector<TechniqueSpec> Techniques = tableTwoTechniques();
  ASSERT_EQ(Techniques.size(), 19u);

  uint64_t Built = counterValue("analysis.cost_models_built");
  uint64_t Shared = counterValue("analysis.cost_models_shared");
  std::vector<PreparedSuite> Suites;
  for (const TechniqueSpec &Tech : Techniques)
    Suites.push_back(prepareSuite(Programs, MC, Tech));
  EXPECT_EQ(counterValue("analysis.cost_models_built") - Built, N);
  EXPECT_EQ(counterValue("analysis.cost_models_shared") - Shared,
            (Techniques.size() - 1) * N);

  std::set<const CostModel *> Distinct;
  for (size_t I = 0; I < N; ++I) {
    const Program &Base = Suites[0].Flats[I]->program().program();
    EXPECT_NE(&Base, &Programs[I]);
    EXPECT_TRUE(Base == Programs[I]);
    const CostModel &Cost = Suites[0].Flats[I]->cost();
    Distinct.insert(&Cost);
    for (const PreparedSuite &S : Suites) {
      EXPECT_EQ(&S.Flats[I]->cost(), &Cost) << Programs[I].Name;
      EXPECT_EQ(&S.Flats[I]->program().program(), &Base) << Programs[I].Name;
      // Every technique's flat image reads the base's one cycle table
      // and one block layout, and its own technique's mark table.
      EXPECT_EQ(S.Flats[I]->cycleTable(), Cost.cycleTable().data())
          << Programs[I].Name;
      EXPECT_EQ(S.Flats[I]->blocks(), Cost.layout().data())
          << Programs[I].Name;
      EXPECT_EQ(S.Flats[I]->markTable(),
                S.Flats[I]->program().markTable().data())
          << Programs[I].Name;
    }
  }
  EXPECT_EQ(Distinct.size(), N);
}

// A base is shared only by an equal program on an equal machine: a change
// to any single field gets its own base, while an equal copy, or the
// same machine under another display name, shares.
TEST(SharedBase, NoFalseSharing) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Base = TechniqueSpec::baseline();
  const Program Original = randomPrograms(83, 1)[0];

  struct Variant {
    const char *What;
    Program Prog;
  };
  Program Renamed = Original;
  Renamed.Name += "'";
  const Variant Variants[] = {
      {"MemRef", edited(Original,
                        [](BasicBlock &BB) {
                          for (Instruction &I : BB.Insts)
                            if (I.MemRef >= 0) {
                              ++I.MemRef;
                              return true;
                            }
                          return false;
                        })},
      {"StreamWorkingSet", edited(Original,
                                  [](BasicBlock &BB) {
                                    ++BB.StreamWorkingSet;
                                    return true;
                                  })},
      {"TakenProb", edited(Original,
                           [](BasicBlock &BB) {
                             if (BB.Term != TermKind::Cond)
                               return false;
                             BB.TakenProb = std::nextafter(BB.TakenProb, 1.0);
                             return true;
                           })},
      {"successor", edited(Original,
                           [](BasicBlock &BB) {
                             if (BB.Term != TermKind::Cond ||
                                 BB.Succs.size() != 2 ||
                                 BB.Succs[0] == BB.Succs[1])
                               return false;
                             std::swap(BB.Succs[0], BB.Succs[1]);
                             return true;
                           })},
      {"name", Renamed},
  };
  for (const Variant &V : Variants) {
    SCOPED_TRACE(V.What);
    ASSERT_FALSE(V.Prog == Original);
    std::vector<std::shared_ptr<const FlatImage>> P =
        preparePrograms({Original, V.Prog, Original}, MC, Base);
    EXPECT_EQ(&P[0]->cost(), &P[2]->cost());
    EXPECT_EQ(&P[0]->program().program(), &P[2]->program().program());
    EXPECT_NE(&P[0]->cost(), &P[1]->cost());
    EXPECT_NE(&P[0]->program().program(), &P[1]->program().program());
    EXPECT_TRUE(P[1]->program().program() == V.Prog);
  }

  // Machines: a structurally different machine gets its own base; the
  // same machine under another display name shares.
  PreparedSuite Quad = prepareSuite({Original}, MC, Base);
  PreparedSuite Sym =
      prepareSuite({Original}, MachineConfig::symmetricQuad(), Base);
  EXPECT_NE(&Quad.Flats[0]->cost(), &Sym.Flats[0]->cost());
  EXPECT_TRUE(Sym.Flats[0]->cost().machine() ==
              MachineConfig::symmetricQuad());
  MachineConfig Relabeled = MC;
  Relabeled.Name = "relabeled";
  PreparedSuite Same = prepareSuite({Original}, Relabeled, Base);
  EXPECT_EQ(&Quad.Flats[0]->cost(), &Same.Flats[0]->cost());
}

// The table holds no strong reference: once every prepared artifact is
// dropped the base dies, and the next preparation builds afresh.
TEST(SharedBase, BaseLivesOnlyWhilePreparedArtifactsDo) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<Program> Programs = randomPrograms(71, 3);
  const uint64_t N = Programs.size();
  std::weak_ptr<const FlatImage> Held[2];

  uint64_t Built = counterValue("analysis.cost_models_built");
  {
    PreparedSuite Tuned = prepareSuite(Programs, MC, loopTechnique());
    PreparedSuite Plain = prepareSuite(Programs, MC, TechniqueSpec::baseline());
    EXPECT_EQ(&Tuned.Flats[0]->cost(), &Plain.Flats[0]->cost());
    EXPECT_EQ(counterValue("analysis.cost_models_built") - Built, N);
    Held[0] = Tuned.Flats[0];
    Held[1] = Plain.Flats[0];
  }
  EXPECT_TRUE(Held[0].expired());
  EXPECT_TRUE(Held[1].expired());

  Built = counterValue("analysis.cost_models_built");
  PreparedSuite Again = prepareSuite(Programs, MC, loopTechnique());
  EXPECT_EQ(counterValue("analysis.cost_models_built") - Built, N);
}

// Static k-means typing depends only on the program and the typing seed,
// so it lives on the base too: the 18 paper variants typed statically
// build one typing per benchmark and seed, and every image they yield is
// byte-identical to the same technique prepared with no base alive.
TEST(SharedBase, StaticTypingsAreBuiltOncePerBaseAndSeed) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<Program> Programs = buildSuite();
  const size_t N = Programs.size();
  std::vector<TechniqueSpec> Techniques = tableTwoTechniques();
  Techniques.erase(Techniques.begin()); // The baseline is never typed.
  for (TechniqueSpec &Tech : Techniques)
    Tech.UseStaticTyping = true;
  ASSERT_EQ(Techniques.size(), 18u);
  const uint64_t Seeds[] = {42, 7};

  auto Bytes = [](const FlatImage &Flat) {
    BinaryWriter W;
    Flat.serialize(W);
    return W.buffer();
  };
  std::vector<std::vector<std::string>> Shared;
  {
    std::vector<PreparedSuite> Suites;
    for (uint64_t Seed : Seeds) {
      SCOPED_TRACE(Seed);
      uint64_t Built = counterValue("analysis.static_typings_built");
      uint64_t Reused = counterValue("analysis.static_typings_shared");
      for (const TechniqueSpec &Tech : Techniques)
        Suites.push_back(prepareSuite(Programs, MC, Tech, Seed));
      EXPECT_EQ(counterValue("analysis.static_typings_built") - Built, N);
      EXPECT_EQ(counterValue("analysis.static_typings_shared") - Reused,
                (Techniques.size() - 1) * N);
    }
    for (const PreparedSuite &S : Suites) {
      Shared.emplace_back();
      for (const auto &Flat : S.Flats)
        Shared.back().push_back(Bytes(*Flat));
    }
  }

  // Every suite above is gone, and with it every base: each technique
  // now computes its typings afresh.
  size_t Row = 0;
  for (uint64_t Seed : Seeds)
    for (const TechniqueSpec &Tech : Techniques) {
      SCOPED_TRACE(Tech.label() + " seed " + std::to_string(Seed));
      uint64_t Built = counterValue("analysis.static_typings_built");
      PreparedSuite Fresh = prepareSuite(Programs, MC, Tech, Seed);
      EXPECT_EQ(counterValue("analysis.static_typings_built") - Built, N);
      for (size_t I = 0; I < N; ++I)
        EXPECT_TRUE(Bytes(*Fresh.Flats[I]) == Shared[Row][I])
            << Programs[I].Name;
      ++Row;
    }
}

// Concurrent preparations race on the shared table: every thread still
// reproduces the pinned digests, and all of them end up on one base per
// program.
TEST(SharedBase, ConcurrentPreparationsReproducePinnedDigests) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  std::vector<TechniqueSpec> Techniques = pinTechniques();
  constexpr size_t Threads = 4;
  constexpr size_t Rows = sizeof(Pins) / sizeof(Pins[0]);
  std::vector<std::vector<PreparedSuite>> Suites(
      Threads, std::vector<PreparedSuite>(Rows));
  std::vector<std::vector<uint64_t>> Digests(Threads,
                                             std::vector<uint64_t>(Rows));
  std::vector<std::thread> Pool;
  for (size_t T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      // Each thread walks the rows from its own offset, over its own
      // copies of the programs.
      for (size_t K = 0; K < Rows; ++K) {
        size_t Row = (K + T * 3) % Rows;
        const PinRow &R = Pins[Row];
        std::vector<Program> Programs = randomPrograms(R.ProgramSeed, R.Count);
        Suites[T][Row] = prepareSuite(Programs, MC, Techniques[R.Tech],
                                      R.TypingSeed);
        Digests[T][Row] = suiteDigest(Suites[T][Row]);
      }
    });
  for (std::thread &Th : Pool)
    Th.join();

  for (size_t Row = 0; Row < Rows; ++Row)
    for (size_t T = 0; T < Threads; ++T) {
      EXPECT_EQ(Digests[T][Row], Pins[Row].Digest)
          << "thread " << T << ", row " << Row;
      for (size_t I = 0; I < Suites[T][Row].Flats.size(); ++I)
        EXPECT_EQ(&Suites[T][Row].Flats[I]->cost(),
                  &Suites[0][Row].Flats[I]->cost())
            << "thread " << T << ", row " << Row << ", program " << I;
    }
}
