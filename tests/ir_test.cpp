//===- tests/ir_test.cpp - IR, verifier, builder tests --------------------===//

#include "ir/IRBuilder.h"
#include "ir/Program.h"

#include <gtest/gtest.h>

#include <vector>

using namespace pbt;

// operator== on the IR compares every field. These mirrors list the
// fields in declaration order; a field added to Instruction or
// BasicBlock changes its size and fails the build here until operator==
// and the mirror are extended together.
namespace {
struct InstructionFields {
  InstKind Kind;
  uint8_t SizeBytes;
  int32_t MemRef;
  int32_t Callee;
};
struct BasicBlockFields {
  uint32_t Id;
  std::vector<Instruction> Insts;
  TermKind Term;
  std::vector<uint32_t> Succs;
  uint32_t TripCount;
  double TakenProb;
  uint32_t StreamWorkingSet;
};
} // namespace
static_assert(sizeof(Instruction) == sizeof(InstructionFields),
              "Instruction gained a field: extend operator== and the mirror");
static_assert(sizeof(BasicBlock) == sizeof(BasicBlockFields),
              "BasicBlock gained a field: extend operator== and the mirror");

namespace {

/// Minimal valid program: main with a single ret block.
Program trivialProgram() {
  IRBuilder B("t");
  uint32_t Main = B.createProc("main");
  uint32_t Entry = B.addBlock(Main);
  B.appendMix(Main, Entry, InstMix::compute(8));
  B.setRet(Main, Entry);
  return B.take();
}

} // namespace

TEST(Instruction, Factories) {
  EXPECT_EQ(Instruction::intAlu().Kind, InstKind::IntAlu);
  EXPECT_EQ(Instruction::fpAlu().Kind, InstKind::FpAlu);
  EXPECT_EQ(Instruction::load(3).MemRef, 3);
  EXPECT_EQ(Instruction::store(4).MemRef, 4);
  EXPECT_EQ(Instruction::call(2).Callee, 2);
  EXPECT_EQ(Instruction::ret().Kind, InstKind::Ret);
  EXPECT_TRUE(isMemoryKind(InstKind::Load));
  EXPECT_TRUE(isMemoryKind(InstKind::Store));
  EXPECT_FALSE(isMemoryKind(InstKind::Branch));
}

TEST(Instruction, KindNames) {
  EXPECT_STREQ(instKindName(InstKind::IntAlu), "int");
  EXPECT_STREQ(instKindName(InstKind::Load), "load");
  EXPECT_STREQ(instKindName(InstKind::Syscall), "sys");
}

TEST(BasicBlock, SizeAndBytes) {
  BasicBlock BB;
  BB.Insts = {Instruction::intAlu(2), Instruction::load(0, 4),
              Instruction::store(1, 4)};
  EXPECT_EQ(BB.size(), 3u);
  EXPECT_EQ(BB.byteSize(), 10u);
  EXPECT_EQ(BB.memOpCount(), 2u);
  EXPECT_EQ(BB.calleeOrNone(), -1);
}

TEST(BasicBlock, CalleeDetection) {
  BasicBlock BB;
  BB.Insts = {Instruction::intAlu(), Instruction::call(5)};
  EXPECT_EQ(BB.calleeOrNone(), 5);
}

TEST(Instruction, EqualityComparesEveryField) {
  const Instruction Base = Instruction::load(3, 4);
  EXPECT_TRUE(Base == Instruction::load(3, 4));
  Instruction I = Base;
  I.Kind = InstKind::Store;
  EXPECT_FALSE(I == Base);
  I = Base;
  I.SizeBytes = 5;
  EXPECT_FALSE(I == Base);
  I = Base;
  I.MemRef = 4;
  EXPECT_FALSE(I == Base);
  I = Base;
  I.Callee = 0;
  EXPECT_FALSE(I == Base);
}

TEST(BasicBlock, EqualityComparesEveryField) {
  BasicBlock Base;
  Base.Id = 2;
  Base.Insts = {Instruction::intAlu(), Instruction::load(1)};
  Base.Term = TermKind::Cond;
  Base.Succs = {3, 4};
  Base.TripCount = 1;
  Base.TakenProb = 0.25;
  Base.StreamWorkingSet = 64;
  BasicBlock Copy = Base;
  EXPECT_TRUE(Copy == Base);

  std::vector<void (*)(BasicBlock &)> Edits = {
      [](BasicBlock &B) { B.Id = 3; },
      [](BasicBlock &B) { B.Insts[1].MemRef = 2; },
      [](BasicBlock &B) { B.Insts.pop_back(); },
      [](BasicBlock &B) { B.Term = TermKind::Loop; },
      [](BasicBlock &B) { B.Succs[1] = 5; },
      [](BasicBlock &B) { B.Succs.pop_back(); },
      [](BasicBlock &B) { B.TripCount = 2; },
      [](BasicBlock &B) { B.TakenProb = 0.5; },
      [](BasicBlock &B) { B.StreamWorkingSet = 0; },
  };
  for (size_t E = 0; E < Edits.size(); ++E) {
    BasicBlock Changed = Base;
    Edits[E](Changed);
    EXPECT_FALSE(Changed == Base) << "edit " << E;
  }
}

TEST(Program, EqualityComparesEveryField) {
  const Program Base = trivialProgram();
  EXPECT_TRUE(trivialProgram() == Base);

  Program P = Base;
  P.Name = "u";
  EXPECT_FALSE(P == Base);
  P = Base;
  P.Procs[0].Id = 1;
  EXPECT_FALSE(P == Base);
  P = Base;
  P.Procs[0].Name = "other";
  EXPECT_FALSE(P == Base);
  P = Base;
  P.Procs[0].Blocks[0].Insts[0] = Instruction::fpAlu();
  EXPECT_FALSE(P == Base);
  P = Base;
  P.Procs[0].Blocks.push_back(P.Procs[0].Blocks[0]);
  EXPECT_FALSE(P == Base);
  P = Base;
  P.Procs.push_back(P.Procs[0]);
  EXPECT_FALSE(P == Base);
}

TEST(Verifier, AcceptsTrivial) {
  Program Prog = trivialProgram();
  std::string Error;
  EXPECT_TRUE(verify(Prog, &Error)) << Error;
}

TEST(Verifier, RejectsEmptyProgram) {
  Program Prog;
  std::string Error;
  EXPECT_FALSE(verify(Prog, &Error));
  EXPECT_NE(Error.find("no procedures"), std::string::npos);
}

TEST(Verifier, RejectsOutOfRangeSuccessor) {
  Program Prog = trivialProgram();
  Prog.Procs[0].Blocks[0].Term = TermKind::Jump;
  Prog.Procs[0].Blocks[0].Succs = {99};
  EXPECT_FALSE(verify(Prog));
}

TEST(Verifier, RejectsWrongArity) {
  Program Prog = trivialProgram();
  Prog.Procs[0].Blocks[0].Term = TermKind::Jump;
  Prog.Procs[0].Blocks[0].Succs = {0, 0};
  EXPECT_FALSE(verify(Prog));
}

TEST(Verifier, RejectsLoopWithEqualSuccessors) {
  Program Prog = trivialProgram();
  BasicBlock &BB = Prog.Procs[0].Blocks[0];
  BB.Term = TermKind::Loop;
  BB.Succs = {0, 0};
  BB.TripCount = 2;
  EXPECT_FALSE(verify(Prog));
}

TEST(Verifier, RejectsBadProbability) {
  IRBuilder B("t");
  uint32_t Main = B.createProc("main");
  uint32_t A = B.addBlock(Main);
  uint32_t X = B.addBlock(Main);
  uint32_t Y = B.addBlock(Main);
  B.setCond(Main, A, X, Y, 0.5);
  B.setRet(Main, X);
  B.setRet(Main, Y);
  Program Prog = B.take();
  Prog.Procs[0].Blocks[0].TakenProb = 1.5;
  EXPECT_FALSE(verify(Prog));
}

TEST(Verifier, RejectsCallNotLast) {
  Program Prog = trivialProgram();
  BasicBlock &BB = Prog.Procs[0].Blocks[0];
  BB.Insts = {Instruction::call(0), Instruction::intAlu()};
  BB.Term = TermKind::Jump;
  BB.Succs = {0};
  EXPECT_FALSE(verify(Prog));
}

TEST(Verifier, RejectsBadCallTarget) {
  Program Prog = trivialProgram();
  BasicBlock &BB = Prog.Procs[0].Blocks[0];
  BB.Insts = {Instruction::call(7)};
  BB.Term = TermKind::Jump;
  BB.Succs = {0};
  EXPECT_FALSE(verify(Prog));
}

TEST(Verifier, RejectsRetWithSuccessors) {
  Program Prog = trivialProgram();
  Prog.Procs[0].Blocks[0].Succs = {0};
  EXPECT_FALSE(verify(Prog));
}

TEST(Printer, MentionsBlocksAndCalls) {
  IRBuilder B("printer");
  uint32_t Main = B.createProc("main");
  uint32_t Helper = B.createProc("helper");
  uint32_t HEntry = B.addBlock(Helper);
  B.setRet(Helper, HEntry);
  uint32_t A = B.addBlock(Main);
  B.appendCall(Main, A, Helper);
  uint32_t C = B.addBlock(Main);
  B.setJump(Main, A, C);
  B.setRet(Main, C);
  Program Prog = B.take();
  std::string Text = printProgram(Prog);
  EXPECT_NE(Text.find("main"), std::string::npos);
  EXPECT_NE(Text.find("calls helper"), std::string::npos);
  EXPECT_NE(Text.find("bb0"), std::string::npos);
}

TEST(Builder, MixFractionsRespected) {
  IRBuilder B("mix");
  uint32_t Main = B.createProc("main");
  uint32_t Entry = B.addBlock(Main);
  InstMix Mix;
  Mix.Count = 100;
  Mix.FpFrac = 0.2;
  Mix.LoadFrac = 0.3;
  Mix.StoreFrac = 0.1;
  Mix.BranchFrac = 0.1;
  B.appendMix(Main, Entry, Mix);
  B.setRet(Main, Entry);
  Program Prog = B.take();
  const BasicBlock &BB = Prog.Procs[0].Blocks[0];
  size_t Fp = 0, Load = 0, Store = 0;
  for (const Instruction &I : BB.Insts) {
    Fp += I.Kind == InstKind::FpAlu;
    Load += I.Kind == InstKind::Load;
    Store += I.Kind == InstKind::Store;
  }
  EXPECT_EQ(Fp, 20u);
  EXPECT_EQ(Load, 30u);
  EXPECT_EQ(Store, 10u);
}

TEST(Builder, HotRefsRepeatWithinBlock) {
  IRBuilder B("hot");
  uint32_t Main = B.createProc("main");
  uint32_t Entry = B.addBlock(Main);
  InstMix Mix;
  Mix.Count = 80;
  Mix.LoadFrac = 0.5;
  Mix.HotLines = 4;
  Mix.ColdFrac = 0;
  B.appendMix(Main, Entry, Mix);
  B.setRet(Main, Entry);
  Program Prog = B.take();
  const BasicBlock &BB = Prog.Procs[0].Blocks[0];
  EXPECT_EQ(BB.StreamWorkingSet, 0u);
  // All refs fall in the 4-line hot set.
  for (const Instruction &I : BB.Insts) {
    if (isMemoryKind(I.Kind)) {
      EXPECT_LT(I.MemRef, 4);
    }
  }
}

TEST(Builder, ColdRefsDeclareStream) {
  IRBuilder B("cold");
  uint32_t Main = B.createProc("main");
  uint32_t Entry = B.addBlock(Main);
  InstMix Mix;
  Mix.Count = 100;
  Mix.LoadFrac = 0.4;
  Mix.ColdFrac = 0.5;
  Mix.ColdLines = 50000;
  B.appendMix(Main, Entry, Mix);
  B.setRet(Main, Entry);
  Program Prog = B.take();
  EXPECT_EQ(Prog.Procs[0].Blocks[0].StreamWorkingSet, 50000u);
}

TEST(Builder, TakeAppendsTerminatorInstructions) {
  IRBuilder B("term");
  uint32_t Main = B.createProc("main");
  uint32_t A = B.addBlock(Main);
  uint32_t C = B.addBlock(Main);
  B.setJump(Main, A, C);
  B.setRet(Main, C);
  Program Prog = B.take();
  EXPECT_EQ(Prog.Procs[0].Blocks[0].Insts.back().Kind, InstKind::Branch);
  EXPECT_EQ(Prog.Procs[0].Blocks[1].Insts.back().Kind, InstKind::Ret);
}

TEST(Builder, CallBlockGetsNoExtraBranch) {
  IRBuilder B("callterm");
  uint32_t Main = B.createProc("main");
  uint32_t Helper = B.createProc("h");
  uint32_t HEntry = B.addBlock(Helper);
  B.setRet(Helper, HEntry);
  uint32_t A = B.addBlock(Main);
  B.appendCall(Main, A, Helper);
  uint32_t C = B.addBlock(Main);
  B.setJump(Main, A, C);
  B.setRet(Main, C);
  Program Prog = B.take();
  EXPECT_EQ(Prog.Procs[0].Blocks[0].Insts.back().Kind, InstKind::Call);
}

TEST(Builder, AddLoopRegionWiresLoop) {
  IRBuilder B("loopreg");
  uint32_t Main = B.createProc("main");
  uint32_t Entry = B.addBlock(Main);
  uint32_t Join = B.addLoopRegion(Main, Entry, InstMix::compute(16), 10);
  B.setRet(Main, Join);
  Program Prog = B.take();
  const Procedure &P = Prog.Procs[0];
  const BasicBlock &Body = P.Blocks[1];
  EXPECT_EQ(Body.Term, TermKind::Loop);
  EXPECT_EQ(Body.TripCount, 10u);
  EXPECT_EQ(Body.Succs[0], Body.Id);
  EXPECT_EQ(Body.Succs[1], Join);
}

TEST(Builder, DeterministicForSeed) {
  auto Build = [] {
    IRBuilder B("det", 99);
    uint32_t Main = B.createProc("main");
    uint32_t Entry = B.addBlock(Main);
    B.appendMix(Main, Entry, InstMix::memory(64, 1000, 0.2));
    B.setRet(Main, Entry);
    return B.take();
  };
  Program A = Build();
  Program B2 = Build();
  ASSERT_EQ(A.Procs[0].Blocks[0].Insts.size(),
            B2.Procs[0].Blocks[0].Insts.size());
  for (size_t I = 0; I < A.Procs[0].Blocks[0].Insts.size(); ++I)
    EXPECT_EQ(A.Procs[0].Blocks[0].Insts[I].Kind,
              B2.Procs[0].Blocks[0].Insts[I].Kind);
}

TEST(Program, CountsAggregate) {
  Program Prog = trivialProgram();
  EXPECT_EQ(Prog.blockCount(), 1u);
  EXPECT_GT(Prog.instructionCount(), 0u);
  EXPECT_GT(Prog.byteSize(), 0u);
  EXPECT_EQ(&Prog.main(), &Prog.Procs[0]);
}
