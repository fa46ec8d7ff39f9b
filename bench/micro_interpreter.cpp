//===- bench/micro_interpreter.cpp - execution-engine microbenchmark ------===//
//
// Measures the simulator's inner loop: interpreted blocks/sec and
// simulated cycles/sec for both execution engines — the block-at-a-time
// reference interpreter and the flat-image engine — on three images:
// the suite's heaviest workload (410.bwaves) plain and
// Loop[45]-instrumented, plus a chain-heavy synthetic (long mark-free
// jump chains inside a high-trip-count loop). The plain bwaves image is
// self-loop heavy like every suite phase body, so its flat-vs-reference
// ratio measures the O(1) self-loop fusion; the chain-heavy one
// measures the O(1) superblock charge.
//
// Emits BENCH_interpreter.json alongside the human-readable table so the
// interpreter's performance trajectory is tracked across PRs.
// PBT_BENCH_SCALE scales the repetition count; PBT_INTERP_REPS pins it.
// PBT_INTERP_MIN_FLAT_SPEEDUP, when set > 0, arms the CI perf-smoke
// gate: the benchmark exits nonzero when the flat-vs-reference
// blocks/sec ratio on the plain (self-loop heavy) image falls below
// it, or when the two engines disagree on any image's block or cycle
// total.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ir/IRBuilder.h"

#include <algorithm>
#include <chrono>
#include <memory>

using namespace pbt;
using namespace pbt::bench;

namespace {

struct EngineResult {
  double WallSec = 0;
  uint64_t Blocks = 0;
  double Cycles = 0;
  double blocksPerSec() const { return WallSec > 0 ? Blocks / WallSec : 0; }
  double cyclesPerSec() const { return WallSec > 0 ? Cycles / WallSec : 0; }
};

/// Runs benchmark \p Bench of \p Suite alone to completion under \p SC,
/// \p Reps times; reports the best wall time (setup excluded).
EngineResult measure(const PreparedSuite &Suite, uint32_t Bench,
                     const MachineConfig &MC, const SimConfig &SC,
                     int Reps) {
  EngineResult Best;
  Best.WallSec = 1e300;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    Machine M(MC, SC, std::make_unique<ObliviousScheduler>());
    uint32_t Pid =
        M.spawn(Suite.Images[Bench], Suite.Costs[Bench], Suite.Tuner,
                /*Seed=*/1, /*Slot=*/-1, /*InitialAffinity=*/0,
                Suite.Flats[Bench]);
    auto Start = std::chrono::steady_clock::now();
    while (M.process(Pid).CompletionTime < 0)
      M.run(M.now() + 64);
    double Wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
    const Process &P = M.process(Pid);
    if (Wall < Best.WallSec) {
      Best.WallSec = Wall;
      Best.Blocks = P.Stats.BlocksExecuted;
      Best.Cycles = P.Stats.CyclesConsumed;
    }
  }
  return Best;
}

Json engineJson(const EngineResult &R) {
  Json J = Json::object();
  J["wall_s"] = R.WallSec;
  J["blocks"] = R.Blocks;
  J["cycles"] = R.Cycles;
  J["blocks_per_sec"] = R.blocksPerSec();
  J["cycles_per_sec"] = R.cyclesPerSec();
  return J;
}

/// The fused-chain fast path's best case, shaped like the inner loop of
/// a straight-line kernel: \p ChainLen mark-free Jump blocks in a row
/// inside a loop latch with \p Trips iterations. Uninstrumented, every
/// body block lowers to FlatOp::Chain, so the flat engine retires the
/// whole body as one fused charge per iteration while the reference
/// interpreter steps all ChainLen blocks.
Program buildChainHeavy(uint32_t ChainLen, uint32_t Trips) {
  IRBuilder B("chain_heavy", /*Seed=*/7);
  uint32_t Main = B.createProc("main");
  uint32_t Entry = B.addBlock(Main);

  std::vector<uint32_t> Body;
  for (uint32_t I = 0; I < ChainLen; ++I) {
    uint32_t Blk = B.addBlock(Main);
    B.appendMix(Main, Blk, InstMix::compute(/*Count=*/12));
    Body.push_back(Blk);
  }
  B.setJump(Main, Entry, Body.front());
  for (uint32_t I = 0; I + 1 < ChainLen; ++I)
    B.setJump(Main, Body[I], Body[I + 1]);

  uint32_t Latch = B.addBlock(Main);
  B.appendMix(Main, Latch, InstMix::compute(/*Count=*/4));
  B.setJump(Main, Body.back(), Latch);
  uint32_t Exit = B.addBlock(Main);
  B.setRet(Main, Exit);
  B.setLoop(Main, Latch, Body.front(), Exit, Trips);
  return B.take();
}

} // namespace

int main() {
  ExperimentHarness H("interpreter", "Micro: execution-engine throughput",
                      "interpreter perf tracking (no paper figure)");

  const char *WorkloadName = "410.bwaves";
  Program Prog;
  for (const BenchSpec &S : specSuite())
    if (S.Name == WorkloadName)
      Prog = buildBenchmark(S);
  std::vector<Program> Programs;
  Programs.push_back(std::move(Prog));
  // Scale the chain-heavy trip count with the bench scale, but keep a
  // floor so even a smoke run executes enough blocks for its ratio to
  // be signal, not timer noise.
  uint32_t Trips = static_cast<uint32_t>(
      std::max(10000.0, 20000 * H.scale()));
  Programs.push_back(buildChainHeavy(/*ChainLen=*/48, Trips));

  Lab &L = H.customLab(std::move(Programs),
                       MachineConfig::quadAsymmetric());
  PreparedSuite Plain = L.suite(TechniqueSpec::baseline());
  PreparedSuite Marked = L.suite(loop45());

  int Reps = static_cast<int>(
      envInt("PBT_INTERP_REPS",
             std::max<int64_t>(1, static_cast<int64_t>(3 * H.scale()))));

  SimConfig Reference;
  Reference.Engine = ExecEngine::Reference;
  SimConfig Flat;
  Flat.Engine = ExecEngine::Flat;
  const SimConfig *Sims[2] = {&Reference, &Flat};

  struct Row {
    const char *Image;
    const char *Key;
    uint32_t Bench;
    const PreparedSuite *Suite;
    const SimConfig *Sim;
    EngineResult R;
  };
  std::vector<Row> Rows;
  struct ImageSpec {
    const char *Name;
    uint32_t Bench;
    const PreparedSuite *Suite;
  };
  const ImageSpec Images[3] = {{"plain", 0, &Plain},
                               {"instrumented", 0, &Marked},
                               {"chain_heavy", 1, &Plain}};
  for (const ImageSpec &Img : Images)
    for (const SimConfig *SC : Sims)
      Rows.push_back({Img.Name, engineName(SC->Engine), Img.Bench,
                      Img.Suite, SC, {}});
  for (Row &Entry : Rows)
    Entry.R = measure(*Entry.Suite, Entry.Bench, L.machine(), *Entry.Sim,
                      Reps);

  // Rows are image-major (reference, flat): per-image flat-vs-reference
  // ratios, and the engines' bit-identity on the same replay.
  double Speedups[3];
  bool Identical = true;
  for (int Img = 0; Img < 3; ++Img) {
    const EngineResult &Ref = Rows[Img * 2].R;
    const EngineResult &Fl = Rows[Img * 2 + 1].R;
    Speedups[Img] =
        Ref.blocksPerSec() > 0 ? Fl.blocksPerSec() / Ref.blocksPerSec() : 0;
    Identical = Identical && Ref.Blocks == Fl.Blocks && Ref.Cycles == Fl.Cycles;
  }

  Table T({"image", "engine", "wall s", "Mblocks/s", "Mcycles/s",
           "vs reference"});
  for (size_t I = 0; I < Rows.size(); ++I) {
    const Row &Entry = Rows[I];
    T.addRow({Entry.Image, Entry.Key, Table::fmt(Entry.R.WallSec, 4),
              Table::fmt(Entry.R.blocksPerSec() / 1e6, 2),
              Table::fmt(Entry.R.cyclesPerSec() / 1e6, 1),
              I % 2 ? Table::fmt(Speedups[I / 2], 2) + "x" : "-"});
  }
  H.table(T);

  const FlatImage &FI = *Plain.Flats[1];
  std::printf("\nchain-heavy flat image: %u blocks, %u chain records "
              "(%.0f%%), %u configs/block\n",
              FI.numBlocks(), FI.chainRecordCount(),
              100.0 * FI.chainRecordCount() / FI.numBlocks(),
              FI.configStride());
  std::printf("flat-vs-reference speedup: %.2fx plain, %.2fx "
              "instrumented, %.2fx chain-heavy; blocks and cycles %s\n",
              Speedups[0], Speedups[1], Speedups[2],
              Identical ? "identical" : "DIVERGED");

  Json &Extra = H.json();
  Extra["workload"] = WorkloadName;
  Extra["repetitions"] = Reps;
  for (const Row &Entry : Rows)
    Extra[Entry.Image][Entry.Key] = engineJson(Entry.R);
  Extra["speedup_flat_plain"] = Speedups[0];
  Extra["speedup_flat_instrumented"] = Speedups[1];
  Extra["speedup_flat_chain_heavy"] = Speedups[2];
  Extra["engines_identical"] = Identical;

  int Rc = H.finish();

  // CI perf-smoke gate: losing the O(1) self-loop fusion drops the
  // plain image's ratio to the stepwise engine's few x, failing the
  // build rather than just the dashboard.
  double Floor = envDouble("PBT_INTERP_MIN_FLAT_SPEEDUP", 0);
  if (Floor > 0) {
    if (Speedups[0] < Floor) {
      std::fprintf(stderr,
                   "FAIL: flat-vs-reference speedup %.2fx on the plain "
                   "image below PBT_INTERP_MIN_FLAT_SPEEDUP=%.2fx\n",
                   Speedups[0], Floor);
      return 1;
    }
    if (!Identical) {
      std::fprintf(stderr, "FAIL: flat and reference engines disagree on "
                           "blocks or cycles (see the table above)\n");
      return 1;
    }
  }
  return Rc;
}
