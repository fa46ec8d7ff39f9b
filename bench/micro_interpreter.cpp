//===- bench/micro_interpreter.cpp - execution-engine microbenchmark ------===//
//
// Measures the simulator's inner loop: interpreted blocks/sec and
// simulated cycles/sec for both execution engines — the block-at-a-time
// reference interpreter and the flat-image engine — on two images:
// the suite's heaviest workload (410.bwaves) plain and
// Loop[45]-instrumented. The plain bwaves image is self-loop heavy like
// every suite phase body, so its flat-vs-reference ratio measures the
// O(1) self-loop fusion.
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

/// Runs the one benchmark of \p Suite alone to completion under \p SC,
/// \p Reps times; reports the best wall time (setup excluded).
EngineResult measure(const PreparedSuite &Suite, const MachineConfig &MC,
                     const SimConfig &SC, int Reps) {
  EngineResult Best;
  Best.WallSec = 1e300;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    Machine M(MC, SC, std::make_unique<ObliviousScheduler>());
    uint32_t Pid = M.spawn(Suite.Flats[0], Suite.Tuner, /*Seed=*/1);
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
    const PreparedSuite *Suite;
    const SimConfig *Sim;
    EngineResult R;
  };
  std::vector<Row> Rows;
  struct ImageSpec {
    const char *Name;
    const PreparedSuite *Suite;
  };
  const ImageSpec Images[2] = {{"plain", &Plain}, {"instrumented", &Marked}};
  for (const ImageSpec &Img : Images)
    for (const SimConfig *SC : Sims)
      Rows.push_back({Img.Name, engineName(SC->Engine), Img.Suite, SC, {}});
  for (Row &Entry : Rows)
    Entry.R = measure(*Entry.Suite, L.machine(), *Entry.Sim, Reps);

  // Rows are image-major (reference, flat): per-image flat-vs-reference
  // ratios, and the engines' bit-identity on the same replay.
  double Speedups[2];
  bool Identical = true;
  for (int Img = 0; Img < 2; ++Img) {
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

  std::printf("\nflat-vs-reference speedup: %.2fx plain, %.2fx "
              "instrumented; blocks and cycles %s\n",
              Speedups[0], Speedups[1], Identical ? "identical" : "DIVERGED");

  Json &Extra = H.json();
  Extra["workload"] = WorkloadName;
  Extra["repetitions"] = Reps;
  for (const Row &Entry : Rows)
    Extra[Entry.Image][Entry.Key] = engineJson(Entry.R);
  Extra["speedup_flat_plain"] = Speedups[0];
  Extra["speedup_flat_instrumented"] = Speedups[1];
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
