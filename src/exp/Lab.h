//===- exp/Lab.h - Shared experiment context -------------------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Lab is one experiment context: a fixed program set on a fixed
/// machine with a fixed SimConfig, plus a SuiteCache so every technique
/// variant is prepared at most once per (preparation, typing-seed) and a
/// lazily measured isolated-runtime vector (the t_i of the fairness
/// metrics). Promoted out of bench/BenchCommon.h so experiment binaries,
/// sweeps, and tests all share one implementation. With `PBT_CACHE_DIR`
/// set, the lab's cache reads and writes per-program entries of the
/// process-wide persistent CacheStore, so preparations also survive
/// across processes.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_EXP_LAB_H
#define PBT_EXP_LAB_H

#include "exp/SuiteCache.h"
#include "metrics/Fairness.h"
#include "workload/Benchmarks.h"
#include "workload/Runner.h"

#include <vector>

namespace pbt {
namespace exp {

/// One baseline-vs-technique workload comparison: two replays of the
/// identical queues/seeds (the paper's same-queues methodology) with
/// their fairness metrics, plus the derived percent deltas.
struct Comparison {
  RunResult Base;           ///< Oblivious-baseline replay.
  RunResult Tuned;          ///< Technique replay of the same queues.
  FairnessMetrics BaseFair; ///< Fairness metrics of Base.
  FairnessMetrics TunedFair; ///< Fairness metrics of Tuned.

  /// Throughput improvement of Tuned over Base, in percent.
  double throughputImprovement() const {
    return percentIncrease(static_cast<double>(Base.InstructionsRetired),
                           static_cast<double>(Tuned.InstructionsRetired));
  }
  /// Decrease in average process time (the paper's "speedup"), percent.
  double avgTimeDecrease() const {
    return percentDecrease(BaseFair.AvgProcessTime,
                           TunedFair.AvgProcessTime);
  }
  /// Decrease in maximum flow time (fairness, Table 2), percent.
  double maxFlowDecrease() const {
    return percentDecrease(BaseFair.MaxFlow, TunedFair.MaxFlow);
  }
  /// Decrease in maximum stretch (fairness, Table 2), percent.
  double maxStretchDecrease() const {
    return percentDecrease(BaseFair.MaxStretch, TunedFair.MaxStretch);
  }
};

/// Shared experiment context: built programs, cached prepared suites, and
/// lazily measured isolated runtimes.
class Lab {
public:
  /// The default lab: the 15-benchmark paper suite on \p MachineCfg.
  explicit Lab(MachineConfig MachineCfg = MachineConfig::quadAsymmetric());

  /// A custom lab (subsetted program lists, ablation sim configs, ...).
  Lab(std::vector<Program> Programs, MachineConfig MachineCfg,
      SimConfig Sim = SimConfig());

  /// The lab's (fixed) benchmark programs.
  const std::vector<Program> &programs() const { return Programs; }
  /// The lab's machine description.
  const MachineConfig &machine() const { return MachineCfg; }
  /// The lab's simulator configuration.
  const SimConfig &sim() const { return Sim; }

  /// Isolated runtime t_i per benchmark, measured on first use
  /// (uninstrumented, alone on the machine, canonical seed).
  const std::vector<double> &isolated();

  /// The prepared suite for \p Tech, served from the cache when an
  /// equivalent preparation exists (see SuiteCache).
  PreparedSuite suite(const TechniqueSpec &Tech,
                      uint64_t TypingSeed = DefaultTypingSeed);

  /// Runs every benchmark alone to completion under \p Tech, fanned out
  /// over the global thread pool; results are by-index and bit-identical
  /// to the serial loop.
  std::vector<CompletedJob> isolatedJobs(const TechniqueSpec &Tech,
                                         uint64_t Seed = 1);

  /// isolatedJobs for the listed benchmark indices only; result I
  /// corresponds to Benches[I].
  std::vector<CompletedJob>
  isolatedJobs(const TechniqueSpec &Tech,
               const std::vector<uint32_t> &Benches, uint64_t Seed = 1);

  /// The lab's suite cache (counters are read by tests and the driver;
  /// with `PBT_CACHE_DIR` set it load-throughs the persistent store).
  SuiteCache &cache() { return Cache; }

private:
  MachineConfig MachineCfg;
  SimConfig Sim;
  std::vector<Program> Programs;
  SuiteCache Cache;
  std::vector<double> Isolated;
  bool IsolatedMeasured = false;
};

} // namespace exp
} // namespace pbt

#endif // PBT_EXP_LAB_H
