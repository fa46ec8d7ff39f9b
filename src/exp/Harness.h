//===- exp/Harness.h - Unified experiment harness --------------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ExperimentHarness ties the experiment layer together for the
/// bench binaries: it owns one Lab per machine (each with its own suite
/// cache), executes declarative SweepGrids, and accumulates everything an
/// experiment produces — rendered tables, notes, and self-describing
/// sweep cells — into a canonical `BENCH_<name>.json` artifact written by
/// finish(). A binary becomes a thin declaration:
///
///   ExperimentHarness H("table2_fairness", "Table 2: ...", "CGO'11 ...");
///   SweepGrid G;
///   G.Techniques = ...;
///   G.Workloads = {{18, 800 * H.scale(), 21}};
///   SweepResult R = H.sweep(H.lab(), G);
///   ... build a Table from R ...
///   H.table(T);
///   H.note("paper reference points ...");
///   return H.finish();
///
//===----------------------------------------------------------------------===//

#ifndef PBT_EXP_HARNESS_H
#define PBT_EXP_HARNESS_H

#include "exp/Lab.h"
#include "exp/Sweep.h"
#include "support/Json.h"
#include "support/Table.h"

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pbt {
namespace exp {

/// Suite-cache counters summed over labs (SuiteCache's accessors of
/// the same names).
struct SuiteCacheTotals {
  uint64_t MemoryHits = 0;
  uint64_t StoreHits = 0;
  uint64_t Prepared = 0;
  uint64_t PreparedPrograms = 0;
  uint64_t ProgramStoreHits = 0;

  void add(const SuiteCache &Cache);
};

/// A pool of per-machine Labs. The process has one
/// (ExperimentHarness::labPool), so every experiment bench/driver runs
/// reuses the same labs — one isolated-runtime measurement and one
/// suite cache per machine for the whole run.
class LabPool {
public:
  /// The lab for \p MachineCfg, created on first use. Labs are matched
  /// by structural equality AND Name (two structurally equal machines
  /// with different display names get their own labs so artifacts label
  /// them correctly). Linear scan: a process touches a handful of
  /// machines at most.
  ///
  /// Resolution is thread-safe (the pool's map is mutex-guarded, and
  /// heap-allocated Labs keep their addresses across growth). The
  /// returned Lab is NOT thread-safe.
  Lab &lab(const MachineConfig &MachineCfg);

  /// Every pooled lab created so far.
  std::vector<Lab *> labs();

  /// Adds the cache counters of \p L, a lab outside the pool that is
  /// about to go away (a harness's custom lab), to totals().
  void retire(Lab &L);

  /// Suite-cache counters of every pooled lab plus every retired one.
  SuiteCacheTotals totals();

private:
  std::mutex Mutex;
  std::vector<std::pair<MachineConfig, std::unique_ptr<Lab>>> Labs;
  SuiteCacheTotals Retired;
};

/// Shared driver for all experiment binaries: labs, sweeps, artifact.
class ExperimentHarness {
public:
  /// Prints the standard experiment banner and starts the artifact.
  /// \p Name keys the artifact file (`BENCH_<Name>.json`), \p Title is
  /// the human headline, \p PaperRef names the reproduced figure/table.
  ExperimentHarness(std::string Name, std::string Title,
                    std::string PaperRef);

  /// Retires the custom labs into the pool's totals().
  ~ExperimentHarness();

  /// Horizon scale from PBT_BENCH_SCALE.
  double scale() const { return Scale; }

  /// The lab for \p MachineCfg from the process-wide pool, created on
  /// first use and shared (with its suite cache) by every sweep on that
  /// machine, in this harness and every other. Experiment artifacts
  /// are byte-identical whether the lab is cold or warmed by earlier
  /// experiments (prepared suites and isolated runtimes are
  /// deterministic, and artifacts carry no warm-state-dependent
  /// fields); tests/exp_test.cpp locks this in.
  Lab &lab(const MachineConfig &MachineCfg = MachineConfig::quadAsymmetric());

  /// The process-wide pool lab() resolves through (the driver reads
  /// its labs' cache counters).
  static LabPool &labPool();

  /// Registers a custom lab (subsetted programs, ablation SimConfigs)
  /// under the harness's lifetime and returns it. Its cache counters
  /// join labPool().totals() when the harness is destroyed.
  Lab &customLab(std::vector<Program> Programs, MachineConfig MachineCfg,
                 SimConfig Sim = SimConfig());

  /// Runs \p Grid on \p L and records every cell (with technique /
  /// machine / workload / seed labels and canonical metrics) into the
  /// artifact's "sweeps" array.
  SweepResult sweep(Lab &L, const SweepGrid &Grid);

  /// Runs \p Grid once per machine of its machine axis (default:
  /// quadAsymmetric) on the corresponding lab; results are per machine,
  /// in axis order.
  std::vector<SweepResult> sweep(const SweepGrid &Grid);

  /// Prints \p T to stdout and records it in the artifact.
  void table(const Table &T);

  /// Prints \p Text (blank-line separated) and records it.
  void note(const std::string &Text);

  /// Free-form artifact section for experiment-specific extras.
  Json &json() { return Root; }

  /// Writes `BENCH_<name>.json`; returns the binary's exit code (0 on
  /// success, 1 when the artifact could not be written).
  int finish();

private:
  std::string Name;
  double Scale;
  Json Root;
  std::vector<std::unique_ptr<Lab>> CustomLabs;
};

} // namespace exp
} // namespace pbt

#endif // PBT_EXP_HARNESS_H
