//===- exp/Sweep.h - Declarative technique/workload sweeps -----*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The declarative sweep layer of the experiment harness. A SweepGrid
/// names the axes of an experiment — technique variants, machines,
/// workload shapes, typing seeds — and runSweep executes the cross
/// product: suites are prepared once per distinct preparation (served by
/// the Lab's SuiteCache), every cell's workload replay is an independent
/// simulation fanned out over the global thread pool in one batch, and
/// each unique workload's baseline replay is run exactly once and shared
/// by every cell that compares against it. Results are canonical
/// per-cell RunResults, bit-identical to running each cell serially.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_EXP_SWEEP_H
#define PBT_EXP_SWEEP_H

#include "exp/Lab.h"
#include "metrics/Latency.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace pbt {
namespace exp {

/// One workload shape: how many slots, how long, which queues.
struct WorkloadSpec {
  /// Concurrent job slots (the paper's "workload size").
  uint32_t Slots = 18;
  /// Simulated horizon in seconds (callers pre-scale by envScale()).
  double Horizon = 400;
  /// Workload-generation seed (queues + per-job branch seeds).
  uint64_t Seed = 21;
  /// Queue depth per slot; 512 keeps every slot busy for the longest
  /// horizons used.
  uint32_t JobsPerSlot = 512;
};

/// Axes of one sweep. Cells enumerate Techniques x Workloads x
/// TypingSeeds x Schedulers x Scenarios (machines are handled one Lab at
/// a time; see ExperimentHarness::sweep for the machine axis).
struct SweepGrid {
  std::vector<TechniqueSpec> Techniques;
  std::vector<WorkloadSpec> Workloads;
  /// Machine axis, used by ExperimentHarness::sweep(Grid); empty means
  /// the default quadAsymmetric machine.
  std::vector<MachineConfig> Machines;
  std::vector<uint64_t> TypingSeeds = {42};
  /// OS scheduling-policy axis; the default single oblivious entry is
  /// the classic pre-axis behaviour (an empty vector is treated the
  /// same). Orthogonal to suite preparation: sweeping only this axis
  /// replays the same cached images under each policy and never
  /// re-runs the static pipeline.
  std::vector<SchedulerSpec> Schedulers = {SchedulerSpec()};
  /// Traffic-scenario axis; the default single batch entry is the
  /// classic closed-system behaviour (an empty vector is treated the
  /// same). Like the scheduler axis it is a pure replay-time knob —
  /// scenario-only sweeps replay cached images with zero preparations.
  std::vector<ScenarioSpec> Scenarios = {ScenarioSpec()};
  /// Also replay each workload under the uninstrumented baseline (once
  /// per workload, shared across techniques) so cells can report
  /// vs-baseline deltas. The baseline is always the paper's reference
  /// point — uninstrumented programs under the oblivious scheduler —
  /// regardless of the Schedulers axis.
  bool WithBaseline = true;
  /// Export each cell's per-core-type scheduler telemetry
  /// (RunResult::InstsByType/CyclesByType and the final IPC windows)
  /// into the artifact as a "telemetry" block. Off by default: the
  /// block adds bytes to every cell (see docs/BENCH_SCHEMA.md,
  /// pbt-bench-v7).
  bool ExportTelemetry = false;

  /// The scheduler axis with the empty-vector default applied. Both
  /// runSweep (execution) and the harness (cell labeling) index
  /// SweepCell::Scheduler through this one accessor, so labels can
  /// never drift from what actually ran.
  const std::vector<SchedulerSpec> &effectiveSchedulers() const;

  /// The scenario axis with the empty-vector default applied (the same
  /// single-accessor contract as effectiveSchedulers).
  const std::vector<ScenarioSpec> &effectiveScenarios() const;
};

/// One executed cell: axis indices plus the canonical run results.
struct SweepCell {
  uint32_t Technique = 0;  ///< Index into SweepGrid::Techniques.
  uint32_t Workload = 0;   ///< Index into SweepGrid::Workloads.
  uint32_t TypingSeed = 0; ///< Index into SweepGrid::TypingSeeds.
  /// Index into SweepGrid::effectiveSchedulers() — equal to an index
  /// into Schedulers whenever the axis was set explicitly, but always
  /// valid even for a grid whose Schedulers vector was cleared.
  uint32_t Scheduler = 0;
  /// Index into SweepGrid::effectiveScenarios() (same contract).
  uint32_t Scenario = 0;
  RunResult Run;           ///< Canonical replay result of this cell.
  FairnessMetrics Fair;    ///< Fairness metrics over Run's completions.
  LatencyMetrics Latency;  ///< Latency/throughput metrics of Run.
};

/// All cells of one grid on one machine, in technique-major order
/// (technique, then workload, then typing seed, then scheduler, then
/// scenario).
struct SweepResult {
  std::vector<SweepCell> Cells;
  /// Baseline replay per workload index (empty without WithBaseline).
  std::vector<RunResult> Baselines;
  std::vector<FairnessMetrics> BaselineFair;
  std::vector<LatencyMetrics> BaselineLatency;

  /// True when the grid ran with WithBaseline; base()/comparison()/
  /// throughputImprovement() may only be called when this holds.
  bool hasBaselines() const { return !Baselines.empty(); }

  const RunResult &base(const SweepCell &Cell) const {
    assert(hasBaselines() && "grid ran with WithBaseline = false");
    return Baselines[Cell.Workload];
  }

  /// Assembles the classic baseline-vs-technique comparison for a cell.
  Comparison comparison(const SweepCell &Cell) const;

  /// Throughput improvement of a cell over its workload's baseline, %.
  double throughputImprovement(const SweepCell &Cell) const;
};

/// Executes \p Grid on \p L (the grid's machine axis is ignored here;
/// the Lab fixes the machine). Preparation happens through the Lab's
/// suite cache; all workload replays run as one parallel batch. Each
/// replay job has a unit id that names its TRACE_* file when tracing is
/// on (obs/Trace.h): baselines first ("base/w<W>"), then cells
/// ("cell/t<T>/w<W>/s<S>/c<C>/n<N>") in technique-major nest order. A
/// baseline-coincident cell reuses its baseline's job and adds no unit.
SweepResult runSweep(Lab &L, const SweepGrid &Grid);

} // namespace exp
} // namespace pbt

#endif // PBT_EXP_SWEEP_H
