//===- analysis/PassManager.h - Preparation pipeline stats -----*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-stage counters of the static preparation pipeline. The pipeline
/// itself is the stage loop in workload/Runner.cpp (preparePrograms),
/// which also defines cumulativePipelineStats(); this header only
/// declares the stats shape that the driver and the repository
/// benchmark read.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_ANALYSIS_PASSMANAGER_H
#define PBT_ANALYSIS_PASSMANAGER_H

#include <cstdint>
#include <string>
#include <vector>

namespace pbt {

/// Counters of one pipeline stage, cumulative over the process.
/// Programs is deterministic; Seconds is wall time and must never feed a
/// byte-compared artifact (the driver surfaces it only in
/// BENCH_driver.json, which is excluded from every byte-identity check).
struct PassStats {
  std::string Name;
  /// Programs the stage ran on.
  uint64_t Programs = 0;
  /// Wall time of the stage's sweeps.
  double Seconds = 0;
};

struct PipelineStats {
  std::vector<PassStats> Passes;
};

/// Cumulative per-stage stats over every preparation of this process, in
/// the fixed stage order: cost-model, typing, error-inject, transitions,
/// instrument, flatten — then a "verify" row once a verify-IR sweep has
/// run.
PipelineStats cumulativePipelineStats();

} // namespace pbt

#endif // PBT_ANALYSIS_PASSMANAGER_H
