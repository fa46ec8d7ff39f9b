//===- exp/Guard.h - Isolated experiment execution -------------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault boundary between bench/driver and individual experiments:
/// `runGuarded` runs one experiment body once, inline, and reports what
/// happened instead of letting a single crashing experiment take down
/// the whole batch. The driver wraps every registered experiment in it,
/// so one failure degrades to a line in `BENCH_driver.json`'s failure
/// summary (and a nonzero driver exit) while every other experiment
/// still runs and still emits its byte-identical `BENCH_*.json`.
///
/// There is no retry and no timeout. Experiment bodies are seeded,
/// deterministic simulations, so a retry would replay the same failure,
/// and a body cannot hang: replays stop at their simulated horizon, and
/// `runIsolated` throws after 1e7 simulated seconds.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_EXP_GUARD_H
#define PBT_EXP_GUARD_H

#include <functional>
#include <string>

namespace pbt {
namespace exp {

/// What one guarded execution did.
struct GuardedResult {
  enum class Status {
    Ok,       ///< Returned 0.
    Failed,   ///< Returned nonzero.
    Exception ///< Threw (Error holds what()).
  };

  Status St = Status::Ok;
  int ExitCode = 0;           ///< The body's return value; -1 if it threw.
  double DurationSeconds = 0; ///< Wall clock of the run.
  std::string Error;          ///< Exception text; empty otherwise.

  bool ok() const { return St == Status::Ok; }
  /// Stable lowercase name ("ok", "failed", "exception") for the
  /// driver's JSON report.
  const char *statusName() const;
};

/// Runs \p Fn once on the calling thread. Never throws; every outcome
/// is a result.
GuardedResult runGuarded(const std::function<int()> &Fn);

} // namespace exp
} // namespace pbt

#endif // PBT_EXP_GUARD_H
