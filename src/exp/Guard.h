//===- exp/Guard.h - Isolated, retried experiment execution ----*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault boundary between bench/driver and individual experiments:
/// `runGuarded` runs one experiment body behind an optional wall-clock
/// timeout and a bounded retry loop, and reports what happened instead
/// of letting a single wedged or crashing experiment take down the
/// whole batch. The driver wraps every registered experiment in it, so
/// one failure degrades to a line in `BENCH_driver.json`'s failure
/// summary (and a nonzero driver exit) while every other experiment
/// still runs and still emits its byte-identical `BENCH_*.json`.
///
/// Semantics:
///  - A nonzero return or a thrown exception counts as a failed
///    attempt; attempts repeat up to `MaxAttempts` (transient faults —
///    e.g. injected EIO on the cache store — often pass on retry).
///  - A timeout abandons the attempt: the runner thread is detached
///    (a cooperative cancel does not exist here; the thread may hold
///    arbitrary experiment state) and **no further retries run**,
///    since the wedged attempt could still be mutating shared caches.
///  - `DurationSeconds` is the total wall clock across all attempts.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_EXP_GUARD_H
#define PBT_EXP_GUARD_H

#include <functional>
#include <string>

namespace pbt {
namespace exp {

/// Policy for one guarded execution.
struct GuardOptions {
  /// Wall-clock budget per attempt in seconds; <= 0, NaN, infinity, or
  /// a value too large for the clock disables the timeout (the body
  /// runs inline on the calling thread).
  double TimeoutSeconds = 0;
  /// Total attempts (first run + retries); clamped to at least 1.
  unsigned MaxAttempts = 1;
};

/// What one guarded execution did.
struct GuardedResult {
  enum class Status {
    Ok,        ///< Returned 0.
    Failed,    ///< Returned nonzero on every attempt.
    Exception, ///< Threw on every attempt (Error holds the last what()).
    Timeout    ///< An attempt outlived TimeoutSeconds and was abandoned.
  };

  Status St = Status::Ok;
  int ExitCode = 0;          ///< The final attempt's return value.
  unsigned Attempts = 0;     ///< Attempts actually made.
  double DurationSeconds = 0; ///< Total wall clock across attempts.
  std::string Error;         ///< Exception text; empty otherwise.

  bool ok() const { return St == Status::Ok; }
  /// Stable lowercase name ("ok", "failed", "exception", "timeout")
  /// for the driver's JSON report.
  const char *statusName() const;
};

/// Runs \p Fn under \p Opts (see file comment for the exact retry and
/// timeout semantics). Never throws; every outcome is a result.
GuardedResult runGuarded(const std::function<int()> &Fn,
                         const GuardOptions &Opts);

} // namespace exp
} // namespace pbt

#endif // PBT_EXP_GUARD_H
