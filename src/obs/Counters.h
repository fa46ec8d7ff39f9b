//===- obs/Counters.h - Unified fabric counter registry ---------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plane 2 of the observability subsystem: one process-wide registry of
/// named counters (monotonic uint64) and metrics (double, e.g. seconds)
/// that absorbs the fabric's formerly scattered statistics — suite-cache
/// hits/misses, CacheStore entry/lock/quarantine counts, guard
/// attempts/exceptions, per-pass PassStats, sweep unit counts, trace-sink
/// I/O. Components either increment the registry directly at runtime
/// (fabric events, spans) or are imported at dump time by the driver
/// (per-lab cache counters), and the whole registry is snapshot into
/// PROFILE_driver.json and the `driver --report` table.
///
/// Names are dot-namespaced ("suite_cache.hits", "guard.exceptions",
/// "pipeline.typing.seconds"); the snapshot is sorted by name, so dumps
/// are stable given equal values. Everything here is wall-clock-tainted
/// or run-order-dependent by design and is excluded from every
/// byte-identity check — Plane 1 (obs/Trace.h) is the deterministic
/// plane.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_OBS_COUNTERS_H
#define PBT_OBS_COUNTERS_H

#include "support/Json.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pbt {
namespace obs {

/// Process-wide named counters and metrics. All operations are
/// thread-safe; counter addresses are stable for the process lifetime,
/// so hot components may cache the `std::atomic` reference and bump it
/// lock-free.
class CounterRegistry {
public:
  static CounterRegistry &global();

  /// The counter named \p Name, created at zero on first use. The
  /// returned reference never moves or dies.
  std::atomic<uint64_t> &counter(const std::string &Name);

  /// Adds \p Delta to counter \p Name.
  void add(const std::string &Name, uint64_t Delta = 1) {
    counter(Name).fetch_add(Delta, std::memory_order_relaxed);
  }
  /// Overwrites counter \p Name (dump-time imports of externally
  /// aggregated totals).
  void set(const std::string &Name, uint64_t Value) {
    counter(Name).store(Value, std::memory_order_relaxed);
  }
  /// Current value of \p Name; 0 if it was never touched.
  uint64_t value(const std::string &Name) const;

  /// Adds \p Delta to the double-valued metric \p Name (span seconds).
  void addMetric(const std::string &Name, double Delta);
  /// Overwrites metric \p Name.
  void setMetric(const std::string &Name, double Value);
  /// Current value of metric \p Name; 0.0 if never touched.
  double metric(const std::string &Name) const;

  /// Snapshot as {"counters": {name: uint...}, "metrics": {name:
  /// double...}}, members sorted by name.
  Json snapshotJson() const;

  /// Sorted (name, value) snapshots — `driver --report` rendering.
  std::vector<std::pair<std::string, uint64_t>> counterValues() const;
  std::vector<std::pair<std::string, double>> metricValues() const;

  /// Drops every counter and metric (tests only). Entries are erased,
  /// so counter references cached before reset() must not be used
  /// after it.
  void reset();

private:
  mutable std::mutex Mu;
  std::map<std::string, std::unique_ptr<std::atomic<uint64_t>>> Counters;
  std::map<std::string, double> Metrics;
};

} // namespace obs
} // namespace pbt

#endif // PBT_OBS_COUNTERS_H
