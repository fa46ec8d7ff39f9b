//===- support/Env.h - Environment-driven experiment scaling ---*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers that let the benchmark harnesses scale their simulated duration
/// from the environment. `PBT_BENCH_SCALE` (a positive double, default
/// 1.0) multiplies simulated workload horizons; `PBT_BENCH_SCALE=0.1`
/// gives a quick smoke run, `PBT_BENCH_SCALE=1` the full paper-shaped
/// experiment.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SUPPORT_ENV_H
#define PBT_SUPPORT_ENV_H

#include <cstdint>

namespace pbt {

/// Returns the value of `PBT_BENCH_SCALE` clamped to [0.01, 100], or
/// \p Default when unset or unparsable.
double envScale(double Default = 1.0);

/// Returns the value of the integer environment variable \p Name, or
/// \p Default when unset or unparsable.
int64_t envInt(const char *Name, int64_t Default);

/// Returns the value of the floating-point environment variable
/// \p Name, or \p Default when unset or unparsable. (Used by
/// micro_interpreter's `PBT_INTERP_MIN_FLAT_SPEEDUP` CI floor.)
double envDouble(const char *Name, double Default);

/// Returns the value of the environment variable \p Name, or nullptr
/// when unset. (`PBT_CACHE_DIR` selects the persistent suite-cache
/// directory — see exp/CacheStore; `PBT_FAULTS` arms the
/// fault-injection seam — see support/FaultInjection.)
const char *envString(const char *Name);

} // namespace pbt

#endif // PBT_SUPPORT_ENV_H
