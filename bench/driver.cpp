//===- bench/driver.cpp - One-process experiment driver -------------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs every registered experiment (all 17 fig/table/sweep/ablation
// grids) in ONE process over shared per-machine Labs:
//
//  - suite preparation is deduplicated across experiments through the
//    shared labs' SuiteCaches (e.g. the 18 paper variants are prepared
//    once for fig3/fig4/fig8/table2 together, not once per experiment);
//  - with PBT_CACHE_DIR set, prepared programs persist on disk, one
//    store entry each, so a second driver run replays the whole matrix
//    with zero preparations;
//  - every BENCH_<name>.json is emitted in one run, byte-identical to
//    the same experiment run alone with --only (locked in by tests and
//    CI).
//
// The driver is the only entry point for registered experiments.
//
// Usage:
//   driver [--list] [--only=name1,name2] [--verify-ir] [--clean-cache]
//          [--gc-cache] [--max-cache-bytes=N] [--max-cache-age-days=D]
//          [--trace=dir] [--report]
//
// --only runs just the named experiments (repeats count once); an empty
// list is an error, not "everything". `driver --only=<name>` is how to
// run one experiment.
//
// --trace=dir (or PBT_TRACE=dir; the flag wins) turns on the
// deterministic simulated-time trace plane: every replay unit writes a
// TRACE_*.json Chrome-trace file into dir (docs/OBSERVABILITY.md).
// Traces are timestamped in simulated cycles, so they are
// byte-identical across engines, thread counts, and cache temperature;
// BENCH_*.json artifacts are unaffected either way.
//
// --report prints a human-readable run report (per-experiment table,
// pipeline stage stats, cache and observability counters) after the
// summary line.
//
// --verify-ir (or PBT_VERIFY_IR=1) turns on the self-verifying IR: the
// verifyPrep static analysis runs after every pipeline stage during
// preparation, and every store-served suite is re-audited against the
// same invariants before it reaches a simulation. A violation fails
// that experiment (the guard records it); the artifacts themselves are
// unchanged — verification only reads.
//
// --clean-cache deletes PBT_CACHE_DIR entries written by other format
// versions (they can never load again) and exits.
//
// --gc-cache garbage-collects PBT_CACHE_DIR by recency and exits:
// entries older than --max-cache-age-days are evicted, then the
// least-recently-used entries (file mtime, refreshed on every cache
// hit) until the store fits in --max-cache-bytes. With neither bound
// given, a default 512 MiB size budget applies. A negative or
// non-numeric byte count and a negative or non-finite day count are
// usage errors.
//
// Every experiment runs once, inline, behind exp::runGuarded: a
// failing or throwing experiment never stops the batch — the driver
// records it, runs everything else, and exits nonzero at the end.
//
// Environment: PBT_BENCH_SCALE scales horizons, PBT_CACHE_DIR enables
// the persistent suite store, PBT_THREADS sizes the replay pool,
// PBT_FAULTS arms fault injection (support/FaultInjection).
//
// Writes BENCH_driver.json (schema pbt-driver-v7, docs/BENCH_SCHEMA.md)
// with per-experiment status/duration, a failure summary, and
// suite-cache and store-entry statistics, plus PROFILE_driver.json
// (pbt-profile-v2) —
// the full observability counter registry; exits non-zero when any
// experiment failed.
//
//===----------------------------------------------------------------------===//

#include "Registry.h"

#include "analysis/PassManager.h"
#include "exp/CacheStore.h"
#include "exp/Guard.h"
#include "exp/Harness.h"
#include "obs/Counters.h"
#include "obs/Trace.h"
#include "support/Env.h"
#include "support/FaultInjection.h"
#include "support/Json.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace pbt;
using namespace pbt::bench;

namespace {

/// Splits the comma-separated --only list, dropping empty and repeated
/// names.
std::vector<std::string> splitList(const char *Csv) {
  std::vector<std::string> Out;
  std::string Cur;
  for (const char *P = Csv;; ++P) {
    if (*P == ',' || *P == '\0') {
      if (!Cur.empty() && std::find(Out.begin(), Out.end(), Cur) == Out.end())
        Out.push_back(Cur);
      Cur.clear();
      if (*P == '\0')
        break;
    } else {
      Cur.push_back(*P);
    }
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  // Parse PBT_FAULTS up front: a typo'd spec exits 2 with the parse
  // error here, instead of surfacing only when some store op first
  // touches the seam mid-run.
  FaultInjection::instance();

  bool ListOnly = false;
  bool CleanCache = false;
  bool GcCache = false;
  bool SawMaxBytes = false;
  bool SawMaxAge = false;
  uint64_t MaxCacheBytes = 0;
  double MaxCacheAgeDays = 0;
  bool Report = false;
  std::vector<std::string> Only;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strcmp(Arg, "--list") == 0) {
      ListOnly = true;
    } else if (std::strcmp(Arg, "--verify-ir") == 0) {
      setVerifyIR(true);
    } else if (std::strcmp(Arg, "--clean-cache") == 0) {
      CleanCache = true;
    } else if (std::strcmp(Arg, "--gc-cache") == 0) {
      GcCache = true;
    } else if (std::strncmp(Arg, "--max-cache-bytes=", 18) == 0) {
      // strtoull would accept a sign and wrap "-1" to 2^64-1, silently
      // lifting the size budget; only plain digits are a byte count.
      char *End = nullptr;
      errno = 0;
      MaxCacheBytes = std::strtoull(Arg + 18, &End, 10);
      if (!std::isdigit(static_cast<unsigned char>(Arg[18])) ||
          *End != '\0' || errno == ERANGE) {
        std::fprintf(stderr, "driver: --max-cache-bytes wants a plain "
                             "byte count, got '%s'\n",
                     Arg + 18);
        return 2;
      }
      SawMaxBytes = true;
    } else if (std::strncmp(Arg, "--max-cache-age-days=", 21) == 0) {
      char *End = nullptr;
      MaxCacheAgeDays = std::strtod(Arg + 21, &End);
      if (End == Arg + 21 || *End != '\0' ||
          !std::isfinite(MaxCacheAgeDays) || MaxCacheAgeDays < 0) {
        std::fprintf(stderr, "driver: --max-cache-age-days wants a "
                             "non-negative number of days, got '%s'\n",
                     Arg + 21);
        return 2;
      }
      SawMaxAge = true;
    } else if (std::strncmp(Arg, "--only=", 7) == 0) {
      Only = splitList(Arg + 7);
      if (Only.empty()) {
        std::fprintf(stderr, "driver: --only wants at least one experiment "
                             "name (see --list)\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--trace=", 8) == 0) {
      if (Arg[8] == '\0') {
        std::fprintf(stderr, "driver: --trace wants a directory\n");
        return 2;
      }
      obs::setTraceDir(Arg + 8);
    } else if (std::strcmp(Arg, "--report") == 0) {
      Report = true;
    } else {
      std::fprintf(stderr,
                   "usage: driver [--list] [--only=name1,name2] "
                   "[--verify-ir] [--clean-cache] [--gc-cache] "
                   "[--max-cache-bytes=N] [--max-cache-age-days=D] "
                   "[--trace=dir] [--report]\n");
      return 2;
    }
  }
  // PBT_TRACE needs no handling here: obs seeds the trace directory
  // from the environment for every binary, and the --trace flag above
  // overwrites it.

  // A GC bound without --gc-cache would be silently ignored and the
  // whole experiment matrix would run instead; refuse the ambiguity.
  if ((SawMaxBytes || SawMaxAge) && !GcCache) {
    std::fprintf(stderr, "driver: --max-cache-bytes/--max-cache-age-days "
                         "require --gc-cache\n");
    return 2;
  }

  if (CleanCache) {
    std::shared_ptr<exp::CacheStore> Store = exp::CacheStore::fromEnv();
    if (!Store) {
      std::fprintf(stderr,
                   "driver: --clean-cache needs PBT_CACHE_DIR set\n");
      return 2;
    }
    size_t Removed = Store->cleanMismatchedVersions();
    std::printf("cleaned %s: removed %zu version-mismatched entr%s "
                "(current format v%u)\n",
                Store->dir().c_str(), Removed, Removed == 1 ? "y" : "ies",
                exp::CacheStore::ProgFormatVersion);
    return 0;
  }

  if (GcCache) {
    std::shared_ptr<exp::CacheStore> Store = exp::CacheStore::fromEnv();
    if (!Store) {
      std::fprintf(stderr, "driver: --gc-cache needs PBT_CACHE_DIR set\n");
      return 2;
    }
    // Without ANY explicit bound, keep the store under a conservative
    // default budget so a bare --gc-cache always does something
    // useful. An explicit --max-cache-bytes=0 means "no size bound"
    // (CacheStore::gc's documented semantics) and is honored as given.
    if (!SawMaxBytes && !SawMaxAge)
      MaxCacheBytes = 512ull << 20;
    exp::CacheStore::GcStats Stats =
        Store->gc(MaxCacheBytes, MaxCacheAgeDays * 86400.0);
    std::printf("gc %s: scanned %zu entr%s (%llu bytes), evicted %zu "
                "(%llu bytes reclaimed)\n",
                Store->dir().c_str(), Stats.Scanned,
                Stats.Scanned == 1 ? "y" : "ies",
                static_cast<unsigned long long>(Stats.BytesScanned),
                Stats.Evicted,
                static_cast<unsigned long long>(Stats.BytesEvicted));
    return 0;
  }

  // Deterministic execution order regardless of link order.
  std::vector<Experiment> Sorted = experiments();
  std::sort(Sorted.begin(), Sorted.end(),
            [](const Experiment &A, const Experiment &B) {
              return std::strcmp(A.Name, B.Name) < 0;
            });

  if (ListOnly) {
    for (const Experiment &E : Sorted)
      std::printf("%s\n", E.Name);
    return 0;
  }

  for (const std::string &Name : Only) {
    bool Known = std::any_of(Sorted.begin(), Sorted.end(),
                             [&](const Experiment &E) {
                               return Name == E.Name;
                             });
    if (!Known) {
      std::fprintf(stderr, "driver: unknown experiment '%s' "
                           "(see --list)\n",
                   Name.c_str());
      return 2;
    }
  }

  // Every harness the experiment bodies construct resolves lab()
  // through the one process-wide pool, so isolated runtimes are
  // measured once per machine and the suite caches deduplicate
  // preparation across experiments.
  std::shared_ptr<exp::CacheStore> Store = exp::CacheStore::fromEnv();

  std::printf("== experiment driver: %zu experiments, one process ==\n",
              Only.empty() ? Sorted.size() : Only.size());
  if (Store)
    std::printf("persistent suite cache: %s\n", Store->dir().c_str());
  if (verifyIREnabled())
    std::printf("self-verifying IR: on (verifyPrep after every pipeline "
                "stage + store-served suite audits)\n");

  Json Runs = Json::array();
  Json Failures = Json::array();
  // Rows for the optional --report table, mirroring the "experiments"
  // array of BENCH_driver.json (Json has no member iteration, so the
  // table renders from this source-of-truth copy).
  struct ReportRow {
    std::string Name;
    std::string Status;
    double Seconds = 0;
  };
  std::vector<ReportRow> Rows;
  size_t Failed = 0;
  for (const Experiment &E : Sorted) {
    if (!Only.empty() &&
        std::find(Only.begin(), Only.end(), E.Name) == Only.end())
      continue;
    std::printf("\n---- %s ----\n", E.Name);
    // The guard is the driver's fault boundary: a throwing or failing
    // experiment becomes a recorded failure, and the batch moves on to
    // the next experiment.
    exp::GuardedResult R = exp::runGuarded(E.Fn);
    if (!R.ok()) {
      ++Failed;
      Failures.push(Json(E.Name));
      std::fprintf(stderr, "driver: %s %s (%.1fs)%s%s\n", E.Name,
                   R.statusName(), R.DurationSeconds,
                   R.Error.empty() ? "" : ": ", R.Error.c_str());
    }
    Json Run = Json::object();
    Run["name"] = E.Name;
    Run["status"] = R.statusName();
    Run["exit_code"] = R.ExitCode;
    Run["duration_seconds"] = R.DurationSeconds;
    if (!R.Error.empty())
      Run["error"] = R.Error;
    Runs.push(std::move(Run));
    Rows.push_back(ReportRow{E.Name, R.statusName(), R.DurationSeconds});
  }

  // Aggregate suite-cache statistics over the shared labs. store_hits
  // counts preparations served from PBT_CACHE_DIR: a warm second run
  // reports prepared == 0 and store_hits > 0 (asserted in CI).
  uint64_t MemoryHits = 0;
  uint64_t StoreHits = 0;
  uint64_t PreparedCount = 0;
  uint64_t PreparedProgramCount = 0;
  uint64_t ProgramStoreHits = 0;
  for (exp::Lab *L : exp::ExperimentHarness::labPool().labs()) {
    MemoryHits += L->cache().hits();
    StoreHits += L->cache().storeHits();
    PreparedCount += L->cache().prepared();
    PreparedProgramCount += L->cache().preparedPrograms();
    ProgramStoreHits += L->cache().programStoreHits();
  }

  Json Root = Json::object();
  // v7: the "store" block counts program entries only (hits, misses,
  // rejects, writes, quarantines, lock_timeouts; no prog_* fields).
  // v6: no guard policy fields, no per-experiment "attempts", and
  // suite_cache/pipeline are always objects. v5: "pipeline" rows are
  // {name, programs, seconds} per stage.
  // v4: "pipeline" per-pass stats block, module-granular suite_cache
  // counters (prepared_programs, program_store_hits, store.prog_*),
  // and "verify_ir"; v2 added suite_cache store counters — see
  // docs/BENCH_SCHEMA.md.
  Root["schema"] = "pbt-driver-v7";
  Root["verify_ir"] = verifyIREnabled();
  Root["scale"] = envScale();
  Root["cache_dir"] = Store ? Json(Store->dir()) : Json();
  Root["experiments"] = std::move(Runs);
  Root["failed"] = static_cast<uint64_t>(Failed);
  Root["failures"] = std::move(Failures);
  Json CacheStats = Json::object();
  CacheStats["memory_hits"] = MemoryHits;
  CacheStats["store_hits"] = StoreHits;
  CacheStats["prepared"] = PreparedCount;
  CacheStats["prepared_programs"] = PreparedProgramCount;
  CacheStats["program_store_hits"] = ProgramStoreHits;
  if (Store) {
    Json StoreStats = Json::object();
    StoreStats["hits"] = Store->hits();
    StoreStats["misses"] = Store->misses();
    StoreStats["rejects"] = Store->rejects();
    StoreStats["writes"] = Store->writes();
    StoreStats["quarantines"] = Store->quarantines();
    StoreStats["lock_timeouts"] = Store->lockTimeouts();
    CacheStats["store"] = std::move(StoreStats);
  }
  Root["suite_cache"] = std::move(CacheStats);

  // Per-stage pipeline stats, cumulative over every preparation this
  // process ran. Seconds is wall time — BENCH_driver.json is excluded
  // from all byte-identity checks, so it is the one artifact allowed
  // to carry it.
  PipelineStats Pipe = cumulativePipelineStats();
  Json Passes = Json::array();
  for (const PassStats &P : Pipe.Passes) {
    Json Pass = Json::object();
    Pass["name"] = P.Name;
    Pass["programs"] = P.Programs;
    Pass["seconds"] = P.Seconds;
    Passes.push(std::move(Pass));
  }
  Json Pipeline = Json::object();
  Pipeline["passes"] = std::move(Passes);
  Root["pipeline"] = std::move(Pipeline);

  // Import the dump-time statistics into the observability registry so
  // PROFILE_driver.json is a one-stop snapshot of the run's Plane-2
  // state (docs/OBSERVABILITY.md).
  obs::CounterRegistry &Reg = obs::CounterRegistry::global();
  Reg.set("suite_cache.memory_hits", MemoryHits);
  Reg.set("suite_cache.store_hits", StoreHits);
  Reg.set("suite_cache.prepared", PreparedCount);
  Reg.set("suite_cache.prepared_programs", PreparedProgramCount);
  Reg.set("suite_cache.program_store_hits", ProgramStoreHits);
  if (Store) {
    Reg.set("store.hits", Store->hits());
    Reg.set("store.misses", Store->misses());
    Reg.set("store.rejects", Store->rejects());
    Reg.set("store.writes", Store->writes());
    Reg.set("store.quarantines", Store->quarantines());
    Reg.set("store.lock_timeouts", Store->lockTimeouts());
  }
  for (const PassStats &P : Pipe.Passes) {
    Reg.set("pipeline." + P.Name + ".programs", P.Programs);
    Reg.setMetric("pipeline." + P.Name + ".seconds", P.Seconds);
  }
  Reg.set("driver.experiments_failed", Failed);

  std::printf("\n== driver summary: memory_hits=%llu store_hits=%llu "
              "prepared=%llu prepared_programs=%llu "
              "program_store_hits=%llu failed=%zu ==\n",
              static_cast<unsigned long long>(MemoryHits),
              static_cast<unsigned long long>(StoreHits),
              static_cast<unsigned long long>(PreparedCount),
              static_cast<unsigned long long>(PreparedProgramCount),
              static_cast<unsigned long long>(ProgramStoreHits), Failed);
  for (const PassStats &P : Pipe.Passes)
    std::printf("   pass %-12s programs=%llu %.3fs\n", P.Name.c_str(),
                static_cast<unsigned long long>(P.Programs), P.Seconds);

  int Exit = Failed == 0 ? 0 : 1;
  const std::string SummaryPath = "BENCH_driver.json";
  if (!writeJsonFile(SummaryPath, Root)) {
    std::perror(SummaryPath.c_str());
    Exit = 1;
  } else {
    std::printf("wrote %s\n", SummaryPath.c_str());
  }

  // Plane-2 self-profile: the full counter registry, always written.
  // Wall-clock-tainted by design and excluded from every byte-identity
  // check, like BENCH_driver.json.
  {
    Json Profile = Json::object();
    Profile["schema"] = "pbt-profile-v2";
    Profile["registry"] = Reg.snapshotJson();
    const std::string ProfilePath = "PROFILE_driver.json";
    if (!writeJsonFile(ProfilePath, Profile)) {
      std::perror(ProfilePath.c_str());
      Exit = 1;
    } else {
      std::printf("wrote %s\n", ProfilePath.c_str());
    }
  }

  if (Report) {
    std::printf("\n== run report ==\n");
    std::printf("%-28s %-12s %10s\n", "experiment", "status", "seconds");
    for (const ReportRow &Row : Rows)
      std::printf("%-28s %-12s %10.2f\n", Row.Name.c_str(),
                  Row.Status.c_str(), Row.Seconds);
    std::vector<std::pair<std::string, uint64_t>> Cs = Reg.counterValues();
    std::vector<std::pair<std::string, double>> Ms = Reg.metricValues();
    if (!Cs.empty()) {
      std::printf("\n-- counters --\n");
      for (const auto &KV : Cs)
        std::printf("%-44s %12llu\n", KV.first.c_str(),
                    static_cast<unsigned long long>(KV.second));
    }
    if (!Ms.empty()) {
      std::printf("\n-- metrics --\n");
      for (const auto &KV : Ms)
        std::printf("%-44s %12.4f\n", KV.first.c_str(), KV.second);
    }
  }
  return Exit;
}
