//===- exp/SuiteCache.h - Content-addressed prepared-suite cache -*- C++-*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cache of prepared benchmark suites keyed by a content hash of
/// (TechniqueSpec, MachineConfig, TypingSeed). Preparation is the
/// expensive static half of an experiment (typing + marking +
/// instrumentation + flat-image build for every program); the tuner
/// configuration only parameterizes the *dynamic* analysis at spawn time,
/// so the key deliberately uses TechniqueSpec::samePreparation — sweeps
/// that vary only TunerConfig, workload, seed, or horizon reuse the same
/// prepared images and skip re-preparation entirely.
///
/// One cache serves one fixed program set (it is owned by a Lab, whose
/// programs never change); programs are therefore not part of the
/// in-memory key, and get() rejects a set other than the first it saw.
/// An optional CacheStore adds a persistent disk tier of per-program
/// entries: a memory miss probes the store for each program, in
/// parallel on the global thread pool (CacheStore::loadProgram), runs
/// the static pipeline once over the programs it cannot serve (all of
/// them without a store), and writes those back as one batch
/// (CacheStore::savePrograms). Adding one benchmark to an
/// otherwise-cached suite thus prepares exactly that benchmark, and
/// programs shared between suites (or labs) are prepared once ever
/// (preparedPrograms() / programStoreHits() count this split). Store
/// keys include each program's content hash, so one store directory
/// safely serves many labs.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_EXP_SUITECACHE_H
#define PBT_EXP_SUITECACHE_H

#include "workload/Runner.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace pbt {
namespace exp {

class CacheStore;

/// The canonical typing seed used whenever an experiment does not vary
/// the typing-seed axis — shared by every default argument in the
/// experiment layer and by the harness's distinct-preparation
/// accounting, so the sites can never drift apart.
constexpr uint64_t DefaultTypingSeed = 42;

/// Content-addressed cache of PreparedSuites for one program set, with
/// an optional persistent disk tier (CacheStore).
class SuiteCache {
public:
  /// Attaches the persistent tier \p StoreIn (nullptr detaches). Labs
  /// attach the process-wide `PBT_CACHE_DIR` store automatically.
  void setStore(std::shared_ptr<CacheStore> StoreIn);

  /// The attached persistent tier, or nullptr.
  const std::shared_ptr<CacheStore> &store() const { return Store; }

  /// Returns the suite for (\p Tech, \p Machine, \p TypingSeed),
  /// serving it from memory, else assembling it from the persistent
  /// store's entries (when attached) and the static pipeline.
  /// The returned value shares the cached immutable flat images (cheap
  /// shared_ptr copies) but carries \p Tech's own TunerConfig,
  /// so cache hits still honor the requested tuner. Throws
  /// std::invalid_argument when \p Programs differs from the first
  /// call's set in size, or in any program's name, block count or
  /// instruction count: the cache serves one program set.
  PreparedSuite get(const std::vector<Program> &Programs,
                    const MachineConfig &Machine, const TechniqueSpec &Tech,
                    uint64_t TypingSeed = DefaultTypingSeed);

  /// Requests served from memory.
  uint64_t hits() const { return Hits; }
  /// Requests not in memory (storeHits() + prepared() of them were
  /// served from disk / freshly prepared, respectively).
  uint64_t misses() const { return Misses; }
  /// Memory misses served entirely from the persistent store: every
  /// program's entry was already on disk.
  uint64_t storeHits() const { return StoreHits; }
  /// Requests that had to run the static pipeline for at least one
  /// program.
  uint64_t prepared() const { return Prepared; }
  /// Programs that went through the static pipeline (the incremental
  /// counter: adding one benchmark to a warm suite raises this by
  /// exactly one).
  uint64_t preparedPrograms() const { return PreparedPrograms; }
  /// Programs served from store entries.
  uint64_t programStoreHits() const { return ProgramStoreHits; }
  /// Distinct prepared suites currently held in memory.
  size_t size() const;

  /// Per-program content hashes for the disk tier
  /// (CacheStore::hashProgram), in program order, computed once on the
  /// global pool: the cache serves one fixed program set for its whole
  /// life.
  const std::vector<uint64_t> &
  programHashes(const std::vector<Program> &Programs);

  void clear();

private:
  struct Entry {
    TechniqueSpec Tech; ///< Tuner field is not part of the identity.
    MachineConfig Machine;
    uint64_t TypingSeed = DefaultTypingSeed;
    std::shared_ptr<const PreparedSuite> Suite;
  };

  /// What get() compares of each program to hold the cache to one set:
  /// name, block count, instruction count.
  using ProgramShape = std::tuple<std::string, size_t, size_t>;

  /// Records the first call's program set; throws std::invalid_argument
  /// for any later set that differs from it.
  void checkProgramSet(const std::vector<Program> &Programs);

  /// Hash buckets hold entry lists so hash collisions fall back to exact
  /// comparison (samePreparation + machine equality + seed).
  std::unordered_map<uint64_t, std::vector<Entry>> Buckets;
  std::shared_ptr<CacheStore> Store;
  /// The program set of the first get(), unset until then.
  std::optional<std::vector<ProgramShape>> Shapes;
  std::vector<uint64_t> ProgramHashes;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t StoreHits = 0;
  uint64_t Prepared = 0;
  uint64_t PreparedPrograms = 0;
  uint64_t ProgramStoreHits = 0;
};

} // namespace exp
} // namespace pbt

#endif // PBT_EXP_SUITECACHE_H
