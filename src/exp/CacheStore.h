//===- exp/CacheStore.h - Persistent prepared-suite store ------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk half of the suite cache: a content-addressed store of
/// prepared suites (instrumented programs, phase marks, cost tables,
/// flat execution images) that survives across processes. A SuiteCache with an attached store serves misses from
/// disk before running the static pipeline, so a second run of any
/// experiment — or the one-process bench/driver — skips every
/// preparation it has seen before.
///
/// **Addressing.** Entries are keyed by 64-bit content hashes of
/// everything preparation depends on. The store is *module-granular*:
/// the unit of storage is one prepared program (`pbt-prog-v1`,
/// `prog-<16 hex>.pbt`), keyed by that program's own content hash
/// (every instruction of every block), the machine (structural fields,
/// name excluded), the technique's preparation identity
/// (`TechniqueSpec::preparationHash`, tuner excluded — the same
/// relation the in-memory SuiteCache keys on), the typing seed, and the
/// program-format + pipeline versions. Because the *set* a program
/// belongs to is not part of its key, programs shared by different
/// suites resolve to the same entry: adding one benchmark to a cached
/// suite re-prepares exactly that benchmark, and shared programs dedupe
/// across suites. The suite entry (`pbt-suite-v4`,
/// `suite-<16 hex>.pbt`, keyed as before by the whole program-set hash)
/// is a thin *manifest*: the list of per-program content hashes, from
/// which load() reassembles the suite out of prog entries. One store
/// directory can thus be shared by labs with different program sets and
/// machines.
///
/// **Format** (`pbt-suite-v4` manifests and `pbt-prog-v1` program
/// entries, documented field by field in docs/BENCH_SCHEMA.md): a fixed
/// header — magic (`PBTS` for manifests, `PBTP` for prog entries),
/// format version, key, the key components, payload length, FNV-1a
/// payload checksum — followed by the payload: the per-program hash
/// list for manifests, the serialized prepared program (IR, marks,
/// cost tables, flat image) for prog entries. Doubles are stored by bit
/// pattern, so a loaded suite is bit-identical to the freshly prepared
/// one (proven in tests/exp_test.cpp and tests/incremental_test.cpp).
///
/// **Crash safety and concurrency.** The store is built to survive
/// `kill -9`, concurrent writers, and injected filesystem faults
/// (tests/cache_stress_test.cpp hammers it from forked processes):
///
///  - Writes are atomic and durable: fsync-before-rename plus a
///    parent-directory fsync (support/Binary's writeFileAtomic), so
///    readers never observe partial files and a crash leaves at worst
///    a stale `.tmp.<pid>` file.
///  - Cooperating processes serialize per key through an advisory
///    `flock` on `suite-<key>.lck` — shared for readers, exclusive for
///    writers — acquired with bounded, seeded-backoff retries
///    (support/FileLock). Exhausting the retries degrades gracefully:
///    a reader counts a miss, a writer skips the write-back (counted
///    in lockTimeouts()). flock dies with its process, so crashed
///    holders never strand a lock. A store directory where the lock
///    file cannot even be opened (read-only, e.g. a team-prebuilt
///    cache) still serves hits: readers fall back to lockless reads
///    (rename atomicity keeps them safe) and writers skip the
///    write-back without counting a timeout.
///  - Any mismatch on load — wrong magic, wrong version, wrong key,
///    truncation, checksum failure, or out-of-range indices in the
///    decoded structures — **quarantines** the file (renamed to
///    `<entry>.quarantined-<reason>` under the writer lock) and counts
///    as a plain miss, so the next preparation rebuilds the entry
///    transparently instead of tripping over it again.
///  - Construction and gc() sweep stale debris: `.tmp.<pid>` files
///    whose writer is dead and old quarantine files.
///
/// Every filesystem step routes through support/FaultInjection, so the
/// whole contract is exercised under injected EIO, short writes, torn
/// renames, and crash points.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_EXP_CACHESTORE_H
#define PBT_EXP_CACHESTORE_H

#include "support/Rng.h"
#include "workload/Runner.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pbt {
namespace exp {

/// Content-addressed on-disk store of serialized PreparedSuites.
class CacheStore {
public:
  /// On-disk suite-entry format version; bumped whenever the binary
  /// layout changes. Part of the file header AND the key hash, so a
  /// version bump invalidates old entries without ever misreading them.
  /// v2 dropped the per-program spawn-affinity word (the HASS-static
  /// comparator moved from suite preparation to the scheduler-policy
  /// axis); v3 changed FlatImage chain cycle sums to left-to-right
  /// accumulation, so v2 images would replay with stale fused sums;
  /// v4 turned the suite entry into a
  /// thin manifest of per-program content hashes resolved against
  /// `pbt-prog-v1` entries.
  static constexpr uint32_t FormatVersion = 4;

  /// On-disk per-program entry format version (`pbt-prog-v1`),
  /// versioned independently of the manifest format.
  static constexpr uint32_t ProgFormatVersion = 1;

  /// Version of the static preparation pipeline whose output prog
  /// entries hold (preparePrograms in workload/Runner.h); part of every prog key, so
  /// a pipeline change that alters prepared artifacts invalidates
  /// exactly the program entries. v2 quantized cost tables to the
  /// exact cycle grid (sim/CostModel.h); v1 entries hold off-grid
  /// tables and are misses, never replayed.
  static constexpr uint32_t PipelineVersion = 2;

  /// Opens (creating if needed) the store directory \p Dir and sweeps
  /// stale debris left by crashed processes (see sweepStale()).
  explicit CacheStore(std::string Dir);

  /// The process-wide store configured by the `PBT_CACHE_DIR`
  /// environment variable, created on first use; nullptr when the
  /// variable is unset (persistence disabled).
  static std::shared_ptr<CacheStore> fromEnv();

  /// Content hash of a whole program set (every instruction of every
  /// block); the program-set component of suite keys.
  static uint64_t hashProgramSet(const std::vector<Program> &Programs);

  /// Content hash of one program; the program component of prog keys
  /// and the hashes a suite manifest lists. hashProgramSet is the hash
  /// of the concatenation, NOT of these values, so the two are
  /// independent addressing schemes.
  static uint64_t hashProgram(const Program &Prog);

  /// The store key for (\p ProgramSetHash, \p Machine, \p Tech,
  /// \p TypingSeed). Uses Tech's preparation identity only (tuner
  /// excluded), mirroring SuiteCache's in-memory key relation.
  static uint64_t suiteKey(uint64_t ProgramSetHash,
                           const MachineConfig &Machine,
                           const TechniqueSpec &Tech, uint64_t TypingSeed);

  /// The per-program entry key for (\p ProgramHash, \p Machine,
  /// \p Tech, \p TypingSeed). Deliberately excludes any program-set
  /// component (that is what makes cross-suite dedupe work) and bakes
  /// in ProgFormatVersion and PipelineVersion.
  static uint64_t progKey(uint64_t ProgramHash, const MachineConfig &Machine,
                          const TechniqueSpec &Tech, uint64_t TypingSeed);

  /// Loads the suite stored under \p Key: reads the manifest, verifies
  /// its header against the request's key components and its payload
  /// against its checksum, then reassembles the suite from the
  /// `pbt-prog-v1` entries the manifest lists (each validated the same
  /// way). Returns nullptr on miss or on any rejection (corrupt,
  /// truncated, version or key mismatch, or any referenced prog entry
  /// missing/rejected). The returned suite carries a
  /// default-constructed TunerConfig; callers stamp the requested tuner
  /// (as SuiteCache does for in-memory hits).
  std::shared_ptr<const PreparedSuite>
  load(uint64_t Key, uint64_t ProgramSetHash, const MachineConfig &Machine,
       const TechniqueSpec &Tech, uint64_t TypingSeed);

  /// Loads the single prepared program stored under
  /// progKey(\p ProgramHash, ...). Returns a PreparedProgram with null
  /// pointers on miss or rejection. The incremental half of the store:
  /// SuiteCache probes per program on a manifest miss and re-prepares
  /// only the programs this cannot serve.
  PreparedProgram loadProgram(uint64_t ProgramHash,
                              const MachineConfig &Machine,
                              const TechniqueSpec &Tech,
                              uint64_t TypingSeed);

  /// Serializes \p Suite under \p Key: writes one `pbt-prog-v1` entry
  /// per program (skipping entries already on disk — content
  /// addressing makes them identical by construction, which is what
  /// dedupes shared programs), then the manifest (atomic write).
  /// Returns false when any write the manifest would depend on failed.
  /// An existing manifest is replaced — by construction with identical
  /// content, so this also self-heals corrupted files.
  bool save(uint64_t Key, uint64_t ProgramSetHash,
            const MachineConfig &Machine, const TechniqueSpec &Tech,
            uint64_t TypingSeed, const PreparedSuite &Suite);

  /// The file path suite manifests for \p Key live at.
  std::string pathFor(uint64_t Key) const;

  /// The file path the prog entry for \p Key lives at.
  std::string progPathFor(uint64_t Key) const;

  /// The advisory lock file guarding \p Key's manifest.
  std::string lockPathFor(uint64_t Key) const;

  /// The advisory lock file guarding \p Key's prog entry.
  std::string progLockPathFor(uint64_t Key) const;

  /// The quarantine destination for \p Key's manifest when rejected for
  /// \p Reason ("magic", "version", "key", "truncated", "checksum",
  /// "payload").
  std::string quarantinePathFor(uint64_t Key, const char *Reason) const;

  /// The quarantine destination for \p Key's prog entry.
  std::string progQuarantinePathFor(uint64_t Key, const char *Reason) const;

  /// Tunes the bounded lock acquisition: \p MaxAttempts non-blocking
  /// tries, exponential backoff from \p BaseDelayMicros (capped at
  /// 5 ms) with seeded jitter. Defaults: 64 attempts, 200 us base —
  /// worst case well under a second. Tests shrink both.
  void setLockPolicy(unsigned MaxAttempts, unsigned BaseDelayMicros = 200);

  /// Removes debris no live process can still want: `.tmp.<pid>` temp
  /// files whose writing process is dead (or that are over an hour
  /// old), and quarantine files older than \p MaxQuarantineAgeSeconds
  /// (negative keeps all quarantines; 0 removes them all). Returns the
  /// number of files removed. Runs at construction (keeping week-old
  /// quarantines for post-mortems) and inside gc() (which sweeps every
  /// quarantine).
  size_t sweepStale(double MaxQuarantineAgeSeconds = 7 * 86400.0);

  /// Deletes every `suite-*.pbt` entry whose header carries a format
  /// version other than FormatVersion and every `prog-*.pbt` entry off
  /// ProgFormatVersion (such entries can never load again; a bump only
  /// changes the keys, so they would otherwise sit on disk forever).
  /// Returns the number of files removed. Unreadable or foreign files
  /// are left alone. Backs `bench/driver --clean-cache`.
  size_t cleanMismatchedVersions();

  /// Outcome of one gc() pass.
  struct GcStats {
    size_t Scanned = 0;       ///< Store entries examined.
    uint64_t BytesScanned = 0; ///< Their total size.
    size_t Evicted = 0;       ///< Entries deleted.
    uint64_t BytesEvicted = 0; ///< Bytes reclaimed.
    size_t LockedSkipped = 0; ///< Eviction candidates held by a live
                              ///< reader or writer, left alone.
    size_t Swept = 0;         ///< Stale temp/quarantine/orphan-lock
                              ///< files removed alongside the pass.
  };

  /// Age/size-based garbage collection over the store directory (both
  /// suite manifests and prog entries), backing `bench/driver
  /// --gc-cache`. Recency is approximated by file modification time,
  /// which load() refreshes on every hit — a manifest hit touches the
  /// manifest *and* every prog entry it resolved, so a suite's programs
  /// age as a group while unshared entries of abandoned suites age out.
  /// Eviction order is least-recently-used. A manifest whose prog entry
  /// was evicted underneath it simply misses and is rebuilt. Two independent bounds:
  /// entries older than \p MaxAgeSeconds are always evicted
  /// (<= 0 disables the age bound), then the oldest remaining entries
  /// are evicted until the store fits in \p MaxBytes (0 disables the
  /// size bound). Only files with the store magic are touched; ties on
  /// mtime break by path, so a pass is deterministic for a given
  /// directory state.
  GcStats gc(uint64_t MaxBytes, double MaxAgeSeconds = 0);

  const std::string &dir() const { return Dir; }

  /// Suites served from disk (manifest plus every prog entry).
  uint64_t hits() const { return Hits; }
  /// Suite requests the store could not serve (absent manifest, or a
  /// manifest whose prog entries could not all be resolved).
  uint64_t misses() const { return Misses; }
  /// Files present but rejected (corruption, truncation, version or key
  /// mismatch), manifests and prog entries alike; every suite-level
  /// reject is also counted as a miss.
  uint64_t rejects() const { return Rejects; }
  /// Suite manifests written by save().
  uint64_t writes() const { return Writes; }
  /// Prog entries served from disk (inside load() or via loadProgram).
  uint64_t progHits() const { return ProgHits; }
  /// loadProgram probes with no usable entry.
  uint64_t progMisses() const { return ProgMisses; }
  /// Prog entries written by save() (existing entries are skipped, so
  /// this counts genuinely new preparations reaching disk).
  uint64_t progWrites() const { return ProgWrites; }
  /// Rejected entries renamed aside for post-mortem (a subset of
  /// rejects(): quarantining needs the uncontended writer lock).
  uint64_t quarantines() const { return Quarantines; }
  /// Operations abandoned because the per-key lock stayed contended
  /// through every bounded retry (each degrades to a miss or a
  /// skipped write-back; nothing aborts).
  uint64_t lockTimeouts() const { return LockTimeouts; }

private:
  std::string Dir;
  mutable std::mutex Mutex;
  Rng LockRng; ///< Jitter stream for lock backoff; guarded by Mutex.
  unsigned LockMaxAttempts = 64;
  unsigned LockBaseDelayMicros = 200;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Rejects = 0;
  uint64_t Writes = 0;
  uint64_t ProgHits = 0;
  uint64_t ProgMisses = 0;
  uint64_t ProgWrites = 0;
  uint64_t Quarantines = 0;
  uint64_t LockTimeouts = 0;

  /// Unlocked bodies (callers hold Mutex).
  PreparedProgram loadProgramImpl(uint64_t ProgramHash,
                                  const MachineConfig &Machine,
                                  const TechniqueSpec &Tech,
                                  uint64_t TypingSeed);
};

} // namespace exp
} // namespace pbt

#endif // PBT_EXP_CACHESTORE_H
