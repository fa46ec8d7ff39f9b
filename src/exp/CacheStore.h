//===- exp/CacheStore.h - Persistent prepared-program store ----*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk half of the suite cache: a content-addressed store of
/// prepared programs that survives across processes. As in the paper,
/// a tuned program is the unchanged program plus its phase marks, so an
/// entry holds only the marks, the phase-type count and the mark cost;
/// a load rebuilds the flat image on the caller's program and the
/// cost model of its shared base (imageFromMarks in workload/Runner.h).
/// A SuiteCache with an attached store probes it per program before
/// running the static pipeline, and writes back every program it had to
/// prepare, so a second run of any experiment — or the one-process
/// bench/driver — skips every preparation it has seen before.
///
/// **Addressing.** The unit of storage is one prepared program
/// (`pbt-prog-v4`, `prog-<16 hex>.pbt`), keyed by a 64-bit hash of
/// everything its preparation depends on: the program's own content
/// hash (every instruction of every block), the machine (structural
/// fields, name excluded), the technique's preparation identity
/// (`TechniqueSpec::preparationHash`, tuner excluded — the same relation
/// the in-memory SuiteCache keys on), the typing seed, and the
/// program-format + pipeline versions. The set a program belongs to is
/// not part of its key, so programs shared by different suites resolve
/// to the same entry: adding one benchmark to a cached suite re-prepares
/// exactly that benchmark, and one store directory can be shared by labs
/// with different program sets and machines.
///
/// **Format** (documented field by field in docs/BENCH_SCHEMA.md): a
/// fixed header — `PBTP` magic, format version, key, the key components,
/// payload length, FNV-1a payload checksum — followed by the marks,
/// phase-type count and mark cost. The marks are validated against the
/// caller's program, whose content hash is part of the key, and the
/// image is rebuilt with the instrument and flatten stages'
/// constructors, so a loaded program is bit-identical to the freshly
/// prepared one (proven in tests/exp_test.cpp and
/// tests/incremental_test.cpp).
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
///    `flock` on `prog-<key>.lck` — shared for readers, exclusive for
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
///    truncation, checksum failure, or marks that are out of range for
///    the caller's program — **quarantines** the file (renamed to
///    `<entry>.quarantined-<reason>` under the writer lock) and counts
///    as a plain miss, so the next preparation rebuilds the entry
///    transparently instead of tripping over it again.
///  - Construction and gc() sweep stale debris: `.tmp.<pid>` files
///    whose writer is dead and old quarantine files.
///
/// Files named `suite-*.pbt` are whole-suite manifests written by
/// earlier versions of the store; nothing reads, cleans or evicts them,
/// and they may be deleted by hand.
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

namespace pbt {
namespace exp {

/// Content-addressed on-disk store of prepared programs.
class CacheStore {
public:
  /// On-disk entry format version (`pbt-prog-v4`); bumped whenever the
  /// binary layout changes. Part of the file header AND the key hash, so
  /// a version bump invalidates old entries without ever misreading
  /// them. v2 dropped the flat image's superblock-chain summaries
  /// (48-byte block records); v3 stored the cost model as instruction
  /// counts plus one cycle table and no longer stored the flat image; v4
  /// stores neither the IR nor the cost model, only the marks.
  static constexpr uint32_t ProgFormatVersion = 4;

  /// Version of the static preparation pipeline whose output entries
  /// hold (preparePrograms in workload/Runner.h); part of every key.
  /// Entries hold marks only, so the cost tables always come from the
  /// running code; a change to costing, typing or marking that moves
  /// any mark must bump this. v2 quantized cost tables to the exact
  /// cycle grid when entries still stored tables; v1 entries are misses.
  static constexpr uint32_t PipelineVersion = 2;

  /// Opens (creating if needed) the store directory \p Dir and sweeps
  /// stale debris left by crashed processes (see sweepStale()).
  explicit CacheStore(std::string Dir);

  /// The process-wide store configured by the `PBT_CACHE_DIR`
  /// environment variable, created on first use; nullptr when the
  /// variable is unset (persistence disabled).
  static std::shared_ptr<CacheStore> fromEnv();

  /// Content hash of one program (every instruction of every block);
  /// the program component of keys.
  static uint64_t hashProgram(const Program &Prog);

  /// The entry key for (\p ProgramHash, \p Machine, \p Tech,
  /// \p TypingSeed). Uses Tech's preparation identity only (tuner
  /// excluded), mirroring SuiteCache's in-memory key relation, and bakes
  /// in ProgFormatVersion and PipelineVersion.
  static uint64_t key(uint64_t ProgramHash, const MachineConfig &Machine,
                      const TechniqueSpec &Tech, uint64_t TypingSeed);

  /// Loads the prepared program stored under key(\p ProgramHash, ...),
  /// after verifying its header against the request's key components
  /// and its payload against its checksum, and returns the flat image
  /// of \p Prog (whose content hash \p ProgramHash must be) with the
  /// stored marks, rebuilt by imageFromMarks. Returns null on a miss or
  /// on any rejection (corrupt, truncated, version or key mismatch,
  /// marks illegal for \p Prog); a rejected file is quarantined.
  std::shared_ptr<const FlatImage>
  loadProgram(const Program &Prog, uint64_t ProgramHash,
              const MachineConfig &Machine, const TechniqueSpec &Tech,
              uint64_t TypingSeed);

  /// Serializes \p Prepared's marks under key(\p ProgramHash, ...) with
  /// an atomic write. An entry already on disk is left alone: content
  /// addressing makes it identical by construction, which is what
  /// dedupes programs shared across suites. Returns true when the entry
  /// is on disk afterwards; false when the write failed or the lock
  /// could not be taken (the write-back is skipped, nothing aborts).
  bool saveProgram(uint64_t ProgramHash, const MachineConfig &Machine,
                   const TechniqueSpec &Tech, uint64_t TypingSeed,
                   const FlatImage &Prepared);

  /// The file path the entry for \p Key lives at.
  std::string pathFor(uint64_t Key) const;

  /// The advisory lock file guarding \p Key's entry.
  std::string lockPathFor(uint64_t Key) const;

  /// The quarantine destination for \p Key's entry when rejected for
  /// \p Reason ("magic", "version", "key", "truncated", "checksum",
  /// "payload").
  std::string quarantinePathFor(uint64_t Key, const char *Reason) const;

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

  /// Deletes every `prog-*.pbt` entry whose header carries a format
  /// version other than ProgFormatVersion (such entries can never load
  /// again; a bump only changes the keys, so they would otherwise sit on
  /// disk forever). Returns the number of files removed. Unreadable or
  /// foreign files are left alone. Backs `bench/driver --clean-cache`.
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

  /// Age/size-based garbage collection over the store's entries,
  /// backing `bench/driver --gc-cache`. Recency is approximated by file
  /// modification time, which loadProgram() refreshes on every hit, so
  /// entries of suites still in use stay young while entries of
  /// abandoned suites age out. Eviction order is least-recently-used; a
  /// suite that lost an entry re-prepares just that program. Two
  /// independent bounds: entries older than \p MaxAgeSeconds are always
  /// evicted (<= 0 disables the age bound), then the oldest remaining
  /// entries are evicted until the store fits in \p MaxBytes (0
  /// disables the size bound). Only files with the store magic are
  /// touched; ties on mtime break by path, so a pass is deterministic
  /// for a given directory state.
  GcStats gc(uint64_t MaxBytes, double MaxAgeSeconds = 0);

  const std::string &dir() const { return Dir; }

  /// Entries served from disk.
  uint64_t hits() const { return Hits; }
  /// loadProgram probes with no usable entry (absent, rejected, or
  /// lock timed out).
  uint64_t misses() const { return Misses; }
  /// Files present but rejected (corruption, truncation, version or key
  /// mismatch); every reject is also counted as a miss.
  uint64_t rejects() const { return Rejects; }
  /// Entries written by saveProgram() (existing entries are skipped, so
  /// this counts genuinely new preparations reaching disk).
  uint64_t writes() const { return Writes; }
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
  uint64_t Quarantines = 0;
  uint64_t LockTimeouts = 0;
};

} // namespace exp
} // namespace pbt

#endif // PBT_EXP_CACHESTORE_H
