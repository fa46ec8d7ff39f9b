//===- tests/faultinjection_test.cpp - fault seam + store robustness ------===//
//
// The crash-safety contract of the persistent program store, exercised
// deterministically through support/FaultInjection: injected EIO, short
// writes, and torn renames; quarantine of every rejection reason; gc
// under concurrent-evictor races and held locks; the stale-debris
// sweeps; and bounded lock acquisition degrading to misses.

#include "StoreEntries.h"
#include "TestDirs.h"

#include "exp/CacheStore.h"
#include "exp/SuiteCache.h"
#include "support/Binary.h"
#include "support/FaultInjection.h"
#include "support/FileLock.h"
#include "workload/Benchmarks.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <dirent.h>
#include <stdexcept>
#include <unistd.h>
#include <utime.h>

using namespace pbt;
using namespace pbt::exp;
using pbt_test::testCacheDir;

namespace {

/// Two fast benchmarks keep store round-trips cheap.
std::vector<Program> tinySuite() {
  auto Specs = specSuite();
  std::vector<Program> Programs;
  for (const char *Name : {"164.gzip", "179.art"})
    for (const BenchSpec &S : Specs)
      if (S.Name == Name)
        Programs.push_back(buildBenchmark(S));
  return Programs;
}

TechniqueSpec loopTechnique(unsigned MinSize) {
  TransitionConfig TC;
  TC.Strat = Strategy::Loop;
  TC.MinSize = MinSize;
  TunerConfig TU;
  TU.IpcDelta = 0.2;
  return TechniqueSpec::tuned(TC, TU);
}

bool fileExists(const std::string &Path) {
  std::string Bytes;
  return readFile(Path, Bytes);
}

/// Removes every file inside \p Dir. The scratch root is per-process,
/// but a rig must start from a genuinely empty store even under
/// --gtest_repeat, where a second iteration revisits the same path.
void wipeDir(const std::string &Dir) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return;
  while (const dirent *E = ::readdir(D)) {
    if (std::strcmp(E->d_name, ".") == 0 || std::strcmp(E->d_name, "..") == 0)
      continue;
    std::remove((Dir + "/" + E->d_name).c_str());
  }
  ::closedir(D);
}

void setFileAge(const std::string &Path, long SecondsAgo) {
  struct utimbuf Times;
  Times.actime = Times.modtime = std::time(nullptr) - SecondsAgo;
  ASSERT_EQ(::utime(Path.c_str(), &Times), 0) << Path;
}

/// RAII guard: every test starts and ends with the seam disarmed, so
/// a failing assertion can't leak faults into the next test.
struct FaultScope {
  FaultScope() { FaultInjection::instance().reset(); }
  ~FaultScope() { FaultInjection::instance().reset(); }
};

/// A store holding an entry for every program of a prepared suite;
/// load() and save() act on the first program's entry (Key), the one
/// the tests corrupt, age and lock.
struct StoreRig {
  explicit StoreRig(const std::string &DirName, unsigned MinSize = 40)
      : Store(DirName), Programs(tinySuite()),
        MC(MachineConfig::quadAsymmetric()), Tech(loopTechnique(MinSize)),
        ProgramHash(CacheStore::hashProgram(Programs[0])),
        Key(CacheStore::key(ProgramHash, MC, Tech, 42)) {
    wipeDir(Store.dir());
    Suite = prepareSuite(Programs, MC, Tech, 42);
    EXPECT_TRUE(pbt_test::saveSuite(Store, Programs, MC, Tech, 42, Suite));
  }

  bool save() {
    return pbt_test::saveEntry(Store, Programs, MC, Tech, 42, Suite, 0);
  }
  bool load() {
    return Store.loadProgram(Programs[0], ProgramHash, MC, Tech, 42) !=
           nullptr;
  }
  /// Deletes the entry, so the next save() has something to write.
  void removeEntry() { std::remove(Store.pathFor(Key).c_str()); }

  CacheStore Store;
  std::vector<Program> Programs;
  MachineConfig MC;
  TechniqueSpec Tech;
  uint64_t ProgramHash;
  uint64_t Key;
  PreparedSuite Suite;
};

} // namespace

//===----------------------------------------------------------------------===//
// Spec parsing and the decision stream
//===----------------------------------------------------------------------===//

TEST(FaultInjectionTest, ParseFullSpec) {
  FaultConfig C = FaultInjection::parse(
      "seed=7,eio=0.05,short_write=0.1,torn_rename=0.25,vanish=0.5,"
      "crash_at=store.locked:2");
  EXPECT_EQ(C.Seed, 7u);
  EXPECT_DOUBLE_EQ(C.EioP, 0.05);
  EXPECT_DOUBLE_EQ(C.ShortWriteP, 0.1);
  EXPECT_DOUBLE_EQ(C.TornRenameP, 0.25);
  EXPECT_DOUBLE_EQ(C.VanishP, 0.5);
  EXPECT_EQ(C.CrashPoint, "store.locked");
  EXPECT_EQ(C.CrashAtHit, 2u);
  EXPECT_TRUE(C.enabled());
  // Default hit count, and the all-defaults config is disarmed.
  EXPECT_EQ(FaultInjection::parse("crash_at=atomic.mid_write").CrashAtHit,
            1u);
  EXPECT_FALSE(FaultInjection::parse("seed=3").enabled());
}

TEST(FaultInjectionTest, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(FaultInjection::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW(FaultInjection::parse("eio"), std::invalid_argument);
  EXPECT_THROW(FaultInjection::parse("eio=nope"), std::invalid_argument);
  EXPECT_THROW(FaultInjection::parse("eio=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultInjection::parse("vanish=-0.1"), std::invalid_argument);
  EXPECT_THROW(FaultInjection::parse("seed=abc"), std::invalid_argument);
  EXPECT_THROW(FaultInjection::parse("crash_at="), std::invalid_argument);
  EXPECT_THROW(FaultInjection::parse("crash_at=p:0"), std::invalid_argument);
  EXPECT_THROW(FaultInjection::parse("crash_at=p:x"), std::invalid_argument);
}

TEST(FaultInjectionTest, DecisionStreamIsSeededDeterministic) {
  FaultScope Scope;
  FaultInjection &FI = FaultInjection::instance();

  auto drawSequence = [&](uint64_t Seed) {
    FaultConfig C;
    C.Seed = Seed;
    C.EioP = 0.5;
    FI.configure(C);
    std::vector<bool> Draws;
    for (int I = 0; I < 64; ++I)
      Draws.push_back(FI.failOp("test.op"));
    return Draws;
  };

  std::vector<bool> First = drawSequence(9);
  EXPECT_EQ(FI.decisions(), 64u);
  // Same seed, same schedule; different seed, different schedule.
  EXPECT_EQ(First, drawSequence(9));
  EXPECT_NE(First, drawSequence(10));
}

TEST(FaultInjectionTest, DisarmedSeamIsInert) {
  FaultScope Scope;
  FaultInjection &FI = FaultInjection::instance();
  EXPECT_FALSE(FI.armed());
  EXPECT_FALSE(FI.failOp("x"));
  EXPECT_FALSE(FI.truncateWrite("x"));
  EXPECT_FALSE(FI.tornRename("x"));
  FI.crashPoint("anything"); // Must not exit.
  EXPECT_EQ(FI.decisions(), 0u); // Disarmed checks never hit the stream.
}

//===----------------------------------------------------------------------===//
// writeFileAtomic under injected faults
//===----------------------------------------------------------------------===//

TEST(FaultInjectionTest, InjectedEioFailsWriteCleanly) {
  FaultScope Scope;
  FaultConfig C;
  C.EioP = 1;
  FaultInjection::instance().configure(C);
  std::string Target = testCacheDir("fi_eio_target.bin");
  EXPECT_FALSE(writeFileAtomic(Target, "payload"));
  FaultInjection::instance().reset();
  EXPECT_FALSE(fileExists(Target));
}

TEST(FaultInjectionTest, ShortWriteLeavesTornTempNeverDestination) {
  FaultScope Scope;
  FaultConfig C;
  C.ShortWriteP = 1;
  FaultInjection::instance().configure(C);
  std::string Data(1000, 'x');
  std::string Target = testCacheDir("fi_short_target.bin");
  EXPECT_FALSE(writeFileAtomic(Target, Data));
  FaultInjection::instance().reset();

  // The destination never appeared; the torn temp did, holding exactly
  // the first half (what a crash mid-write leaves behind).
  EXPECT_FALSE(fileExists(Target));
  std::string Tmp = Target + ".tmp." + std::to_string(::getpid());
  std::string Torn;
  ASSERT_TRUE(readFile(Tmp, Torn));
  EXPECT_EQ(Torn.size(), Data.size() / 2);
  std::remove(Tmp.c_str());
}

TEST(FaultInjectionTest, TornRenameIsQuarantinedThenRebuilt) {
  FaultScope Scope;
  StoreRig Rig(testCacheDir("fi_torn.cache"), 47);
  ASSERT_TRUE(Rig.load());

  // Rewrite under a torn rename: the writer believes it succeeded, but
  // the entry on disk is only a prefix.
  Rig.removeEntry();
  FaultConfig C;
  C.TornRenameP = 1;
  FaultInjection::instance().configure(C);
  EXPECT_TRUE(Rig.save());
  FaultInjection::instance().reset();

  // The next reader rejects the torn entry and quarantines it.
  EXPECT_FALSE(Rig.load());
  EXPECT_EQ(Rig.Store.rejects(), 1u);
  EXPECT_EQ(Rig.Store.quarantines(), 1u);
  EXPECT_FALSE(fileExists(Rig.Store.pathFor(Rig.Key)));
  EXPECT_TRUE(fileExists(
      Rig.Store.quarantinePathFor(Rig.Key, "truncated")));

  // A load-through cache transparently rebuilds the entry. Only the
  // first program's entry was torn; the others are intact, so the
  // rebuild serves them from disk and runs the static pipeline over
  // the torn program alone — incremental healing.
  SuiteCache Cache;
  // (shared_ptr with a no-op deleter: the rig owns the store)
  Cache.setStore(std::shared_ptr<CacheStore>(
      std::shared_ptr<CacheStore>(), &Rig.Store));
  Cache.get(Rig.Programs, Rig.MC, Rig.Tech);
  EXPECT_EQ(Cache.prepared(), 1u);
  EXPECT_EQ(Cache.preparedPrograms(), 1u);
  EXPECT_EQ(Cache.programStoreHits(), Rig.Programs.size() - 1);
  // ...and the store is healthy again: the rebuild rewrote the entry.
  EXPECT_TRUE(Rig.load());
}

//===----------------------------------------------------------------------===//
// Quarantine: every rejection reason moves the file aside, the next
// request sees a clean miss, and healthy neighbors never notice
//===----------------------------------------------------------------------===//

TEST(FaultInjectionTest, EveryRejectReasonQuarantinesAndRecovers) {
  FaultScope Scope;
  StoreRig Rig(testCacheDir("fi_quarantine.cache"), 48);
  std::string Path = Rig.Store.pathFor(Rig.Key);
  std::string Good;
  ASSERT_TRUE(readFile(Path, Good));
  constexpr size_t HeaderBytes = 64;
  ASSERT_GT(Good.size(), HeaderBytes);

  // A healthy neighbor entry under a different key (same program,
  // another preparation), for the "unaffected" half of the contract.
  TechniqueSpec NeighborTech = loopTechnique(49);
  ASSERT_TRUE(pbt_test::saveEntry(
      Rig.Store, Rig.Programs, Rig.MC, NeighborTech, 42,
      prepareSuite(Rig.Programs, Rig.MC, NeighborTech, 42), 0));

  struct Case {
    const char *Reason;
    std::string Bytes;
  };
  std::vector<Case> Cases;
  {
    std::string B = Good;
    B[0] ^= 0xFF; // Magic.
    Cases.push_back({"magic", B});
  }
  {
    std::string B = Good;
    B[4] ^= 0x01; // Format version.
    Cases.push_back({"version", B});
  }
  {
    std::string B = Good;
    B[8] ^= 0x01; // Stored key no longer matches the request.
    Cases.push_back({"key", B});
  }
  Cases.push_back({"truncated", Good.substr(0, Good.size() / 2)});
  {
    std::string B = Good;
    B[Good.size() - 3] ^= 0x10; // Payload bit rot: checksum fails.
    Cases.push_back({"checksum", B});
  }
  {
    // Garbage payload with a CORRECT checksum: the header passes, the
    // decode fails — the deepest rejection path.
    std::string B = Good;
    for (size_t I = HeaderBytes; I < B.size(); ++I)
      B[I] = static_cast<char>(I * 131);
    uint64_t Sum = fnv1a(B.data() + HeaderBytes, B.size() - HeaderBytes);
    for (int Byte = 0; Byte < 8; ++Byte) // Patch the checksum field (LE).
      B[56 + Byte] = static_cast<char>((Sum >> (8 * Byte)) & 0xFF);
    Cases.push_back({"payload", B});
  }

  uint64_t ExpectedQuarantines = 0;
  for (const Case &Corruption : Cases) {
    ASSERT_TRUE(writeFileAtomic(Path, Corruption.Bytes));
    uint64_t RejectsBefore = Rig.Store.rejects();

    // Rejected, quarantined under the right reason, original gone.
    EXPECT_FALSE(Rig.load()) << Corruption.Reason;
    EXPECT_EQ(Rig.Store.rejects(), RejectsBefore + 1) << Corruption.Reason;
    EXPECT_EQ(Rig.Store.quarantines(), ++ExpectedQuarantines)
        << Corruption.Reason;
    EXPECT_FALSE(fileExists(Path)) << Corruption.Reason;
    EXPECT_TRUE(fileExists(
        Rig.Store.quarantinePathFor(Rig.Key, Corruption.Reason)))
        << Corruption.Reason;

    // The next request is a PLAIN miss — no re-reject of the same bad
    // bytes — and a fresh save fully recovers the key.
    EXPECT_FALSE(Rig.load()) << Corruption.Reason;
    EXPECT_EQ(Rig.Store.rejects(), RejectsBefore + 1)
        << "quarantined entry must not be re-rejected";
    ASSERT_TRUE(Rig.save()) << Corruption.Reason;
    EXPECT_TRUE(Rig.load()) << Corruption.Reason;

    std::remove(
        Rig.Store.quarantinePathFor(Rig.Key, Corruption.Reason).c_str());
  }

  // The neighbor key served hits throughout, untouched by the chaos.
  uint64_t HitsBefore = Rig.Store.hits();
  EXPECT_TRUE(Rig.Store.loadProgram(Rig.Programs[0], Rig.ProgramHash, Rig.MC,
                                    NeighborTech, 42) != nullptr);
  EXPECT_EQ(Rig.Store.hits(), HitsBefore + 1);
}

//===----------------------------------------------------------------------===//
// gc under races, held locks, and the debris sweeps
//===----------------------------------------------------------------------===//

TEST(FaultInjectionTest, GcToleratesEntriesVanishingUnderneath) {
  FaultScope Scope;
  StoreRig Rig(testCacheDir("fi_gc_vanish.cache"), 50);
  std::string Path = Rig.Store.pathFor(Rig.Key);
  setFileAge(Path, 2 * 3600L);

  // Every eviction candidate is deleted by the "concurrent evictor"
  // just before gc's own remove: gc must sail through the ENOENT and
  // count nothing evicted.
  FaultConfig C;
  C.VanishP = 1;
  FaultInjection::instance().configure(C);
  CacheStore::GcStats Stats = Rig.Store.gc(/*MaxBytes=*/0,
                                           /*MaxAgeSeconds=*/3600);
  FaultInjection::instance().reset();
  // The scan sees one entry per program; only the aged first entry was
  // an eviction candidate.
  EXPECT_EQ(Stats.Scanned, Rig.Programs.size());
  EXPECT_EQ(Stats.Evicted, 0u) << "the race winner gets the credit";
  EXPECT_FALSE(fileExists(Path));
}

TEST(FaultInjectionTest, GcSkipsEntriesHeldByLiveProcesses) {
  FaultScope Scope;
  StoreRig Rig(testCacheDir("fi_gc_locked.cache"), 51);
  TechniqueSpec OtherTech = loopTechnique(52);
  uint64_t OtherKey = CacheStore::key(Rig.ProgramHash, Rig.MC, OtherTech, 42);
  ASSERT_TRUE(pbt_test::saveEntry(
      Rig.Store, Rig.Programs, Rig.MC, OtherTech, 42,
      prepareSuite(Rig.Programs, Rig.MC, OtherTech, 42), 0));
  setFileAge(Rig.Store.pathFor(Rig.Key), 2 * 3600L);
  setFileAge(Rig.Store.pathFor(OtherKey), 2 * 3600L);

  // A "live reader" (another descriptor; flock treats it like another
  // process) holds the first entry's lock through the pass.
  FileLock Reader;
  ASSERT_TRUE(Reader.tryAcquire(Rig.Store.lockPathFor(Rig.Key),
                                FileLock::Mode::Shared));
  CacheStore::GcStats Stats = Rig.Store.gc(/*MaxBytes=*/0,
                                           /*MaxAgeSeconds=*/3600);
  Reader.release();

  EXPECT_EQ(Stats.LockedSkipped, 1u);
  EXPECT_EQ(Stats.Evicted, 1u);
  EXPECT_TRUE(fileExists(Rig.Store.pathFor(Rig.Key)))
      << "held entry survives the pass";
  EXPECT_FALSE(fileExists(Rig.Store.pathFor(OtherKey)));
}

TEST(FaultInjectionTest, SweepCollectsDeadWritersAndOldQuarantines) {
  FaultScope Scope;
  CacheStore Store(testCacheDir("fi_sweep.cache"));

  // Debris: a temp from a dead writer (impossible pid), a temp from a
  // LIVE writer (our own pid, fresh), an old quarantine, and a fresh
  // quarantine.
  std::string DeadTmp =
      Store.dir() + "/prog-0000000000000001.pbt.tmp.999999999";
  std::string LiveTmp = Store.dir() + "/prog-0000000000000002.pbt.tmp." +
                        std::to_string(::getpid());
  std::string OldQuarantine =
      Store.dir() + "/prog-0000000000000003.pbt.quarantined-checksum";
  std::string FreshQuarantine =
      Store.dir() + "/prog-0000000000000004.pbt.quarantined-truncated";
  for (const std::string &Path :
       {DeadTmp, LiveTmp, OldQuarantine, FreshQuarantine})
    ASSERT_TRUE(writeFileAtomic(Path, "debris"));
  setFileAge(OldQuarantine, 8 * 86400L);

  // Default sweep: dead writer's temp and week-old quarantine go; the
  // live writer's temp and the fresh quarantine stay.
  EXPECT_EQ(Store.sweepStale(), 2u);
  EXPECT_FALSE(fileExists(DeadTmp));
  EXPECT_TRUE(fileExists(LiveTmp));
  EXPECT_FALSE(fileExists(OldQuarantine));
  EXPECT_TRUE(fileExists(FreshQuarantine));

  // An explicit age-0 sweep clears the remaining quarantine too.
  EXPECT_EQ(Store.sweepStale(0), 1u);
  EXPECT_FALSE(fileExists(FreshQuarantine));
  std::remove(LiveTmp.c_str());
}

TEST(FaultInjectionTest, GcCollectsOrphanedLockFiles) {
  FaultScope Scope;
  StoreRig Rig(testCacheDir("fi_gc_orphan.cache"), 53);
  // load+save left a lock file beside the entry; it must survive gc
  // while its entry lives...
  std::string LockPath = Rig.Store.lockPathFor(Rig.Key);
  ASSERT_TRUE(Rig.load());
  ASSERT_TRUE(fileExists(LockPath));
  CacheStore::GcStats Stats = Rig.Store.gc(/*MaxBytes=*/0);
  EXPECT_TRUE(fileExists(LockPath));

  // ...and be collected once the entry is gone.
  setFileAge(Rig.Store.pathFor(Rig.Key), 2 * 3600L);
  Stats = Rig.Store.gc(/*MaxBytes=*/0, /*MaxAgeSeconds=*/3600);
  EXPECT_EQ(Stats.Evicted, 1u);
  EXPECT_GE(Stats.Swept, 1u);
  EXPECT_FALSE(fileExists(LockPath));
}

//===----------------------------------------------------------------------===//
// Bounded locking degrades to misses, never blocks or aborts
//===----------------------------------------------------------------------===//

TEST(FaultInjectionTest, ContendedLockDegradesToMissAndSkippedWrite) {
  FaultScope Scope;
  StoreRig Rig(testCacheDir("fi_lock_timeout.cache"), 54);
  Rig.Store.setLockPolicy(/*MaxAttempts=*/3, /*BaseDelayMicros=*/10);

  // An exclusive holder (another descriptor = another process, under
  // flock semantics) pins the key through every bounded retry.
  FileLock Writer;
  ASSERT_TRUE(Writer.tryAcquire(Rig.Store.lockPathFor(Rig.Key),
                                FileLock::Mode::Exclusive));

  uint64_t MissesBefore = Rig.Store.misses();
  EXPECT_FALSE(Rig.load()) << "reader degrades to a miss";
  EXPECT_EQ(Rig.Store.misses(), MissesBefore + 1);
  EXPECT_EQ(Rig.Store.lockTimeouts(), 1u);
  Rig.removeEntry();
  EXPECT_FALSE(Rig.save()) << "writer skips the write-back";
  EXPECT_EQ(Rig.Store.lockTimeouts(), 2u);
  EXPECT_EQ(Rig.Store.rejects(), 0u) << "a timeout is not a rejection";

  // The moment the holder releases, everything works again.
  Writer.release();
  EXPECT_TRUE(Rig.save());
  EXPECT_TRUE(Rig.load());
}

TEST(FaultInjectionTest, LockOpenFailureIsDistinguishedFromContention) {
  FaultScope Scope;
  // Unopenable lock file (no such directory): openFailed(), no lock.
  FileLock L;
  Rng Jitter(1);
  EXPECT_FALSE(L.acquire("fi_no_such_dir/x.lck", FileLock::Mode::Shared,
                         /*MaxAttempts=*/2, Jitter, /*BaseDelayMicros=*/1));
  EXPECT_TRUE(L.openFailed());
  EXPECT_FALSE(L.held());

  // Plain contention: the file opened fine, only the flock stayed held.
  FileLock Holder;
  std::string Contended = testCacheDir("fi_contended.lck");
  ASSERT_TRUE(Holder.tryAcquire(Contended,
                                FileLock::Mode::Exclusive));
  FileLock Contender;
  EXPECT_FALSE(Contender.acquire(Contended,
                                 FileLock::Mode::Exclusive,
                                 /*MaxAttempts=*/2, Jitter,
                                 /*BaseDelayMicros=*/1));
  EXPECT_FALSE(Contender.openFailed());
  Holder.release();
  std::remove(Contended.c_str());
}

TEST(FaultInjectionTest, UnopenableLockFileFallsBackToLocklessRead) {
  FaultScope Scope;
  StoreRig Rig(testCacheDir("fi_lock_open.cache"), 55);

  // Every lock-file open fails from here on — the in-process model of
  // a read-only team-prebuilt PBT_CACHE_DIR, where the .lck files can
  // be neither created nor opened for writing.
  FaultConfig C;
  C.LockOpenP = 1;
  FaultInjection::instance().configure(C);

  // Reads still hit: the reader degrades to a lockless read (atomic
  // rename keeps it safe), NOT to a permanent miss, and an unopenable
  // lock is not counted as contention.
  uint64_t MissesBefore = Rig.Store.misses();
  uint64_t TimeoutsBefore = Rig.Store.lockTimeouts();
  EXPECT_TRUE(Rig.load());
  EXPECT_EQ(Rig.Store.misses(), MissesBefore);
  EXPECT_EQ(Rig.Store.lockTimeouts(), TimeoutsBefore);

  // Writers skip the write-back, again without a lock-timeout count.
  Rig.removeEntry();
  EXPECT_FALSE(Rig.save());
  EXPECT_EQ(Rig.Store.lockTimeouts(), TimeoutsBefore);

  // A healthy store directory restores full behavior.
  FaultInjection::instance().reset();
  EXPECT_TRUE(Rig.save());
  EXPECT_TRUE(Rig.load());
}

TEST(FaultInjectionDeathTest, MalformedEnvSpecExitsCleanly) {
  // The env spec is parsed inside instance()'s one-time initializer,
  // whose first call can come from anywhere with no catch in sight
  // (driver --gc-cache, a store op); a typo must be a clean exit-2
  // diagnostic, never std::terminate. "threadsafe" re-executes the
  // test in a fresh child process, so the child's singleton really is
  // uninitialized when the statement runs.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ::setenv("PBT_FAULTS", "eio=banana", 1);
  EXPECT_EXIT(FaultInjection::instance(), testing::ExitedWithCode(2),
              "probability");
  ::unsetenv("PBT_FAULTS");
}

TEST(FaultInjectionTest, SeamIsOnTheStorePath) {
  FaultScope Scope;
  // Armed but with zero probabilities: nothing fires, but every
  // consulted decision point counts — proving writeFileAtomic actually
  // routes through the seam.
  FaultConfig C;
  C.CrashPoint = "never.reached";
  FaultInjection::instance().configure(C);
  ASSERT_TRUE(writeFileAtomic("fi_decisions.bin", "payload"));
  EXPECT_GT(FaultInjection::instance().decisions(), 0u);
  std::remove("fi_decisions.bin");
}
