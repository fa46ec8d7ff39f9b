//===- tests/cache_stress_test.cpp - crash + multi-process store stress ---===//
//
// The store's headline robustness claims, proven the hard way: forked
// children are killed (via FaultInjection crash points, which _exit(137)
// like a kill -9) at every interesting instant of a store write, and a
// pack of concurrent processes hammers one store directory — after all
// of which the store must still load, rebuild transparently, and end up
// byte-identical to a single quiet writer's output.

#include "StoreEntries.h"
#include "TestDirs.h"

#include "exp/CacheStore.h"
#include "exp/Harness.h"
#include "exp/SuiteCache.h"
#include "exp/Sweep.h"
#include "support/Binary.h"
#include "support/FaultInjection.h"
#include "workload/Benchmarks.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace pbt;
using namespace pbt::exp;
using pbt_test::entryPath;
using pbt_test::loadSuite;
using pbt_test::saveSuite;
using pbt_test::testCacheDir;

namespace {

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

/// Removes every file inside \p Dir. The scratch root is per-process,
/// but a scenario must start from a genuinely empty store even under
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

/// Counts directory entries whose name contains \p Needle.
size_t countMatching(const std::string &Dir, const char *Needle) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return 0;
  size_t N = 0;
  while (const dirent *E = ::readdir(D))
    if (std::strstr(E->d_name, Needle))
      ++N;
  ::closedir(D);
  return N;
}

/// Everything a crash-point scenario needs, prepared once in the parent
/// BEFORE any fork (children must not touch the thread pool).
struct CrashRig {
  explicit CrashRig(const std::string &DirName, unsigned MinSize = 60)
      : DirName(DirName), Programs(tinySuite()),
        MC(MachineConfig::quadAsymmetric()), Tech(loopTechnique(MinSize)),
        Suite(prepareSuite(Programs, MC, Tech, 42)) {
    wipeDir(DirName);
    wipeDir(DirName + ".ref");
  }

  /// Forks a child that arms the \p Hit-th hit of \p CrashPoint and
  /// saves every program's entry; asserts it died with the kill -9
  /// status.
  void crashChildAt(const char *CrashPoint, uint32_t Hit = 1) {
    pid_t Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      // Child: arm the crash point and write. Everything here must die
      // via _exit — gtest machinery, buffers, and all.
      FaultConfig C;
      C.CrashPoint = CrashPoint;
      C.CrashAtHit = Hit;
      FaultInjection::instance().configure(C);
      CacheStore Child(DirName);
      saveSuite(Child, Programs, MC, Tech, 42, Suite);
      ::_exit(0); // The crash point never fired: wrong, and visible.
    }
    int Status = 0;
    ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
    ASSERT_TRUE(WIFEXITED(Status)) << CrashPoint;
    ASSERT_EQ(WEXITSTATUS(Status), 137) << CrashPoint
        << ": child must die AT the crash point";
  }

  /// The bytes of program \p I's entry in \p Store, or "" when absent.
  std::string entryBytes(const CacheStore &Store, size_t I) {
    std::string Bytes;
    readFile(entryPath(Store, Programs[I], MC, Tech, 42), Bytes);
    return Bytes;
  }

  /// The entry bytes a quiet single writer produces for every program
  /// (the reference store lives beside the crash store).
  std::vector<std::string> referenceBytes() {
    CacheStore Ref(DirName + ".ref");
    EXPECT_TRUE(saveSuite(Ref, Programs, MC, Tech, 42, Suite));
    std::vector<std::string> Bytes;
    for (size_t I = 0; I < Programs.size(); ++I) {
      Bytes.push_back(entryBytes(Ref, I));
      EXPECT_FALSE(Bytes.back().empty()) << "reference entry " << I;
    }
    return Bytes;
  }

  /// Asserts every entry in \p Store equals \p Reference, byte for byte.
  void expectEntries(const CacheStore &Store,
                     const std::vector<std::string> &Reference) {
    for (size_t I = 0; I < Programs.size(); ++I)
      EXPECT_EQ(entryBytes(Store, I), Reference[I]) << "entry " << I;
  }

  std::string DirName;
  std::vector<Program> Programs;
  MachineConfig MC;
  TechniqueSpec Tech;
  PreparedSuite Suite;
};

} // namespace

//===----------------------------------------------------------------------===//
// Smoke under whatever PBT_FAULTS the environment carries
//===----------------------------------------------------------------------===//

// First in the file so FaultInjection::instance() still carries the
// environment's PBT_FAULTS spec (later tests configure() over it). CI's
// fault-smoke step runs this binary under injected EIO, short writes,
// and torn renames: whatever happens to individual store operations,
// the load-through cache must always come back with a usable suite.
TEST(CacheStressTest, SurvivesEnvironmentFaults) {
  std::string EnvDir = testCacheDir("stress_envfaults.cache");
  wipeDir(EnvDir);
  auto Store = std::make_shared<CacheStore>(EnvDir);
  std::vector<Program> Programs = tinySuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique(58);
  for (int Round = 0; Round < 6; ++Round) {
    SuiteCache Cache; // Cold memory tier every round: disk is in play.
    Cache.setStore(Store);
    PreparedSuite Suite = Cache.get(Programs, MC, Tech);
    ASSERT_EQ(Suite.Images.size(), Programs.size()) << "round " << Round;
  }
  FaultInjection::instance().reset();
}

//===----------------------------------------------------------------------===//
// kill -9 at every interesting instant of a store write
//===----------------------------------------------------------------------===//

// A child dies mid-temp-write of the first entry: the destination must
// never exist, the torn temp is swept at the next construction, and a
// rebuild produces byte-identical output.
TEST(CacheStressTest, CrashMidWriteLeavesRecoverableStore) {
  CrashRig Rig(testCacheDir("stress_crash_midwrite.cache"));
  std::vector<std::string> Reference = Rig.referenceBytes();
  Rig.crashChildAt("atomic.mid_write");

  CacheStore After(Rig.DirName); // Construction sweeps the dead temp.
  EXPECT_EQ(countMatching(After.dir(), ".tmp."), 0u)
      << "dead writer's temp must be swept";
  EXPECT_EQ(countMatching(After.dir(), ".pbt"), 0u)
      << "a crashed write must never produce a visible entry";
  EXPECT_FALSE(loadSuite(After, Rig.Programs, Rig.MC, Rig.Tech, 42));
  EXPECT_EQ(After.rejects(), 0u) << "nothing to reject: a clean miss";

  // Rebuild and compare to the quiet single writer, byte for byte.
  ASSERT_TRUE(saveSuite(After, Rig.Programs, Rig.MC, Rig.Tech, 42,
                        Rig.Suite));
  Rig.expectEntries(After, Reference);
}

// A child dies between the temp fsync and the rename: same contract —
// the destination is atomic-or-absent.
TEST(CacheStressTest, CrashBeforeRenameLeavesNoEntry) {
  CrashRig Rig(testCacheDir("stress_crash_prerename.cache"));
  Rig.crashChildAt("atomic.before_rename");

  CacheStore After(Rig.DirName);
  EXPECT_EQ(countMatching(After.dir(), ".tmp."), 0u);
  EXPECT_EQ(countMatching(After.dir(), ".pbt"), 0u);
  EXPECT_FALSE(loadSuite(After, Rig.Programs, Rig.MC, Rig.Tech, 42));
  EXPECT_EQ(After.rejects(), 0u);
}

// A child dies right AFTER the first rename of the save, which commits
// the first program's entry. That entry is complete and byte-identical
// to a quiet writer's (the point of fsync-before-rename); the second
// program is a clean miss, and a rebuild reuses the durable entry and
// converges to the reference bytes.
TEST(CacheStressTest, CrashAfterRenameLeavesCompleteEntry) {
  CrashRig Rig(testCacheDir("stress_crash_postrename.cache"));
  std::vector<std::string> Reference = Rig.referenceBytes();
  Rig.crashChildAt("atomic.after_rename");

  CacheStore After(Rig.DirName);
  EXPECT_EQ(Rig.entryBytes(After, 0), Reference[0])
      << "completed entry survives, byte-identical to a quiet writer's";
  EXPECT_EQ(Rig.entryBytes(After, 1), "") << "second entry never landed";
  EXPECT_FALSE(loadSuite(After, Rig.Programs, Rig.MC, Rig.Tech, 42));
  EXPECT_EQ(After.rejects(), 0u);

  // Rebuild: the durable entry is reused (exists-skip), the rest is
  // written, and every entry matches the quiet single writer's.
  ASSERT_TRUE(saveSuite(After, Rig.Programs, Rig.MC, Rig.Tech, 42,
                        Rig.Suite));
  EXPECT_EQ(After.writes(), Rig.Programs.size() - 1)
      << "the crash's surviving entry must not be rewritten";
  Rig.expectEntries(After, Reference);
  EXPECT_TRUE(loadSuite(After, Rig.Programs, Rig.MC, Rig.Tech, 42));
}

// A child dies while HOLDING the exclusive writer flock: the kernel
// must release the lock with the process, so the store never sees a
// stale lock — readers and writers proceed immediately.
TEST(CacheStressTest, CrashWhileHoldingLockStrandsNothing) {
  CrashRig Rig(testCacheDir("stress_crash_locked.cache"));
  Rig.crashChildAt("store.locked");

  CacheStore After(Rig.DirName);
  After.setLockPolicy(/*MaxAttempts=*/2, /*BaseDelayMicros=*/10);
  ASSERT_TRUE(saveSuite(After, Rig.Programs, Rig.MC, Rig.Tech, 42,
                        Rig.Suite))
      << "dead child's flock must have died with it";
  EXPECT_TRUE(loadSuite(After, Rig.Programs, Rig.MC, Rig.Tech, 42));
  EXPECT_EQ(After.lockTimeouts(), 0u);
}

// A child dies after its last entry is saved: everything is durable; a
// second process simply hits.
TEST(CacheStressTest, CrashAfterSaveIsInvisible) {
  CrashRig Rig(testCacheDir("stress_crash_saved.cache"));
  std::vector<std::string> Reference = Rig.referenceBytes();
  Rig.crashChildAt("store.saved",
                   static_cast<uint32_t>(Rig.Programs.size()));

  CacheStore After(Rig.DirName);
  Rig.expectEntries(After, Reference);
  EXPECT_TRUE(loadSuite(After, Rig.Programs, Rig.MC, Rig.Tech, 42));
}

//===----------------------------------------------------------------------===//
// Many processes, one store directory
//===----------------------------------------------------------------------===//

// Four forked processes hammer one store directory — each with its own
// seeded fault schedule (EIO, short writes, torn renames) — while
// re-loading and re-saving the entries of the same two suites.
// Afterwards the store must recover to entries BYTE-IDENTICAL to a quiet
// single writer's, with no temp debris left behind.
TEST(CacheStressTest, MultiProcessHammerConvergesToReferenceBytes) {
  std::string DirName = testCacheDir("stress_hammer.cache");
  // Two rigs for the suite plumbing: two preparations of one program
  // set, whose entries share a directory.
  CrashRig Rig(DirName);
  CrashRig Second(DirName, 61);
  const TechniqueSpec &SecondTech = Second.Tech;
  const PreparedSuite &SecondSuite = Second.Suite;
  std::vector<std::string> Reference = Rig.referenceBytes();
  std::vector<std::string> SecondReference = Second.referenceBytes();

  constexpr int NumChildren = 4;
  std::vector<pid_t> Children;
  for (int Child = 0; Child < NumChildren; ++Child) {
    pid_t Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      // Child: mild seeded chaos, distinct per child.
      FaultConfig C;
      C.Seed = 1000 + static_cast<uint64_t>(Child);
      C.EioP = 0.05;
      C.ShortWriteP = 0.05;
      C.TornRenameP = 0.05;
      FaultInjection::instance().configure(C);
      CacheStore Store(DirName);
      Store.setLockPolicy(/*MaxAttempts=*/200, /*BaseDelayMicros=*/50);
      for (int Round = 0; Round < 8; ++Round) {
        // Alternate suites so writers and readers collide across
        // children. Loads may miss (faults, quarantines, in-flight
        // writers) — they must just never crash or wedge.
        bool First = (Round + Child) % 2 == 0;
        const TechniqueSpec &T = First ? Rig.Tech : SecondTech;
        const PreparedSuite &S = First ? Rig.Suite : SecondSuite;
        if (!loadSuite(Store, Rig.Programs, Rig.MC, T, 42))
          saveSuite(Store, Rig.Programs, Rig.MC, T, 42, S);
      }
      ::_exit(0);
    }
    Children.push_back(Pid);
  }
  for (pid_t Pid : Children) {
    int Status = 0;
    ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
    ASSERT_TRUE(WIFEXITED(Status));
    ASSERT_EQ(WEXITSTATUS(Status), 0) << "no child may crash or wedge";
  }

  // Recovery pass: one quiet load-through per suite. An entry the chaos
  // left torn gets quarantined and rebuilt here; healthy entries hit.
  CacheStore Final(DirName);
  if (!loadSuite(Final, Rig.Programs, Rig.MC, Rig.Tech, 42)) {
    ASSERT_TRUE(saveSuite(Final, Rig.Programs, Rig.MC, Rig.Tech, 42,
                          Rig.Suite));
  }
  if (!loadSuite(Final, Rig.Programs, Rig.MC, SecondTech, 42)) {
    ASSERT_TRUE(saveSuite(Final, Rig.Programs, Rig.MC, SecondTech, 42,
                          SecondSuite));
  }

  // Byte-identity of every entry with the quiet single-writer reference:
  // concurrency and faults may cost misses, never artifact drift.
  Rig.expectEntries(Final, Reference);
  Second.expectEntries(Final, SecondReference);

  // gc clears every trace of the chaos: quarantines, dead temps,
  // orphaned locks.
  Final.gc(/*MaxBytes=*/0);
  EXPECT_EQ(countMatching(Final.dir(), ".tmp."), 0u);
  EXPECT_EQ(countMatching(Final.dir(), ".quarantined-"), 0u);
  Rig.expectEntries(Final, Reference);
  Second.expectEntries(Final, SecondReference);
}

//===----------------------------------------------------------------------===//
// Drivers racing one cache dir under faults
//===----------------------------------------------------------------------===//

namespace {

SweepGrid stressGrid() {
  TransitionConfig TC;
  TC.Strat = Strategy::Loop;
  TC.MinSize = 60;
  TunerConfig TU;
  TU.IpcDelta = 0.2;
  SweepGrid G;
  G.Techniques = {TechniqueSpec::baseline(), TechniqueSpec::tuned(TC, TU)};
  G.Workloads = {{4, 20, 21, 16}, {5, 20, 22, 16}};
  return G;
}

/// Sweep body for the racing drivers: preparation goes through the
/// Lab's suite cache, i.e. through the shared PBT_CACHE_DIR store.
int stressSweepBody() {
  ExperimentHarness H("stress_race_sweep", "cache-race sweep", "none");
  Lab &L = H.customLab(tinySuite(), MachineConfig::quadAsymmetric());
  SweepResult R = H.sweep(L, stressGrid());
  H.note("cells: " + std::to_string(R.Cells.size()));
  return H.finish();
}

/// One pass of the stress body in the working directory. No gtest
/// assertions: this runs in forked children. Returns false when the
/// body failed or threw (expected under armed faults).
bool runStressPass() {
  try {
    return stressSweepBody() == 0;
  } catch (...) {
    return false;
  }
}

} // namespace

// Four forked drivers race one PBT_CACHE_DIR, each in its own output
// directory: first under its own seeded fault schedule (EIO, short
// writes, torn renames — the chaos pass, outcome ignored), then with
// faults disarmed (the quiet pass, which rewrites the artifact
// cleanly). Every quiet pass's artifact must be byte-identical to a
// quiet single-process run against the same — by then scarred — cache
// directory: concurrency and fault degradation may cost cache misses,
// never artifact drift.
TEST(CacheStressTest, DriversRacingOneCacheStayByteIdentical) {
  const std::string CacheDir = testCacheDir("stress_race.cache");
  wipeDir(CacheDir);
  // Must precede any Lab construction in this process: the process-wide
  // store (CacheStore::fromEnv) latches PBT_CACHE_DIR on first use.
  ASSERT_EQ(::setenv("PBT_CACHE_DIR", CacheDir.c_str(), 1), 0);

  constexpr int N = 4;
  std::vector<std::string> OutDirs;
  for (int K = 0; K < N; ++K) {
    OutDirs.push_back(testCacheDir("stress_race.out" + std::to_string(K)));
    wipeDir(OutDirs.back());
    ::mkdir(OutDirs.back().c_str(), 0755);
  }
  std::vector<pid_t> Children;
  for (int K = 0; K < N; ++K) {
    pid_t Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      if (::chdir(OutDirs[K].c_str()) != 0)
        ::_exit(3);
      if (auto Store = CacheStore::fromEnv())
        Store->setLockPolicy(/*MaxAttempts=*/200, /*BaseDelayMicros=*/50);
      FaultConfig C;
      C.Seed = 2000 + static_cast<uint64_t>(K);
      C.EioP = 0.05;
      C.ShortWriteP = 0.05;
      C.TornRenameP = 0.05;
      FaultInjection::instance().configure(C);
      runStressPass(); // chaos pass: may fail or tear files
      FaultInjection::instance().reset();
      ::_exit(runStressPass() ? 0 : 1);
    }
    Children.push_back(Pid);
  }
  for (pid_t Pid : Children) {
    int Status = 0;
    ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
    ASSERT_TRUE(WIFEXITED(Status));
    ASSERT_EQ(WEXITSTATUS(Status), 0)
        << "every driver's quiet pass must succeed";
  }

  // Quiet single-process reference AFTER the race, against the same
  // cache dir the chaos scarred.
  ASSERT_EQ(stressSweepBody(), 0);
  const std::string Path = "BENCH_stress_race_sweep.json";
  std::string Reference;
  ASSERT_TRUE(readFile(Path, Reference));
  std::remove(Path.c_str());
  for (const std::string &Out : OutDirs) {
    std::string Raced;
    ASSERT_TRUE(readFile(Out + "/" + Path, Raced)) << Out;
    EXPECT_EQ(Raced, Reference)
        << Out << "/" << Path << " differs from single-process run";
  }

  ::unsetenv("PBT_CACHE_DIR");
}
