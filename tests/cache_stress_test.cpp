//===- tests/cache_stress_test.cpp - crash + multi-process store stress ---===//
//
// The store's headline robustness claims, proven the hard way: forked
// children are killed (via FaultInjection crash points, which _exit(137)
// like a kill -9) at every interesting instant of a store write, and a
// pack of concurrent processes hammers one store directory — after all
// of which the store must still load, rebuild transparently, and end up
// byte-identical to a single quiet writer's output.

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

bool fileExists(const std::string &Path) {
  std::string Bytes;
  return readFile(Path, Bytes);
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
  explicit CrashRig(const std::string &DirName)
      : DirName(DirName), Programs(tinySuite()),
        MC(MachineConfig::quadAsymmetric()), Tech(loopTechnique(60)),
        ProgramsHash(CacheStore::hashProgramSet(Programs)),
        Key(CacheStore::suiteKey(ProgramsHash, MC, Tech, 42)),
        Suite(prepareSuite(Programs, MC, Tech, 42)) {
    wipeDir(DirName);
    wipeDir(DirName + ".ref");
  }

  /// Forks a child that arms \p CrashPoint and calls save(); asserts it
  /// died with the kill -9 status. Returns the child's exit status.
  void crashChildAt(const char *CrashPoint) {
    pid_t Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      // Child: arm the crash point and write. Everything here must die
      // via _exit — gtest machinery, buffers, and all.
      FaultConfig C;
      C.CrashPoint = CrashPoint;
      FaultInjection::instance().configure(C);
      CacheStore Child(DirName);
      Child.save(Key, ProgramsHash, MC, Tech, 42, Suite);
      ::_exit(0); // The crash point never fired: wrong, and visible.
    }
    int Status = 0;
    ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
    ASSERT_TRUE(WIFEXITED(Status)) << CrashPoint;
    ASSERT_EQ(WEXITSTATUS(Status), 137) << CrashPoint
        << ": child must die AT the crash point";
  }

  /// The manifest bytes a quiet single writer produces for Key (the
  /// reference store lives beside the crash store and is populated on
  /// first call).
  std::string referenceBytes() {
    CacheStore Ref(DirName + ".ref");
    EXPECT_TRUE(Ref.save(Key, ProgramsHash, MC, Tech, 42, Suite));
    std::string Bytes;
    EXPECT_TRUE(readFile(Ref.pathFor(Key), Bytes));
    return Bytes;
  }

  /// The reference store's bytes for program \p I's per-program entry
  /// (referenceBytes() must have populated the reference store first).
  std::string referenceProgBytes(size_t I) {
    CacheStore Ref(DirName + ".ref");
    std::string Bytes;
    EXPECT_TRUE(readFile(
        Ref.progPathFor(CacheStore::progKey(
            CacheStore::hashProgram(Programs[I]), MC, Tech, 42)),
        Bytes))
        << "reference prog entry " << I;
    return Bytes;
  }

  std::string DirName;
  std::vector<Program> Programs;
  MachineConfig MC;
  TechniqueSpec Tech;
  uint64_t ProgramsHash;
  uint64_t Key;
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

// A child dies mid-temp-write: the destination must never exist, the
// torn temp is swept at the next construction, and a rebuild produces
// byte-identical output.
TEST(CacheStressTest, CrashMidWriteLeavesRecoverableStore) {
  CrashRig Rig(testCacheDir("stress_crash_midwrite.cache"));
  std::string Reference = Rig.referenceBytes();
  Rig.crashChildAt("atomic.mid_write");

  CacheStore After(Rig.DirName); // Construction sweeps the dead temp.
  EXPECT_EQ(countMatching(After.dir(), ".tmp."), 0u)
      << "dead writer's temp must be swept";
  EXPECT_TRUE(After.load(Rig.Key, Rig.ProgramsHash, Rig.MC, Rig.Tech,
                         42) == nullptr)
      << "a crashed write must never produce a visible entry";
  EXPECT_EQ(After.rejects(), 0u) << "nothing to reject: a clean miss";

  // Rebuild and compare to the quiet single writer, byte for byte.
  ASSERT_TRUE(After.save(Rig.Key, Rig.ProgramsHash, Rig.MC, Rig.Tech, 42,
                         Rig.Suite));
  std::string Bytes;
  ASSERT_TRUE(readFile(After.pathFor(Rig.Key), Bytes));
  EXPECT_EQ(Bytes, Reference);
}

// A child dies between the temp fsync and the rename: same contract —
// the destination is atomic-or-absent.
TEST(CacheStressTest, CrashBeforeRenameLeavesNoEntry) {
  CrashRig Rig(testCacheDir("stress_crash_prerename.cache"));
  Rig.crashChildAt("atomic.before_rename");

  CacheStore After(Rig.DirName);
  EXPECT_EQ(countMatching(After.dir(), ".tmp."), 0u);
  EXPECT_TRUE(After.load(Rig.Key, Rig.ProgramsHash, Rig.MC, Rig.Tech,
                         42) == nullptr);
  EXPECT_EQ(After.rejects(), 0u);
}

// A child dies right AFTER the first rename of the save — which, under
// module-granular addressing, commits the first program's entry, not
// the manifest. That entry is complete and byte-identical to a quiet
// writer's (the point of fsync-before-rename); the suite itself is a
// clean miss (the manifest never landed), and a rebuild reuses the
// durable prog entry and converges to the reference bytes.
TEST(CacheStressTest, CrashAfterRenameLeavesCompleteEntry) {
  CrashRig Rig(testCacheDir("stress_crash_postrename.cache"));
  std::string Reference = Rig.referenceBytes();
  Rig.crashChildAt("atomic.after_rename");

  CacheStore After(Rig.DirName);
  std::string FirstProgPath = After.progPathFor(CacheStore::progKey(
      CacheStore::hashProgram(Rig.Programs[0]), Rig.MC, Rig.Tech, 42));
  std::string ProgBytes;
  ASSERT_TRUE(readFile(FirstProgPath, ProgBytes))
      << "renamed prog entry survives the crash";
  EXPECT_EQ(ProgBytes, Rig.referenceProgBytes(0))
      << "completed prog entry is byte-identical to a quiet writer's";
  EXPECT_TRUE(After.load(Rig.Key, Rig.ProgramsHash, Rig.MC, Rig.Tech,
                         42) == nullptr)
      << "no manifest yet: the suite is a clean miss";
  EXPECT_EQ(After.rejects(), 0u);

  // Rebuild: the durable prog entry is reused (exists-skip), the rest
  // is written, and the manifest matches the quiet single writer's.
  ASSERT_TRUE(After.save(Rig.Key, Rig.ProgramsHash, Rig.MC, Rig.Tech, 42,
                         Rig.Suite));
  EXPECT_EQ(After.progWrites(), Rig.Programs.size() - 1)
      << "the crash's surviving entry must not be rewritten";
  std::string Bytes;
  ASSERT_TRUE(readFile(After.pathFor(Rig.Key), Bytes));
  EXPECT_EQ(Bytes, Reference);
  EXPECT_TRUE(After.load(Rig.Key, Rig.ProgramsHash, Rig.MC, Rig.Tech,
                         42) != nullptr);
}

// A child dies while HOLDING the exclusive writer flock: the kernel
// must release the lock with the process, so the store never sees a
// stale lock — readers and writers proceed immediately.
TEST(CacheStressTest, CrashWhileHoldingLockStrandsNothing) {
  CrashRig Rig(testCacheDir("stress_crash_locked.cache"));
  Rig.crashChildAt("store.locked");

  CacheStore After(Rig.DirName);
  After.setLockPolicy(/*MaxAttempts=*/2, /*BaseDelayMicros=*/10);
  ASSERT_TRUE(After.save(Rig.Key, Rig.ProgramsHash, Rig.MC, Rig.Tech, 42,
                         Rig.Suite))
      << "dead child's flock must have died with it";
  EXPECT_TRUE(After.load(Rig.Key, Rig.ProgramsHash, Rig.MC, Rig.Tech,
                         42) != nullptr);
  EXPECT_EQ(After.lockTimeouts(), 0u);
}

// A child dies after the full save: everything is durable; a second
// process simply hits.
TEST(CacheStressTest, CrashAfterSaveIsInvisible) {
  CrashRig Rig(testCacheDir("stress_crash_saved.cache"));
  std::string Reference = Rig.referenceBytes();
  Rig.crashChildAt("store.saved");

  CacheStore After(Rig.DirName);
  std::string Bytes;
  ASSERT_TRUE(readFile(After.pathFor(Rig.Key), Bytes));
  EXPECT_EQ(Bytes, Reference);
  EXPECT_TRUE(After.load(Rig.Key, Rig.ProgramsHash, Rig.MC, Rig.Tech,
                         42) != nullptr);
}

//===----------------------------------------------------------------------===//
// Many processes, one store directory
//===----------------------------------------------------------------------===//

// Four forked processes hammer one store directory — each with its own
// seeded fault schedule (EIO, short writes, torn renames) — while
// re-loading and re-saving the same two keys. Afterwards the store must
// recover to entries BYTE-IDENTICAL to a quiet single writer's, with no
// temp debris left behind.
TEST(CacheStressTest, MultiProcessHammerConvergesToReferenceBytes) {
  std::string DirName = testCacheDir("stress_hammer.cache");
  CrashRig Rig(DirName); // Reuses the rig for key/suite plumbing.
  TechniqueSpec SecondTech = loopTechnique(61);
  uint64_t SecondKey =
      CacheStore::suiteKey(Rig.ProgramsHash, Rig.MC, SecondTech, 42);
  PreparedSuite SecondSuite =
      prepareSuite(Rig.Programs, Rig.MC, SecondTech, 42);
  std::string Reference = Rig.referenceBytes();

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
        // Alternate keys so writers and readers collide across
        // children. Loads may miss (faults, quarantines, in-flight
        // writers) — they must just never crash or wedge.
        bool First = (Round + Child) % 2 == 0;
        uint64_t K = First ? Rig.Key : SecondKey;
        const TechniqueSpec &T = First ? Rig.Tech : SecondTech;
        const PreparedSuite &S = First ? Rig.Suite : SecondSuite;
        if (!Store.load(K, Rig.ProgramsHash, Rig.MC, T, 42))
          Store.save(K, Rig.ProgramsHash, Rig.MC, T, 42, S);
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

  // Recovery pass: one quiet load-through each. A key the chaos left
  // torn gets quarantined and rebuilt here; a healthy key just hits.
  CacheStore Final(DirName);
  if (!Final.load(Rig.Key, Rig.ProgramsHash, Rig.MC, Rig.Tech, 42)) {
    ASSERT_TRUE(Final.save(Rig.Key, Rig.ProgramsHash, Rig.MC, Rig.Tech,
                           42, Rig.Suite));
  }
  if (!Final.load(SecondKey, Rig.ProgramsHash, Rig.MC, SecondTech, 42)) {
    ASSERT_TRUE(Final.save(SecondKey, Rig.ProgramsHash, Rig.MC,
                           SecondTech, 42, SecondSuite));
  }

  // Byte-identity with the quiet single-writer reference: concurrency
  // and faults may cost misses, never artifact drift.
  std::string Bytes;
  ASSERT_TRUE(readFile(Final.pathFor(Rig.Key), Bytes));
  EXPECT_EQ(Bytes, Reference);

  // gc clears every trace of the chaos: quarantines, dead temps,
  // orphaned locks.
  Final.gc(/*MaxBytes=*/0);
  EXPECT_EQ(countMatching(Final.dir(), ".tmp."), 0u);
  EXPECT_EQ(countMatching(Final.dir(), ".quarantined-"), 0u);
  EXPECT_TRUE(fileExists(Final.pathFor(Rig.Key)))
      << "gc must not evict live entries";
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
