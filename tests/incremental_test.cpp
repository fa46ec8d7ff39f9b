//===- tests/incremental_test.cpp - per-program incremental store ---------===//
//
// The per-program persistent cache: `pbt-prog-v4` entries hold only a
// program's marks and round-trip bit-identically onto the shared
// program base, adding one benchmark to a cached suite re-prepares
// exactly that benchmark, programs dedupe across suites, corrupt
// entries quarantine and heal, the store holds nothing but program
// entries, and gc/version cleanup cover them.

#include "StoreEntries.h"
#include "TestDirs.h"

#include "exp/CacheStore.h"
#include "exp/SuiteCache.h"
#include "support/Binary.h"
#include "support/Rng.h"
#include "workload/Benchmarks.h"
#include "workload/Runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <sys/stat.h>

using namespace pbt;
using namespace pbt::exp;
using pbt_test::entryPath;
using pbt_test::saveSuite;
using pbt_test::testCacheDir;

namespace {

/// Randomized benchmark programs, same generator shape as
/// tests/exp_test.cpp.
std::vector<Program> randomPrograms(uint64_t Seed, unsigned Count) {
  Rng Gen(Seed);
  std::vector<Program> Programs;
  for (unsigned I = 0; I < Count; ++I) {
    BenchSpec Spec;
    Spec.Name = "rand" + std::to_string(I);
    Spec.TargetSeconds = 0.2 + 0.1 * static_cast<double>(Gen.next() % 8);
    Spec.Alternations = 1 + static_cast<unsigned>(Gen.next() % 40);
    Spec.ColdCodeInsts = 2000 + static_cast<unsigned>(Gen.next() % 20000);
    unsigned NumPhases = 1 + static_cast<unsigned>(Gen.next() % 3);
    for (unsigned P = 0; P < NumPhases; ++P) {
      PhaseSpec Phase;
      Phase.Memory = (Gen.next() & 1) != 0;
      Phase.Share = 1.0 / NumPhases;
      Phase.BodyInsts = 40 + static_cast<unsigned>(Gen.next() % 300);
      Phase.InCallee = (Gen.next() & 1) != 0;
      Spec.Phases.push_back(Phase);
    }
    Programs.push_back(buildBenchmark(Spec));
  }
  return Programs;
}

TechniqueSpec loopTechnique() {
  TransitionConfig TC;
  TC.Strat = Strategy::Loop;
  TC.MinSize = 45;
  TunerConfig TU;
  TU.IpcDelta = 0.2;
  return TechniqueSpec::tuned(TC, TU);
}

/// Field-exact comparison of one prepared program against another:
/// marks, cost samples, and the serialized flat image byte stream.
void expectProgramsBitIdentical(const std::shared_ptr<const FlatImage> &A,
                                const std::shared_ptr<const FlatImage> &B) {
  ASSERT_TRUE(A && B);
  const InstrumentedProgram &IA = A->program();
  const InstrumentedProgram &IB = B->program();
  EXPECT_EQ(IA.program().Name, IB.program().Name);
  ASSERT_EQ(IA.marks().size(), IB.marks().size());
  for (size_t M = 0; M < IA.marks().size(); ++M) {
    EXPECT_EQ(IA.marks()[M].Proc, IB.marks()[M].Proc);
    EXPECT_EQ(IA.marks()[M].Block, IB.marks()[M].Block);
    EXPECT_EQ(IA.marks()[M].SuccIndex, IB.marks()[M].SuccIndex);
    EXPECT_EQ(IA.marks()[M].Point, IB.marks()[M].Point);
    EXPECT_EQ(IA.marks()[M].PhaseType, IB.marks()[M].PhaseType);
  }
  const Program &Prog = IA.program();
  for (const Procedure &Proc : Prog.Procs)
    for (const BasicBlock &BB : Proc.Blocks)
      EXPECT_EQ(A->cost().blockInsts(Proc.Id, BB.Id),
                B->cost().blockInsts(Proc.Id, BB.Id));
  BinaryWriter WA, WB;
  A->serialize(WA);
  B->serialize(WB);
  EXPECT_EQ(WA.buffer(), WB.buffer());
}

void expectSuitesBitIdentical(const PreparedSuite &A,
                              const PreparedSuite &B) {
  ASSERT_EQ(A.Flats.size(), B.Flats.size());
  EXPECT_EQ(A.Names, B.Names);
  for (size_t I = 0; I < A.Flats.size(); ++I)
    expectProgramsBitIdentical(A.Flats[I], B.Flats[I]);
}

/// Sorted names of the store's files matching \p Substr.
std::vector<std::string> filesContaining(const std::string &Dir,
                                         const char *Substr) {
  std::vector<std::string> Names;
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (const dirent *E = ::readdir(D))
      if (std::strstr(E->d_name, Substr))
        Names.push_back(E->d_name);
    ::closedir(D);
  }
  std::sort(Names.begin(), Names.end());
  return Names;
}

bool readFileBytes(const std::string &Path, std::string &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  char Buf[4096];
  Out.clear();
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  std::fclose(F);
  return true;
}

bool writeFileBytes(const std::string &Path, const std::string &Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = std::fwrite(Bytes.data(), 1, Bytes.size(), F) == Bytes.size();
  std::fclose(F);
  return Ok;
}

} // namespace

//===----------------------------------------------------------------------===//
// Per-program round trips
//===----------------------------------------------------------------------===//

// Every program saved must load back through the per-program
// addressing, which knows nothing about suites, bit-identical to the
// freshly prepared artifact. A second save of an entry already on disk
// writes nothing.
TEST(IncrementalStore, ProgEntryRoundTripBitIdentical) {
  CacheStore Store(testCacheDir("incr_roundtrip.cache"));
  std::vector<Program> Programs = randomPrograms(7, 4);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();

  std::vector<std::shared_ptr<const FlatImage>> Fresh =
      preparePrograms(Programs, MC, Tech, 42);
  for (size_t I = 0; I < Programs.size(); ++I)
    ASSERT_TRUE(Store.saveProgram(CacheStore::hashProgram(Programs[I]), MC,
                                  Tech, 42, *Fresh[I]));
  EXPECT_EQ(Store.writes(), Programs.size());
  ASSERT_TRUE(Store.saveProgram(CacheStore::hashProgram(Programs[0]), MC,
                                Tech, 42, *Fresh[0]));
  EXPECT_EQ(Store.writes(), Programs.size()) << "existing entry rewritten";

  for (size_t I = 0; I < Programs.size(); ++I) {
    expectProgramsBitIdentical(
        Fresh[I],
        Store.loadProgram(Programs[I], CacheStore::hashProgram(Programs[I]),
                          MC, Tech, 42));
  }
  EXPECT_EQ(Store.hits(), Programs.size());
  EXPECT_EQ(Store.misses(), 0u);
  EXPECT_EQ(Store.rejects(), 0u);
}

// A program never saved is a plain prog miss; a probe under a different
// typing seed misses too (the seed is part of the key).
TEST(IncrementalStore, ProgProbeMissesAreKeyed) {
  CacheStore Store(testCacheDir("incr_probe.cache"));
  std::vector<Program> Programs = randomPrograms(9, 2);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();

  ASSERT_TRUE(saveSuite(Store, {Programs[0]}, MC, Tech, 42,
                        prepareSuite({Programs[0]}, MC, Tech, 42)));

  EXPECT_TRUE(Store.loadProgram(Programs[1],
                                CacheStore::hashProgram(Programs[1]), MC,
                                Tech, 42) == nullptr);
  EXPECT_TRUE(Store.loadProgram(Programs[0],
                                CacheStore::hashProgram(Programs[0]), MC,
                                Tech, 43) == nullptr)
      << "wrong typing seed";
  EXPECT_EQ(Store.misses(), 2u);
  EXPECT_EQ(Store.rejects(), 0u); // Plain absence, nothing rejected.
}

// An entry holds the marks, not the program: every entry of the
// benchmark suite's Loop[45] preparation is smaller than its program's
// IR, and a warm load builds on the same program and cost model objects
// a fresh preparation in the process holds.
TEST(IncrementalStore, EntriesHoldMarksAndWarmImagesShareTheBase) {
  std::string Dir = testCacheDir("incr_marks_only.cache");
  std::vector<Program> Programs = buildSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();
  {
    CacheStore Writer(Dir);
    ASSERT_TRUE(saveSuite(Writer, Programs, MC, Tech, 42,
                          prepareSuite(Programs, MC, Tech, 42)));
  }
  for (const Program &Prog : Programs) {
    std::string Bytes;
    ASSERT_TRUE(readFileBytes(entryPath(CacheStore(Dir), Prog, MC, Tech, 42),
                              Bytes));
    // Every instruction serializes to at least 10 bytes (kind, size,
    // memory reference, callee), so this bounds the IR from below.
    EXPECT_LT(Bytes.size(), 10 * Prog.instructionCount()) << Prog.Name;
  }

  PreparedSuite Fresh = prepareSuite(Programs, MC, TechniqueSpec::baseline());
  auto Store = std::make_shared<CacheStore>(Dir);
  SuiteCache Warm;
  Warm.setStore(Store);
  PreparedSuite Loaded = Warm.get(Programs, MC, Tech, 42);
  ASSERT_EQ(Warm.storeHits(), 1u);
  for (size_t I = 0; I < Programs.size(); ++I) {
    EXPECT_EQ(&Loaded.Flats[I]->program().program(),
              &Fresh.Flats[I]->program().program())
        << Programs[I].Name;
    EXPECT_EQ(&Loaded.Flats[I]->cost(), &Fresh.Flats[I]->cost())
        << Programs[I].Name;
  }
}

//===----------------------------------------------------------------------===//
// Incremental suite assembly
//===----------------------------------------------------------------------===//

// The headline incremental contract: after an N-program suite is
// cached, requesting the same suite plus one new benchmark runs the
// static pipeline over exactly that benchmark and serves the other N
// from their prog entries.
TEST(IncrementalStore, AddOneBenchmarkPreparesExactlyOne) {
  auto Store =
      std::make_shared<CacheStore>(testCacheDir("incr_addone.cache"));
  std::vector<Program> Programs = randomPrograms(13, 6);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();
  std::vector<Program> Smaller(Programs.begin(), Programs.end() - 1);

  SuiteCache First;
  First.setStore(Store);
  First.get(Smaller, MC, Tech, 42);
  EXPECT_EQ(First.prepared(), 1u);
  EXPECT_EQ(First.preparedPrograms(), Smaller.size());
  EXPECT_EQ(Store->writes(), Smaller.size());

  // A fresh in-memory cache (a new process in miniature) over the
  // grown suite: one preparation, N prog-entry hits.
  SuiteCache Second;
  Second.setStore(Store);
  PreparedSuite Grown = Second.get(Programs, MC, Tech, 42);
  EXPECT_EQ(Second.prepared(), 1u);
  EXPECT_EQ(Second.preparedPrograms(), 1u);
  EXPECT_EQ(Second.programStoreHits(), Smaller.size());
  EXPECT_EQ(Store->writes(), Programs.size()); // Only the new entry.

  // And the assembled suite is bit-identical to preparing from scratch.
  PreparedSuite Scratch = prepareSuite(Programs, MC, Tech, 42);
  expectSuitesBitIdentical(Grown, Scratch);

  // The new benchmark's entry was written on the way out: a third
  // process gets a whole-suite store hit with nothing prepared.
  SuiteCache Third;
  Third.setStore(Store);
  Third.get(Programs, MC, Tech, 42);
  EXPECT_EQ(Third.prepared(), 0u);
  EXPECT_EQ(Third.storeHits(), 1u);
  EXPECT_EQ(Third.preparedPrograms(), 0u);
}

// Programs shared between different suites resolve to the same
// entries: a permuted subset of a cached suite prepares nothing at all.
TEST(IncrementalStore, CrossSuiteDedupeServesSharedPrograms) {
  auto Store =
      std::make_shared<CacheStore>(testCacheDir("incr_dedupe.cache"));
  std::vector<Program> Programs = randomPrograms(19, 5);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();

  SuiteCache First;
  First.setStore(Store);
  First.get(Programs, MC, Tech, 42);
  ASSERT_EQ(First.preparedPrograms(), Programs.size());

  // A different suite sharing two programs, in reversed order.
  std::vector<Program> Other = {Programs[3], Programs[1]};
  SuiteCache Second;
  Second.setStore(Store);
  PreparedSuite Assembled = Second.get(Other, MC, Tech, 42);
  EXPECT_EQ(Second.preparedPrograms(), 0u);
  EXPECT_EQ(Second.programStoreHits(), Other.size());
  EXPECT_EQ(Second.prepared(), 0u);
  // Served entirely from the store, though this suite was never saved.
  EXPECT_EQ(Second.storeHits(), 1u);
  ASSERT_EQ(Assembled.Names.size(), 2u);
  EXPECT_EQ(Assembled.Names[0], Programs[3].Name);
  EXPECT_EQ(Assembled.Names[1], Programs[1].Name);

  expectSuitesBitIdentical(Assembled, prepareSuite(Other, MC, Tech, 42));
}

// Techniques with the same preparation identity share prog entries;
// a technique differing in preparation (typing error) does not.
TEST(IncrementalStore, PreparationIdentityGovernsDedupe) {
  auto Store =
      std::make_shared<CacheStore>(testCacheDir("incr_prepid.cache"));
  std::vector<Program> Programs = randomPrograms(23, 3);
  MachineConfig MC = MachineConfig::quadAsymmetric();

  SuiteCache Cache;
  Cache.setStore(Store);
  Cache.get(Programs, MC, loopTechnique(), 42);

  // Same preparation, different tuner: in-memory representation aside,
  // the store must not re-prepare anything.
  TechniqueSpec Retuned = loopTechnique();
  Retuned.Tuner.IpcDelta = 0.4;
  SuiteCache SameIdentity;
  SameIdentity.setStore(Store);
  SameIdentity.get(Programs, MC, Retuned, 42);
  EXPECT_EQ(SameIdentity.preparedPrograms(), 0u);

  // Different preparation identity: everything re-prepares.
  TechniqueSpec Erroneous = loopTechnique();
  Erroneous.TypingError = 0.2;
  SuiteCache OtherIdentity;
  OtherIdentity.setStore(Store);
  OtherIdentity.get(Programs, MC, Erroneous, 42);
  EXPECT_EQ(OtherIdentity.preparedPrograms(), Programs.size());
  EXPECT_EQ(OtherIdentity.programStoreHits(), 0u);
}

//===----------------------------------------------------------------------===//
// Corruption, gc, and version hygiene over prog entries
//===----------------------------------------------------------------------===//

// A corrupt entry is quarantined on first touch and the suite
// heals incrementally: only the program behind the bad entry is
// re-prepared, and the healed store serves clean hits again.
TEST(IncrementalStore, CorruptProgEntryQuarantinedThenHealed) {
  std::string Dir = testCacheDir("incr_corrupt.cache");
  auto Store = std::make_shared<CacheStore>(Dir);
  std::vector<Program> Programs = randomPrograms(29, 4);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();

  SuiteCache Seed;
  Seed.setStore(Store);
  PreparedSuite Reference = Seed.get(Programs, MC, Tech, 42);

  // Flip one payload byte of program 2's entry: header intact, checksum
  // no longer matches.
  std::string Path = entryPath(*Store, Programs[2], MC, Tech, 42);
  std::string Bytes;
  ASSERT_TRUE(readFileBytes(Path, Bytes));
  ASSERT_GT(Bytes.size(), 100u);
  Bytes[Bytes.size() - 1] ^= 0x5A;
  ASSERT_TRUE(writeFileBytes(Path, Bytes));

  // A fresh process: the probes serve the three intact entries, trip
  // over the bad one (quarantining it), and re-prepare exactly that
  // program.
  auto Cold = std::make_shared<CacheStore>(Dir);
  SuiteCache Healer;
  Healer.setStore(Cold);
  PreparedSuite Healed = Healer.get(Programs, MC, Tech, 42);
  EXPECT_EQ(Healer.prepared(), 1u);
  EXPECT_EQ(Healer.preparedPrograms(), 1u);
  EXPECT_EQ(Healer.programStoreHits(), Programs.size() - 1);
  EXPECT_EQ(Cold->rejects(), 1u);
  EXPECT_EQ(Cold->quarantines(), 1u);
  EXPECT_EQ(filesContaining(Dir, ".quarantined-checksum").size(), 1u);
  expectSuitesBitIdentical(Healed, Reference);

  // The rebuild healed the entry in place: the next cold process gets a
  // clean whole-suite hit.
  auto Verify = std::make_shared<CacheStore>(Dir);
  SuiteCache Clean;
  Clean.setStore(Verify);
  Clean.get(Programs, MC, Tech, 42);
  EXPECT_EQ(Clean.prepared(), 0u);
  EXPECT_EQ(Clean.storeHits(), 1u);
  EXPECT_EQ(Verify->rejects(), 0u);
}

// The store holds one kind of file: a cold suite over N programs leaves
// exactly N program entries and no whole-suite manifest.
TEST(IncrementalStore, StoreHoldsOnlyProgramEntries) {
  std::string Dir = testCacheDir("incr_only_prog.cache");
  auto Store = std::make_shared<CacheStore>(Dir);
  std::vector<Program> Programs = randomPrograms(41, 3);
  MachineConfig MC = MachineConfig::quadAsymmetric();

  SuiteCache Cache;
  Cache.setStore(Store);
  Cache.get(Programs, MC, loopTechnique(), 42);
  EXPECT_EQ(filesContaining(Dir, ".pbt").size(), Programs.size());
  EXPECT_TRUE(filesContaining(Dir, "suite-").empty());
}

// gc() scans and evicts program entries; a size bound of one byte
// clears them all.
TEST(IncrementalStore, GcScansAndEvictsProgEntries) {
  std::string Dir = testCacheDir("incr_gc.cache");
  CacheStore Store(Dir);
  std::vector<Program> Programs = randomPrograms(31, 3);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();

  ASSERT_TRUE(saveSuite(Store, Programs, MC, Tech, 42,
                        prepareSuite(Programs, MC, Tech, 42)));

  CacheStore::GcStats Stats = Store.gc(/*MaxBytes=*/1);
  EXPECT_EQ(Stats.Scanned, Programs.size());
  EXPECT_EQ(Stats.Evicted, Programs.size());
  EXPECT_TRUE(filesContaining(Dir, ".pbt").empty());
}

// cleanMismatchedVersions removes stale-version program entries while
// leaving current entries, foreign files, and the inert `suite-*.pbt`
// manifests of earlier store versions alone.
TEST(IncrementalStore, CleanMismatchedVersionsCoversProgEntries) {
  std::string Dir = testCacheDir("incr_versions.cache");
  CacheStore Store(Dir);
  std::vector<Program> Programs = randomPrograms(37, 2);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();

  ASSERT_TRUE(saveSuite(Store, Programs, MC, Tech, 42,
                        prepareSuite(Programs, MC, Tech, 42)));
  size_t LiveFiles = filesContaining(Dir, ".pbt").size();

  // Plant a stale-version program entry and an old suite manifest: the
  // real magic with a foreign format version, padded past the header.
  auto plantStale = [&](const char *Name, const char *Magic,
                        uint32_t Version) {
    BinaryWriter W;
    W.u32(static_cast<uint32_t>(Magic[0]) |
          static_cast<uint32_t>(Magic[1]) << 8 |
          static_cast<uint32_t>(Magic[2]) << 16 |
          static_cast<uint32_t>(Magic[3]) << 24);
    W.u32(Version);
    std::string Bytes = W.buffer();
    Bytes.append(64, '\0');
    ASSERT_TRUE(writeFileBytes(Dir + "/" + Name, Bytes));
  };
  plantStale("prog-00000000deadbeef.pbt", "PBTP",
             CacheStore::ProgFormatVersion + 1);
  plantStale("suite-00000000deadbeef.pbt", "PBTS", 1);
  // A foreign file that merely looks store-shaped must survive.
  ASSERT_TRUE(writeFileBytes(Dir + "/prog-00000000cafecafe.pbt",
                             std::string("not a store file at all")));

  EXPECT_EQ(Store.cleanMismatchedVersions(), 1u);
  EXPECT_EQ(filesContaining(Dir, ".pbt").size(), LiveFiles + 2);
  EXPECT_EQ(filesContaining(Dir, "suite-").size(), 1u);

  // Current entries still load after the clean.
  EXPECT_TRUE(Store.loadProgram(Programs[0],
                                CacheStore::hashProgram(Programs[0]), MC,
                                Tech, 42) != nullptr);

  std::remove((Dir + "/prog-00000000cafecafe.pbt").c_str());
  std::remove((Dir + "/suite-00000000deadbeef.pbt").c_str());
}

// A store left by the `pbt-prog-v3` format: its entries are misses (the
// version is in the key and in every header), each program is prepared
// again and written back as v4, and cleanMismatchedVersions then
// removes the leftovers. Program 0's leftover sits at its v4 entry path,
// so the probe reads and rejects it; program 1's sits under another key,
// as a v3 key would, so its probe is a plain miss.
TEST(IncrementalStore, LeftoverV3EntriesMissAndAreRewrittenAsV4) {
  std::string Dir = testCacheDir("incr_v2_leftover.cache");
  std::vector<Program> Programs = randomPrograms(43, 2);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();
  PreparedSuite Reference = prepareSuite(Programs, MC, Tech, 42);

  auto versionOf = [](const std::string &Path) {
    std::string Bytes;
    if (!readFileBytes(Path, Bytes) || Bytes.size() < 8)
      return 0u;
    BinaryReader R(Bytes);
    R.u32(); // Magic.
    return R.u32();
  };
  std::string LeftoverPath = Dir + "/prog-00000000000000f2.pbt";
  CacheStore Writer(Dir);
  ASSERT_TRUE(saveSuite(Writer, Programs, MC, Tech, 42, Reference));
  for (size_t I = 0; I < Programs.size(); ++I) {
    std::string Path = entryPath(Writer, Programs[I], MC, Tech, 42);
    std::string Bytes;
    ASSERT_TRUE(readFileBytes(Path, Bytes));
    Bytes[4] = 3; // Format version, little-endian, after the magic.
    ASSERT_EQ(versionOf(Path), CacheStore::ProgFormatVersion);
    if (I == 0) {
      ASSERT_TRUE(writeFileBytes(Path, Bytes));
    } else {
      ASSERT_TRUE(writeFileBytes(LeftoverPath, Bytes));
      std::remove(Path.c_str());
    }
  }

  auto Store = std::make_shared<CacheStore>(Dir);
  SuiteCache Cache;
  Cache.setStore(Store);
  PreparedSuite Rebuilt = Cache.get(Programs, MC, Tech, 42);
  EXPECT_EQ(Cache.preparedPrograms(), Programs.size());
  EXPECT_EQ(Cache.programStoreHits(), 0u);
  EXPECT_EQ(Store->hits(), 0u);
  EXPECT_EQ(Store->misses(), Programs.size());
  EXPECT_EQ(Store->rejects(), 1u);
  EXPECT_EQ(filesContaining(Dir, ".quarantined-version").size(), 1u);
  EXPECT_EQ(Store->writes(), Programs.size());
  expectSuitesBitIdentical(Rebuilt, Reference);
  for (const Program &Prog : Programs)
    EXPECT_EQ(versionOf(entryPath(*Store, Prog, MC, Tech, 42)),
              CacheStore::ProgFormatVersion)
        << Prog.Name;

  EXPECT_EQ(Store->cleanMismatchedVersions(), 1u);
  std::string Bytes;
  EXPECT_FALSE(readFileBytes(LeftoverPath, Bytes));

  // The rewritten entries serve a later process whole.
  auto Warm = std::make_shared<CacheStore>(Dir);
  SuiteCache Again;
  Again.setStore(Warm);
  expectSuitesBitIdentical(Again.get(Programs, MC, Tech, 42), Reference);
  EXPECT_EQ(Again.storeHits(), 1u);
  EXPECT_EQ(Warm->rejects(), 0u);
}
