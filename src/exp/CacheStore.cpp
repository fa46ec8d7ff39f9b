//===- exp/CacheStore.cpp - Persistent prepared-program store -------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exp/CacheStore.h"

#include "support/Binary.h"
#include "support/Env.h"
#include "support/FaultInjection.h"
#include "support/FileLock.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <dirent.h>
#include <set>
#include <signal.h>
#include <sys/stat.h>
#include <tuple>
#include <unistd.h>
#include <utime.h>

using namespace pbt;
using namespace pbt::exp;

namespace {

/// "PBTP" as a little-endian u32.
constexpr uint32_t Magic = 0x50544250u;

/// Fixed-size file header preceding the payload.
struct Header {
  uint64_t Key = 0;
  uint64_t ProgramHash = 0;
  uint64_t MachineHash = 0;
  uint64_t PrepHash = 0;
  uint64_t TypingSeed = 0;
  uint64_t PayloadSize = 0;
  uint64_t Checksum = 0;
};

void writeHeader(BinaryWriter &W, const Header &H) {
  W.u32(Magic);
  W.u32(CacheStore::ProgFormatVersion);
  W.u64(H.Key);
  W.u64(H.ProgramHash);
  W.u64(H.MachineHash);
  W.u64(H.PrepHash);
  W.u64(H.TypingSeed);
  W.u64(H.PayloadSize);
  W.u64(H.Checksum);
}

constexpr size_t HeaderBytes = 4 + 4 + 7 * 8;

//===----------------------------------------------------------------------===//
// Program hash + marks serialization
//===----------------------------------------------------------------------===//

/// The program's IR, field by field: the input of hashProgram. Entries
/// do not store it.
void writeProgram(BinaryWriter &W, const Program &Prog) {
  W.str(Prog.Name);
  W.u32(static_cast<uint32_t>(Prog.Procs.size()));
  for (const Procedure &P : Prog.Procs) {
    W.u32(P.Id);
    W.str(P.Name);
    W.u32(static_cast<uint32_t>(P.Blocks.size()));
    for (const BasicBlock &BB : P.Blocks) {
      W.u32(BB.Id);
      W.u32(static_cast<uint32_t>(BB.Insts.size()));
      for (const Instruction &I : BB.Insts) {
        W.u8(static_cast<uint8_t>(I.Kind));
        W.u8(I.SizeBytes);
        W.i32(I.MemRef);
        W.i32(I.Callee);
      }
      W.u8(static_cast<uint8_t>(BB.Term));
      W.u32(static_cast<uint32_t>(BB.Succs.size()));
      for (uint32_t Succ : BB.Succs)
        W.u32(Succ);
      W.u32(BB.TripCount);
      W.f64(BB.TakenProb);
      W.u32(BB.StreamWorkingSet);
    }
  }
}

void writeMarks(BinaryWriter &W, const std::vector<PhaseMark> &Marks) {
  W.u32(static_cast<uint32_t>(Marks.size()));
  for (const PhaseMark &M : Marks) {
    W.u32(M.Proc);
    W.u32(M.Block);
    W.u32(M.SuccIndex);
    W.u8(static_cast<uint8_t>(M.Point));
    W.u32(M.PhaseType);
  }
}

/// Reads and validates marks against \p Prog: indices in range, succ
/// index < 2, valid anchor kind, and no duplicate anchors (the
/// InstrumentedProgram constructor asserts these; a store file must
/// never be able to trip them).
std::vector<PhaseMark> readMarks(BinaryReader &R, const Program &Prog) {
  std::vector<PhaseMark> Marks(R.count(1u << 24, /*ElemBytes=*/17));
  std::set<std::tuple<uint32_t, uint32_t, uint8_t, uint32_t>> Anchors;
  for (PhaseMark &M : Marks) {
    M.Proc = R.u32();
    M.Block = R.u32();
    M.SuccIndex = R.u32();
    uint8_t Point = R.u8();
    M.PhaseType = R.u32();
    if (R.failed())
      return Marks;
    if (Point > static_cast<uint8_t>(MarkPoint::CallSite) ||
        M.Proc >= Prog.Procs.size() ||
        M.Block >= Prog.Procs[M.Proc].Blocks.size() || M.SuccIndex >= 2) {
      R.markFailed();
      return Marks;
    }
    M.Point = static_cast<MarkPoint>(Point);
    uint32_t Slot = M.Point == MarkPoint::CallSite ? 0 : M.SuccIndex;
    if (!Anchors.emplace(M.Proc, M.Block, Point, Slot).second) {
      R.markFailed();
      return Marks;
    }
  }
  return Marks;
}

//===----------------------------------------------------------------------===//
// Per-program payload
//===----------------------------------------------------------------------===//

/// One prepared program: the `pbt-prog-v4` payload (marks, phase-type
/// count, mark cost). The program and its cost model are not stored:
/// the loading caller holds the program, and readPrepared rebuilds the
/// image on it and its shared base.
void writePrepared(BinaryWriter &W, const FlatImage &Flat) {
  const InstrumentedProgram &Image = Flat.program();
  writeMarks(W, Image.marks());
  W.u32(Image.numTypes());
  const MarkCostModel &Cost = Image.cost();
  W.u32(Cost.MarkBytes);
  W.u32(Cost.RuntimeStubBytes);
  W.u32(Cost.MarkInsts);
  W.u32(Cost.MonitorSetupCycles);
  W.u32(Cost.SwitchCycles);
}

/// Decodes and validates one prepared program's marks against \p Prog
/// and rebuilds its flat image on \p Prog (imageFromMarks). Returns
/// null (and \p R marked failed where applicable) on any rejection,
/// trailing bytes included.
std::shared_ptr<const FlatImage>
readPrepared(BinaryReader &R, const Program &Prog,
             const MachineConfig &Machine, const TechniqueSpec &Tech) {
  MarkingResult Marking;
  Marking.Marks = readMarks(R, Prog);
  Marking.NumTypes = R.u32();
  // The tuner sizes its per-phase state by numTypes() and indexes it
  // with the firing mark's PhaseType; an out-of-range type in a store
  // file must never reach that lookup, and an absurd NumTypes must
  // not drive a giant per-process tuner allocation (real typings use
  // a handful of types; 4096 is far beyond any k-means k).
  if (Marking.NumTypes > 4096)
    R.markFailed();
  for (const PhaseMark &M : Marking.Marks)
    if (M.PhaseType >= std::max(1u, Marking.NumTypes))
      R.markFailed();

  MarkCostModel Cost;
  Cost.MarkBytes = R.u32();
  Cost.RuntimeStubBytes = R.u32();
  Cost.MarkInsts = R.u32();
  Cost.MonitorSetupCycles = R.u32();
  Cost.SwitchCycles = R.u32();
  if (R.failed() || R.remaining() != 0 || Cost != Tech.Cost)
    return nullptr;

  return imageFromMarks(Prog, Machine, std::move(Marking), Cost);
}

/// Creates \p Dir (and parents) best-effort; existing directories are
/// fine — a failed creation surfaces later as saveProgram() I/O failures.
void makeDirs(const std::string &Dir) {
  std::string Partial;
  for (size_t I = 0; I <= Dir.size(); ++I) {
    if (I < Dir.size() && Dir[I] != '/') {
      Partial.push_back(Dir[I]);
      continue;
    }
    if (!Partial.empty())
      ::mkdir(Partial.c_str(), 0755);
    if (I < Dir.size())
      Partial.push_back('/');
  }
}

/// True for the store's entries: "prog-<16 hex>.pbt".
bool isEntryName(const char *Name) {
  size_t Len = std::strlen(Name);
  return Len == 25 && std::strncmp(Name, "prog-", 5) == 0 &&
         std::strcmp(Name + Len - 4, ".pbt") == 0;
}

/// True for the store's advisory lock files: "prog-<16 hex>.lck".
bool isLockName(const char *Name) {
  size_t Len = std::strlen(Name);
  return Len == 25 && std::strncmp(Name, "prog-", 5) == 0 &&
         std::strcmp(Name + Len - 4, ".lck") == 0;
}

/// \p Path's mtime, or 0 when unreadable.
time_t fileMtime(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? St.st_mtime : 0;
}

/// For a temp-file name "<entry>.tmp.<pid>", returns the pid (0 when
/// the suffix is not a plain number).
long tmpFilePid(const char *Name) {
  const char *Tag = std::strstr(Name, ".tmp.");
  if (!Tag)
    return 0;
  const char *Digits = Tag + 5;
  if (*Digits == '\0')
    return 0;
  char *End = nullptr;
  long Pid = std::strtol(Digits, &End, 10);
  return (End && *End == '\0' && Pid > 0) ? Pid : 0;
}

/// True when no process with \p Pid exists (the temp's writer died).
bool pidDead(long Pid) {
  return ::kill(static_cast<pid_t>(Pid), 0) != 0 && errno == ESRCH;
}

/// Shared sweep body (callers hold the store mutex): removes stranded
/// temp files, expired quarantines, and — when \p CollectOrphanLocks —
/// lock files whose entry is gone and that nobody holds. Staleness
/// rules are documented on CacheStore::sweepStale.
size_t sweepDebris(const std::string &Dir, double MaxQuarantineAgeSeconds,
                   bool CollectOrphanLocks) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return 0;
  std::vector<std::string> Stale;
  std::vector<std::string> Locks;
  time_t Now = std::time(nullptr);
  while (const dirent *Entry = ::readdir(D)) {
    const char *Name = Entry->d_name;
    // Only debris derived from our own entry names is considered.
    if (std::strncmp(Name, "prog-", 5) != 0)
      continue;
    std::string Path = Dir + "/" + Name;
    if (std::strstr(Name, ".pbt.tmp.")) {
      // A temp is stale when its writing process is gone, or when it
      // is old enough (an hour) that any sane write must have ended —
      // the fallback for unparsable pids and pid reuse.
      long Pid = tmpFilePid(Name);
      bool Dead = Pid > 0 && pidDead(Pid);
      bool Old = Now - fileMtime(Path) > 3600;
      if (Dead || Old)
        Stale.push_back(std::move(Path));
    } else if (std::strstr(Name, ".quarantined-")) {
      if (MaxQuarantineAgeSeconds >= 0 &&
          static_cast<double>(Now - fileMtime(Path)) >=
              MaxQuarantineAgeSeconds)
        Stale.push_back(std::move(Path));
    } else if (CollectOrphanLocks && isLockName(Name)) {
      Locks.push_back(std::move(Path));
    }
  }
  ::closedir(D);
  size_t Removed = 0;
  for (const std::string &Path : Stale)
    if (std::remove(Path.c_str()) == 0)
      ++Removed; // ENOENT = a concurrent sweep won the race; fine.
  for (const std::string &LockPath : Locks) {
    // A lock file is an orphan when its entry is gone and nobody holds
    // it right now. (A contender could re-open it the instant after we
    // unlink; locks are advisory efficiency hints, so that race costs
    // at worst one redundant preparation, never correctness.)
    std::string EntryPath =
        LockPath.substr(0, LockPath.size() - 4) + ".pbt";
    struct stat St;
    if (::stat(EntryPath.c_str(), &St) == 0)
      continue;
    FileLock Guard;
    if (!Guard.tryAcquire(LockPath, FileLock::Mode::Exclusive))
      continue;
    if (std::remove(LockPath.c_str()) == 0)
      ++Removed;
  }
  return Removed;
}

} // namespace

CacheStore::CacheStore(std::string DirIn)
    : Dir(std::move(DirIn)),
      // Backoff jitter: deterministic for a given pid, so a process's
      // lock schedule is reproducible while contending processes
      // still desynchronize.
      LockRng(hashCombine(0xF11E10C4, static_cast<uint64_t>(::getpid()))) {
  makeDirs(Dir);
  // Startup sweep: collect temp files stranded by crashed writers and
  // stale quarantines, so debris can never accumulate across runs.
  sweepStale();
}

std::shared_ptr<CacheStore> CacheStore::fromEnv() {
  static std::shared_ptr<CacheStore> Store = [] {
    const char *Dir = envString("PBT_CACHE_DIR");
    return Dir && *Dir ? std::make_shared<CacheStore>(Dir)
                       : std::shared_ptr<CacheStore>();
  }();
  return Store;
}

uint64_t CacheStore::hashProgram(const Program &Prog) {
  BinaryWriter W;
  writeProgram(W, Prog);
  return fnv1a(W.buffer().data(), W.buffer().size());
}

uint64_t CacheStore::key(uint64_t ProgramHash, const MachineConfig &Machine,
                         const TechniqueSpec &Tech, uint64_t TypingSeed) {
  uint64_t Key = hashCombine(0x9B09CACE, ProgFormatVersion);
  Key = hashCombine(Key, PipelineVersion);
  Key = hashCombine(Key, ProgramHash);
  Key = hashCombine(Key, hashValue(Machine));
  Key = hashCombine(Key, Tech.preparationHash());
  return hashCombine(Key, TypingSeed);
}

std::string CacheStore::pathFor(uint64_t Key) const {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "prog-%016llx.pbt",
                static_cast<unsigned long long>(Key));
  return Dir + "/" + Name;
}

std::string CacheStore::lockPathFor(uint64_t Key) const {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "prog-%016llx.lck",
                static_cast<unsigned long long>(Key));
  return Dir + "/" + Name;
}

std::string CacheStore::quarantinePathFor(uint64_t Key,
                                          const char *Reason) const {
  return pathFor(Key) + ".quarantined-" + Reason;
}

void CacheStore::setLockPolicy(unsigned MaxAttempts,
                               unsigned BaseDelayMicros) {
  std::lock_guard<std::mutex> Lock(Mutex);
  LockMaxAttempts = std::max(1u, MaxAttempts);
  LockBaseDelayMicros = std::max(1u, BaseDelayMicros);
}

size_t CacheStore::sweepStale(double MaxQuarantineAgeSeconds) {
  std::lock_guard<std::mutex> Lock(Mutex);
  // Lock files are left alone here (load/save hold them constantly in
  // a busy store); gc() is the one pass that collects orphans.
  return sweepDebris(Dir, MaxQuarantineAgeSeconds,
                     /*CollectOrphanLocks=*/false);
}

size_t CacheStore::cleanMismatchedVersions() {
  std::lock_guard<std::mutex> Lock(Mutex);
  size_t Removed = 0;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return 0;
  std::vector<std::string> Stale;
  while (const dirent *Entry = ::readdir(D)) {
    const char *Name = Entry->d_name;
    // Only files this store wrote: "prog-<16 hex>.pbt" entries.
    if (!isEntryName(Name))
      continue;
    std::string Path = Dir + "/" + Name;
    // Only the first 8 header bytes matter (magic + version); entries
    // can be many megabytes, so never read the payload. A vanished or
    // unreadable file (concurrent eviction) is simply skipped.
    char Hdr[8];
    std::FILE *F = std::fopen(Path.c_str(), "rb");
    if (!F)
      continue;
    size_t Got = std::fread(Hdr, 1, sizeof(Hdr), F);
    std::fclose(F);
    if (Got != sizeof(Hdr))
      continue; // Too short to carry a header; leave it.
    BinaryReader R(Hdr, sizeof(Hdr));
    if (R.u32() != Magic)
      continue; // Not one of ours after all.
    if (R.u32() != ProgFormatVersion)
      Stale.push_back(std::move(Path));
  }
  ::closedir(D);
  for (const std::string &Path : Stale) {
    // Skip entries a live process still holds (it is mid-read of the
    // old format it understands); a later clean collects them.
    FileLock Guard;
    std::string LockPath = Path.substr(0, Path.size() - 4) + ".lck";
    if (!Guard.tryAcquire(LockPath, FileLock::Mode::Exclusive))
      continue;
    // ENOENT here means a concurrent process evicted the same entry
    // between our scan and now — not an error, just not our removal.
    if (std::remove(Path.c_str()) == 0)
      ++Removed;
    // Either way the entry is gone now; its lock file (possibly just
    // created by our tryAcquire) is an orphan we hold exclusively.
    std::remove(LockPath.c_str());
  }
  return Removed;
}

CacheStore::GcStats CacheStore::gc(uint64_t MaxBytes, double MaxAgeSeconds) {
  std::lock_guard<std::mutex> Lock(Mutex);
  GcStats Stats;

  // Scan the directory for store entries — the same name + magic
  // filter cleanMismatchedVersions uses, so foreign files are never
  // touched. Sort by (mtime, path): mtime is the LRU clock
  // (loadProgram() refreshes it), the path tie-break makes a pass
  // deterministic for a given directory state.
  struct Entry {
    time_t Mtime;
    uint64_t Bytes;
    std::string Path;
  };
  std::vector<Entry> Entries;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Stats;
  while (const dirent *DirEntry = ::readdir(D)) {
    const char *Name = DirEntry->d_name;
    if (!isEntryName(Name))
      continue;
    std::string Path = Dir + "/" + Name;
    char Hdr[4];
    std::FILE *F = std::fopen(Path.c_str(), "rb");
    if (!F)
      continue;
    size_t Got = std::fread(Hdr, 1, sizeof(Hdr), F);
    std::fclose(F);
    if (Got != sizeof(Hdr))
      continue;
    BinaryReader R(Hdr, sizeof(Hdr));
    if (R.u32() != Magic)
      continue; // Not one of ours after all.
    struct stat St;
    if (::stat(Path.c_str(), &St) != 0)
      continue;
    Entries.push_back({St.st_mtime, static_cast<uint64_t>(St.st_size),
                       std::move(Path)});
  }
  ::closedir(D);

  std::sort(Entries.begin(), Entries.end(),
            [](const Entry &A, const Entry &B) {
              if (A.Mtime != B.Mtime)
                return A.Mtime < B.Mtime;
              return A.Path < B.Path;
            });

  uint64_t Total = 0;
  for (const Entry &E : Entries) {
    ++Stats.Scanned;
    Stats.BytesScanned += E.Bytes;
    Total += E.Bytes;
  }

  time_t Cutoff = 0;
  if (MaxAgeSeconds > 0)
    Cutoff = std::time(nullptr) - static_cast<time_t>(MaxAgeSeconds);

  FaultInjection &FI = FaultInjection::instance();
  for (const Entry &E : Entries) {
    bool TooOld = MaxAgeSeconds > 0 && E.Mtime < Cutoff;
    bool OverBudget = MaxBytes > 0 && Total > MaxBytes;
    if (!TooOld && !OverBudget)
      break; // Oldest survivor found; everything newer survives too.
    // Skip entries a live reader or writer holds right now. Evicting
    // under a reader would be *safe* (POSIX keeps the open file alive)
    // but needlessly destroys an entry that just proved itself hot.
    FileLock Guard;
    if (!Guard.tryAcquire(E.Path.substr(0, E.Path.size() - 4) + ".lck",
                          FileLock::Mode::Exclusive)) {
      ++Stats.LockedSkipped;
      continue;
    }
    // Injected concurrent-evictor race: the entry may vanish between
    // the scan and the remove; the ENOENT just means the other process
    // reclaimed the bytes first, so it is tolerated and not counted.
    FI.maybeVanish("gc.entry", E.Path);
    if (std::remove(E.Path.c_str()) != 0)
      continue;
    ++Stats.Evicted;
    Stats.BytesEvicted += E.Bytes;
    Total -= E.Bytes;
  }

  // Piggyback the debris sweep: gc is the explicit "reclaim disk"
  // entry point, so it also clears every quarantine file (age 0) and
  // orphaned locks, not just dead writers' temp files.
  Stats.Swept = sweepDebris(Dir, /*MaxQuarantineAgeSeconds=*/0,
                            /*CollectOrphanLocks=*/true);
  return Stats;
}

std::shared_ptr<const FlatImage>
CacheStore::loadProgram(const Program &Prog, uint64_t ProgramHash,
                        const MachineConfig &Machine,
                        const TechniqueSpec &Tech, uint64_t TypingSeed) {
  assert(ProgramHash == hashProgram(Prog) && "hash of another program");
  std::lock_guard<std::mutex> Lock(Mutex);
  std::shared_ptr<const FlatImage> Out;
  uint64_t Key = key(ProgramHash, Machine, Tech, TypingSeed);

  // Shared reader lock with bounded retry: waits out an in-flight
  // writer on the same key, but contention past the retry budget
  // degrades to a miss rather than stalling an experiment. When the
  // lock file cannot even be opened (a read-only store directory, e.g.
  // a team-prebuilt PBT_CACHE_DIR), fall through to a lockless read:
  // atomic rename already makes reads safe without the lock, which
  // only buys efficiency against in-flight writers.
  FileLock ReadLock;
  if (!ReadLock.acquire(lockPathFor(Key), FileLock::Mode::Shared,
                        LockMaxAttempts, LockRng, LockBaseDelayMicros) &&
      !ReadLock.openFailed()) {
    ++Misses;
    ++LockTimeouts;
    return Out;
  }

  std::string Bytes;
  if (!readFile(pathFor(Key), Bytes)) {
    ++Misses; // Plain absence: the ordinary cold-store miss.
    return Out;
  }

  // Parse and validate the entry; Why names the first failed check and
  // becomes the quarantine suffix, so a post-mortem can tell bit rot
  // from a version skew from a hash collision at a glance.
  const char *Why = nullptr;
  BinaryReader R(Bytes);
  if (R.u32() != Magic) {
    Why = "magic";
  } else if (R.u32() != ProgFormatVersion) {
    Why = "version";
  } else {
    Header H;
    H.Key = R.u64();
    H.ProgramHash = R.u64();
    H.MachineHash = R.u64();
    H.PrepHash = R.u64();
    H.TypingSeed = R.u64();
    H.PayloadSize = R.u64();
    H.Checksum = R.u64();
    // The header must describe exactly the requested preparation: key,
    // program, machine, preparation identity, and typing seed.
    if (R.failed())
      Why = "truncated";
    else if (H.Key != Key || H.ProgramHash != ProgramHash ||
             H.MachineHash != hashValue(Machine) ||
             H.PrepHash != Tech.preparationHash() ||
             H.TypingSeed != TypingSeed)
      Why = "key";
    else if (H.PayloadSize != Bytes.size() - HeaderBytes)
      Why = "truncated"; // Truncated or padded file.
    else if (H.Checksum != fnv1a(Bytes.data() + HeaderBytes, H.PayloadSize))
      Why = "checksum"; // Bit rot within the payload.
    else {
      BinaryReader Payload(Bytes.data() + HeaderBytes, H.PayloadSize);
      Out = readPrepared(Payload, Prog, Machine, Tech);
      if (!Out)
        Why = "payload"; // Checksummed bytes decode to nonsense.
    }
  }

  if (Out) {
    ++Hits;
    // Refresh the mtime: it is the LRU clock gc() evicts by, so a hit
    // must mark the entry recently used (best-effort — a failed touch
    // only ages the entry).
    ::utime(pathFor(Key).c_str(), nullptr);
    return Out;
  }

  // Rejected. Count a miss (the caller re-prepares) and quarantine the
  // file so the next request sees a clean miss instead of re-parsing the
  // same bad bytes — but only under an uncontended writer lock, and only
  // if the bytes did not change underneath us (a concurrent save may
  // already have replaced the entry with a healthy one).
  ++Misses;
  ++Rejects;
  ReadLock.release();
  FileLock WriteLock;
  if (WriteLock.tryAcquire(lockPathFor(Key), FileLock::Mode::Exclusive)) {
    std::string Again;
    if (readFile(pathFor(Key), Again) && Again == Bytes &&
        std::rename(pathFor(Key).c_str(),
                    quarantinePathFor(Key, Why).c_str()) == 0)
      ++Quarantines;
  }
  return Out;
}

bool CacheStore::saveProgram(uint64_t ProgramHash,
                             const MachineConfig &Machine,
                             const TechniqueSpec &Tech, uint64_t TypingSeed,
                             const FlatImage &Prepared) {
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Key = key(ProgramHash, Machine, Tech, TypingSeed);

  // An entry already on disk is skipped: content addressing makes a
  // same-key file identical by construction, and the skip is what
  // dedupes programs shared across suites.
  struct stat St;
  if (::stat(pathFor(Key).c_str(), &St) == 0)
    return true;

  BinaryWriter Payload;
  writePrepared(Payload, Prepared);
  Header H;
  H.Key = Key;
  H.ProgramHash = ProgramHash;
  H.MachineHash = hashValue(Machine);
  H.PrepHash = Tech.preparationHash();
  H.TypingSeed = TypingSeed;
  H.PayloadSize = Payload.buffer().size();
  H.Checksum = fnv1a(Payload.buffer().data(), Payload.buffer().size());
  BinaryWriter File;
  writeHeader(File, H);

  // Exclusive writer lock, bounded: a key contended past the retry
  // budget just skips the write-back (the program is still served from
  // memory, and whoever holds the lock is writing identical bytes).
  FileLock WriteLock;
  if (!WriteLock.acquire(lockPathFor(Key), FileLock::Mode::Exclusive,
                         LockMaxAttempts, LockRng, LockBaseDelayMicros)) {
    // An unopenable lock file (read-only store directory) is not
    // contention; the write-back is skipped either way, but only real
    // contention counts as a lock timeout.
    if (!WriteLock.openFailed())
      ++LockTimeouts;
    return false;
  }
  FaultInjection::instance().crashPoint("store.locked");
  if (!writeFileAtomic(pathFor(Key), File.buffer() + Payload.buffer()))
    return false;
  FaultInjection::instance().crashPoint("store.saved");
  ++Writes;
  return true;
}
