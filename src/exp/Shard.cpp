//===- exp/Shard.cpp - Sharded experiment fabric --------------------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exp/Shard.h"

#include "support/Env.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <map>
#include <set>
#include <stdexcept>

using namespace pbt;
using namespace pbt::exp;

//===----------------------------------------------------------------------===//
// ShardSpec
//===----------------------------------------------------------------------===//

std::string ShardSpec::label() const {
  return std::to_string(Index) + "-of-" + std::to_string(Count);
}

bool ShardSpec::parse(const std::string &Text, ShardSpec &Out,
                      std::string &Error) {
  size_t Slash = Text.find('/');
  auto Malformed = [&] {
    Error = "invalid shard spec '" + Text + "': expected k/n (e.g. 2/4)";
    return false;
  };
  if (Slash == std::string::npos || Slash == 0 || Slash + 1 >= Text.size())
    return Malformed();
  // stoul tolerates leading whitespace and signs; the spec is digits only.
  if (!std::isdigit(static_cast<unsigned char>(Text[0])) ||
      !std::isdigit(static_cast<unsigned char>(Text[Slash + 1])))
    return Malformed();
  unsigned long K = 0, N = 0;
  size_t End = 0;
  try {
    K = std::stoul(Text.substr(0, Slash), &End);
    if (End != Slash)
      return Malformed();
    std::string Tail = Text.substr(Slash + 1);
    N = std::stoul(Tail, &End);
    if (End != Tail.size())
      return Malformed();
  } catch (const std::exception &) {
    return Malformed();
  }
  if (N < 1 || N > 0xFFFFFFFFUL) {
    Error = "invalid shard spec '" + Text + "': n must be in [1, 2^32)";
    return false;
  }
  if (K < 1 || K > N) {
    Error = "invalid shard spec '" + Text + "': index " + std::to_string(K) +
            " out of range [1, " + std::to_string(N) + "]";
    return false;
  }
  Out.Index = static_cast<uint32_t>(K);
  Out.Count = static_cast<uint32_t>(N);
  return true;
}

const char *pbt::exp::shardGranularityName(ShardGranularity G) {
  return G == ShardGranularity::Whole ? "whole" : "sweep-cells";
}

std::map<std::string, uint32_t>
pbt::exp::assignWholeShards(std::vector<std::string> Names, uint32_t Count) {
  std::sort(Names.begin(), Names.end());
  Names.erase(std::unique(Names.begin(), Names.end()), Names.end());
  std::map<std::string, uint32_t> Owner;
  for (size_t I = 0; I < Names.size(); ++I)
    Owner[Names[I]] = shardOf(I, Count);
  return Owner;
}

uint64_t pbt::exp::hashRunSet(std::vector<RunSetEntry> Set) {
  std::sort(Set.begin(), Set.end());
  BinaryWriter W;
  for (const RunSetEntry &E : Set) {
    W.str(E.first);
    W.u8(static_cast<uint8_t>(E.second));
  }
  return fnv1a(W.buffer().data(), W.buffer().size());
}

//===----------------------------------------------------------------------===//
// RunResult serialization
//===----------------------------------------------------------------------===//

void pbt::exp::serializeRunResult(BinaryWriter &W, const RunResult &Run) {
  W.f64(Run.Horizon);
  W.u64(Run.InstructionsRetired);
  W.u64(Run.CompletedCount);
  W.u32(static_cast<uint32_t>(Run.Completed.size()));
  for (const CompletedJob &Job : Run.Completed) {
    W.u32(Job.Bench);
    W.i32(Job.Slot);
    W.f64(Job.Arrival);
    W.f64(Job.Admitted);
    W.f64(Job.Completion);
    W.f64(Job.Isolated);
    W.u64(Job.Stats.InstsRetired);
    W.u64(Job.Stats.BlocksExecuted);
    W.f64(Job.Stats.CyclesConsumed);
    W.f64(Job.Stats.CpuSeconds);
    W.u64(Job.Stats.CoreSwitches);
    W.u64(Job.Stats.MarksFired);
    W.u64(Job.Stats.MonitorSessions);
    W.u64(Job.Stats.CounterWaits);
    W.f64(Job.Stats.OverheadCycles);
  }
  W.u64(Run.TotalSwitches);
  W.u64(Run.TotalMarks);
  W.u64(Run.CounterWaits);
  W.f64(Run.TotalOverheadCycles);
  W.f64(Run.TotalCycles);
  W.u32(static_cast<uint32_t>(Run.CoreBusy.size()));
  for (double Busy : Run.CoreBusy)
    W.f64(Busy);
  W.u32(static_cast<uint32_t>(Run.InstsByType.size()));
  for (uint64_t Insts : Run.InstsByType)
    W.u64(Insts);
  W.u32(static_cast<uint32_t>(Run.CyclesByType.size()));
  for (double Cycles : Run.CyclesByType)
    W.f64(Cycles);
}

bool pbt::exp::deserializeRunResult(BinaryReader &R, RunResult &Run) {
  Run = RunResult();
  Run.Horizon = R.f64();
  Run.InstructionsRetired = R.u64();
  Run.CompletedCount = R.u64();
  uint32_t Jobs = R.count(1u << 26, /*ElemBytes=*/100);
  Run.Completed.resize(Jobs);
  for (CompletedJob &Job : Run.Completed) {
    Job.Bench = R.u32();
    Job.Slot = R.i32();
    Job.Arrival = R.f64();
    Job.Admitted = R.f64();
    Job.Completion = R.f64();
    Job.Isolated = R.f64();
    Job.Stats.InstsRetired = R.u64();
    Job.Stats.BlocksExecuted = R.u64();
    Job.Stats.CyclesConsumed = R.f64();
    Job.Stats.CpuSeconds = R.f64();
    Job.Stats.CoreSwitches = R.u64();
    Job.Stats.MarksFired = R.u64();
    Job.Stats.MonitorSessions = R.u64();
    Job.Stats.CounterWaits = R.u64();
    Job.Stats.OverheadCycles = R.f64();
  }
  Run.TotalSwitches = R.u64();
  Run.TotalMarks = R.u64();
  Run.CounterWaits = R.u64();
  Run.TotalOverheadCycles = R.f64();
  Run.TotalCycles = R.f64();
  uint32_t Cores = R.count(4096, /*ElemBytes=*/8);
  Run.CoreBusy.resize(Cores);
  for (double &Busy : Run.CoreBusy)
    Busy = R.f64();
  uint32_t InstTypes = R.count(64, /*ElemBytes=*/8);
  Run.InstsByType.resize(InstTypes);
  for (uint64_t &Insts : Run.InstsByType)
    Insts = R.u64();
  uint32_t CycleTypes = R.count(64, /*ElemBytes=*/8);
  Run.CyclesByType.resize(CycleTypes);
  for (double &Cycles : Run.CyclesByType)
    Cycles = R.f64();
  return !R.failed();
}

//===----------------------------------------------------------------------===//
// ShardRuntime
//===----------------------------------------------------------------------===//

namespace {

ShardRuntime *CurrentRuntime = nullptr;

/// OutDir-relative path; "." and "" both mean the working directory.
std::string joinDir(const std::string &Dir, const std::string &File) {
  if (Dir.empty() || Dir == ".")
    return File;
  return Dir + "/" + File;
}

const char PayloadMagic[4] = {'P', 'B', 'C', 'P'};
const char ManifestMagic[4] = {'P', 'B', 'S', 'M'};
// Payload v2: RunResult gained per-core-type telemetry (InstsByType,
// CyclesByType). Manifest v2: the metric sketches are gone (the merge
// computes fabric metrics exactly from the recombined units). Shard
// fabrics are ephemeral within one driver invocation, so a strict
// version check beats compatibility shims.
constexpr uint32_t PayloadVersion = 2;
constexpr uint32_t ManifestVersion = 2;

void writeMagic(BinaryWriter &W, const char (&Magic)[4]) {
  for (char C : Magic)
    W.u8(static_cast<uint8_t>(C));
}

bool readMagic(BinaryReader &R, const char (&Magic)[4]) {
  for (char C : Magic)
    if (R.u8() != static_cast<uint8_t>(C))
      return false;
  return !R.failed();
}

std::string unitKey(uint32_t Seq, const std::string &Id) {
  return std::to_string(Seq) + ":" + Id;
}

/// True for the key of a replayed cell ("seq:cell/..."), false for a
/// baseline ("seq:base/...").
bool isCellKey(const std::string &Key) {
  size_t Colon = Key.find(':');
  return Colon != std::string::npos &&
         Key.compare(Colon + 1, 5, "cell/") == 0;
}

} // namespace

ShardRuntime::ShardRuntime(Mode M, ShardSpec Spec, std::string OutDir)
    : M(M), Spec(Spec), OutDir(std::move(OutDir)), Scale(envScale()) {}

ShardRuntime *ShardRuntime::current() { return CurrentRuntime; }

void ShardRuntime::install(ShardRuntime *RT) { CurrentRuntime = RT; }

void ShardRuntime::beginExperiment(const std::string &Name,
                                   ShardGranularity G) {
  CurName = Name;
  CurG = G;
  SweepSeq = 0;
  PayloadUnitsBuf = BinaryWriter();
  PayloadUnits = 0;
  LastEntryIndex = -1;
  if (M == Mode::Shard) {
    // A bracket re-opened for the name it already holds is a retry of
    // the same experiment (the driver brackets every attempt): the
    // failed attempt's manifest entry is replaced, not kept beside a
    // second one.
    if (!Entries.empty() && Entries.back().Name == Name) {
      Entries.back() = ManifestEntry();
      Entries.back().Name = Name;
      Entries.back().G = G;
    } else {
      ManifestEntry E;
      E.Name = Name;
      E.G = G;
      Entries.push_back(std::move(E));
    }
    LastEntryIndex = static_cast<int>(Entries.size()) - 1;
  }
}

void ShardRuntime::endExperiment(int ExitCode) {
  if (M == Mode::Shard && LastEntryIndex >= 0) {
    ManifestEntry &E = Entries[static_cast<size_t>(LastEntryIndex)];
    E.Ok = ExitCode == 0 && !E.ArtifactFile.empty();
  }
  CurName.clear();
  CurG = ShardGranularity::Whole;
  LastEntryIndex = -1;
  MergeUnits.clear();
}

void ShardRuntime::recordUnit(uint32_t Seq, const std::string &Id,
                              const RunResult &Run) {
  PayloadUnitsBuf.u32(Seq);
  PayloadUnitsBuf.str(Id);
  serializeRunResult(PayloadUnitsBuf, Run);
  ++PayloadUnits;
}

int ShardRuntime::finishArtifact(const std::string &Name, Json &Root) {
  if (LastEntryIndex < 0)
    return 1;
  ManifestEntry &E = Entries[static_cast<size_t>(LastEntryIndex)];
  std::string Label = Spec.label();

  if (cellsActive()) {
    // The shard's replayed units, bit-exact: header + units in record
    // order (the order runSweepSharded visited the batch).
    BinaryWriter Header;
    writeMagic(Header, PayloadMagic);
    Header.u32(PayloadVersion);
    Header.str(Name);
    Header.u32(Spec.Index);
    Header.u32(Spec.Count);
    Header.u64(PayloadUnits);
    std::string Bytes = Header.buffer() + PayloadUnitsBuf.buffer();
    std::string PayloadFile =
        "BENCH_" + Name + ".shard-" + Label + ".cells.pbs";
    if (!writeFileAtomic(joinDir(OutDir, PayloadFile), Bytes)) {
      std::fprintf(stderr, "shard: failed to write %s\n", PayloadFile.c_str());
      return 1;
    }
    E.PayloadFile = PayloadFile;
    E.PayloadFnv = fnv1a(Bytes.data(), Bytes.size());
    E.PayloadBytes = Bytes.size();

    // Partial artifacts carry a shard block (they are replaced, not
    // copied, at merge time — whole artifacts stay untouched so the
    // merge's byte-copy is byte-identical to a single-process run).
    Json Block = Json::object();
    Block["index"] = Spec.Index;
    Block["count"] = Spec.Count;
    Block["granularity"] = shardGranularityName(CurG);
    Block["units"] = PayloadUnits;
    Block["cells_payload"] = PayloadFile;
    Root["shard"] = std::move(Block);
  }

  std::string ArtifactFile = "BENCH_" + Name + ".shard-" + Label + ".json";
  std::string JsonBytes = Root.dump();
  JsonBytes.push_back('\n');
  if (!writeFileAtomic(joinDir(OutDir, ArtifactFile), JsonBytes)) {
    std::fprintf(stderr, "shard: failed to write %s\n", ArtifactFile.c_str());
    return 1;
  }
  E.ArtifactFile = ArtifactFile;
  E.ArtifactFnv = fnv1a(JsonBytes.data(), JsonBytes.size());
  E.ArtifactBytes = JsonBytes.size();
  return 0;
}

bool ShardRuntime::writeManifest() {
  BinaryWriter W;
  writeMagic(W, ManifestMagic);
  W.u32(ManifestVersion);
  W.u32(Spec.Index);
  W.u32(Spec.Count);
  W.f64(Scale);
  W.u64(RunSetHash);
  W.u32(static_cast<uint32_t>(Entries.size()));
  for (const ManifestEntry &E : Entries) {
    W.str(E.Name);
    W.u8(static_cast<uint8_t>(E.G));
    W.u8(E.Ok ? 1 : 0);
    W.str(E.ArtifactFile);
    W.u64(E.ArtifactFnv);
    W.u64(E.ArtifactBytes);
    W.str(E.PayloadFile);
    W.u64(E.PayloadFnv);
    W.u64(E.PayloadBytes);
  }
  // Self-checksum trailer: FNV over everything above, so the merge can
  // distinguish a truncated/corrupt manifest from a malformed one.
  uint64_t Fnv = fnv1a(W.buffer().data(), W.buffer().size());
  W.u64(Fnv);
  std::string File = "shard-" + Spec.label() + ".manifest.pbs";
  if (!writeFileAtomic(joinDir(OutDir, File), W.buffer())) {
    std::fprintf(stderr, "shard: failed to write %s\n", File.c_str());
    return false;
  }
  return true;
}

void ShardRuntime::setMergeUnits(std::map<std::string, RunResult> Units) {
  MergeUnits = std::move(Units);
}

const RunResult *ShardRuntime::findUnit(uint32_t Seq,
                                        const std::string &Id) const {
  auto It = MergeUnits.find(unitKey(Seq, Id));
  return It == MergeUnits.end() ? nullptr : &It->second;
}

std::string ShardRuntime::mergedArtifactPath(const std::string &Name) const {
  return joinDir(OutDir, "BENCH_" + Name + ".json");
}

//===----------------------------------------------------------------------===//
// Merge
//===----------------------------------------------------------------------===//

namespace {

/// Parsed twin of ShardRuntime::ManifestEntry.
struct MEntry {
  std::string Name;
  ShardGranularity G = ShardGranularity::Whole;
  bool Ok = false;
  std::string ArtifactFile;
  uint64_t ArtifactFnv = 0;
  uint64_t ArtifactBytes = 0;
  std::string PayloadFile;
  uint64_t PayloadFnv = 0;
  uint64_t PayloadBytes = 0;
};

struct ParsedManifest {
  std::string File;
  ShardSpec Spec;
  double Scale = 1;
  uint64_t RunSetHash = 0;
  std::vector<MEntry> Entries;
};

std::string parseManifest(const std::string &Bytes, const std::string &File,
                          ParsedManifest &Out) {
  Out.File = File;
  if (Bytes.size() < 8)
    return "manifest " + File + ": truncated";
  uint64_t Stored = 0;
  {
    BinaryReader Trailer(Bytes.data() + Bytes.size() - 8, 8);
    Stored = Trailer.u64();
  }
  if (fnv1a(Bytes.data(), Bytes.size() - 8) != Stored)
    return "manifest " + File + ": checksum mismatch (truncated or corrupt)";
  BinaryReader R(Bytes.data(), Bytes.size() - 8);
  if (!readMagic(R, ManifestMagic))
    return "manifest " + File + ": bad magic (not a shard manifest)";
  uint32_t Version = R.u32();
  if (Version != ManifestVersion)
    return "manifest " + File + ": unsupported version " +
           std::to_string(Version) + " (this binary reads version " +
           std::to_string(ManifestVersion) + ")";
  Out.Spec.Index = R.u32();
  Out.Spec.Count = R.u32();
  Out.Scale = R.f64();
  Out.RunSetHash = R.u64();
  uint32_t N = R.count(1u << 16, /*ElemBytes=*/2);
  Out.Entries.resize(N);
  for (MEntry &E : Out.Entries) {
    E.Name = R.str();
    uint8_t G = R.u8();
    if (G > 1)
      R.markFailed();
    E.G = static_cast<ShardGranularity>(G);
    E.Ok = R.u8() != 0;
    E.ArtifactFile = R.str();
    E.ArtifactFnv = R.u64();
    E.ArtifactBytes = R.u64();
    E.PayloadFile = R.str();
    E.PayloadFnv = R.u64();
    E.PayloadBytes = R.u64();
  }
  if (R.failed() || R.remaining() != 0 || Out.Spec.Count == 0 ||
      Out.Spec.Index == 0 || Out.Spec.Index > Out.Spec.Count)
    return "manifest " + File + ": malformed";
  return std::string();
}

/// Validates a shard-emitted file against its manifest record before the
/// merge consumes (or copies) it.
std::string checkPartial(const std::string &Dir, const std::string &File,
                         uint64_t Bytes, uint64_t Fnv, std::string &Out) {
  if (!readFile(joinDir(Dir, File), Out))
    return "missing partial " + File + " (listed in its shard manifest)";
  if (Out.size() != Bytes)
    return "truncated partial " + File + ": manifest records " +
           std::to_string(Bytes) + " bytes, file has " +
           std::to_string(Out.size());
  if (fnv1a(Out.data(), Out.size()) != Fnv)
    return "corrupt partial " + File + ": checksum mismatch";
  return std::string();
}

/// Units of one cells payload, keyed "seq:id", in file order.
std::string parsePayload(const std::string &Bytes, const std::string &File,
                         const std::string &ExpName, const ShardSpec &Spec,
                         std::vector<std::pair<std::string, RunResult>> &Out) {
  BinaryReader R(Bytes.data(), Bytes.size());
  if (!readMagic(R, PayloadMagic))
    return "cells partial " + File + ": bad magic";
  uint32_t Version = R.u32();
  if (Version != PayloadVersion)
    return "cells partial " + File + ": unsupported version " +
           std::to_string(Version);
  std::string Name = R.str();
  uint32_t Index = R.u32();
  uint32_t Count = R.u32();
  uint64_t Units = R.u64();
  if (R.failed() || Name != ExpName || Index != Spec.Index ||
      Count != Spec.Count || Units > (1u << 20))
    return "cells partial " + File + ": header does not match its manifest";
  Out.reserve(Units);
  for (uint64_t I = 0; I < Units; ++I) {
    uint32_t Seq = R.u32();
    std::string Id = R.str();
    RunResult Run;
    if (!deserializeRunResult(R, Run))
      return "cells partial " + File + ": malformed unit " +
             std::to_string(I);
    Out.emplace_back(unitKey(Seq, Id), std::move(Run));
  }
  if (R.remaining() != 0)
    return "cells partial " + File + ": trailing bytes after last unit";
  return std::string();
}

/// Restores the previous runtime and PBT_BENCH_SCALE on scope exit.
struct MergeScope {
  ShardRuntime *Prev = nullptr;
  std::string SavedScale;
  bool HadScale = false;

  MergeScope() : Prev(ShardRuntime::current()) {
    if (const char *Raw = envString("PBT_BENCH_SCALE")) {
      SavedScale = Raw;
      HadScale = true;
    }
  }
  ~MergeScope() {
    ShardRuntime::install(Prev);
    if (HadScale)
      ::setenv("PBT_BENCH_SCALE", SavedScale.c_str(), 1);
    else
      ::unsetenv("PBT_BENCH_SCALE");
  }
};

} // namespace

std::string pbt::exp::mergeShards(const std::string &ShardDir,
                                  const std::string &OutDir,
                                  const MergeResolver &Resolve,
                                  MergeReport *Report) {
  // Collect manifests (sorted for deterministic diagnostics).
  std::vector<std::string> ManifestFiles;
  {
    DIR *D = ::opendir(ShardDir.empty() ? "." : ShardDir.c_str());
    if (!D)
      return "cannot open shard directory " + ShardDir;
    while (const dirent *Entry = ::readdir(D)) {
      std::string Name = Entry->d_name;
      const std::string Suffix = ".manifest.pbs";
      if (Name.size() > Suffix.size() + 6 &&
          Name.compare(0, 6, "shard-") == 0 &&
          Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) ==
              0)
        ManifestFiles.push_back(Name);
    }
    ::closedir(D);
  }
  std::sort(ManifestFiles.begin(), ManifestFiles.end());
  if (ManifestFiles.empty())
    return "no shard manifests (shard-*.manifest.pbs) found in " + ShardDir;

  std::vector<ParsedManifest> Shards;
  for (const std::string &File : ManifestFiles) {
    std::string Bytes;
    if (!readFile(joinDir(ShardDir, File), Bytes))
      return "cannot read manifest " + File;
    ParsedManifest PM;
    std::string Err = parseManifest(Bytes, File, PM);
    if (!Err.empty())
      return Err;
    Shards.push_back(std::move(PM));
  }

  // Fabric-level validation: one coherent n-shard run, no gaps.
  uint32_t Count = Shards.front().Spec.Count;
  for (const ParsedManifest &PM : Shards)
    if (PM.Spec.Count != Count)
      return "shard count mismatch: " + Shards.front().File + " says n=" +
             std::to_string(Count) + ", " + PM.File + " says n=" +
             std::to_string(PM.Spec.Count);
  std::sort(Shards.begin(), Shards.end(),
            [](const ParsedManifest &A, const ParsedManifest &B) {
              return A.Spec.Index < B.Spec.Index;
            });
  for (size_t I = 1; I < Shards.size(); ++I)
    if (Shards[I].Spec.Index == Shards[I - 1].Spec.Index)
      return "duplicate shard " + std::to_string(Shards[I].Spec.Index) +
             "-of-" + std::to_string(Count) + ": " + Shards[I - 1].File +
             " and " + Shards[I].File;
  {
    std::set<uint32_t> Present;
    for (const ParsedManifest &PM : Shards)
      Present.insert(PM.Spec.Index);
    for (uint32_t K = 1; K <= Count; ++K)
      if (!Present.count(K))
        return "missing shard " + std::to_string(K) + "-of-" +
               std::to_string(Count) + ": no shard-" + std::to_string(K) +
               "-of-" + std::to_string(Count) + ".manifest.pbs in " +
               ShardDir;
  }
  for (const ParsedManifest &PM : Shards) {
    if (PM.RunSetHash != Shards.front().RunSetHash)
      return "shard run sets differ: " + Shards.front().File + " and " +
             PM.File + " were launched over different experiment sets";
    if (PM.Scale != Shards.front().Scale)
      return "scale mismatch: " + Shards.front().File + " ran at scale " +
             std::to_string(Shards.front().Scale) + ", " + PM.File + " at " +
             std::to_string(PM.Scale);
  }
  for (const ParsedManifest &PM : Shards)
    for (const MEntry &E : PM.Entries)
      if (!E.Ok)
        return "experiment " + E.Name + " failed on shard " +
               PM.Spec.label() + "; refusing to merge";

  // Union of experiments, each with a consistent granularity.
  std::map<std::string, ShardGranularity> Experiments;
  for (const ParsedManifest &PM : Shards)
    for (const MEntry &E : PM.Entries) {
      auto It = Experiments.find(E.Name);
      if (It == Experiments.end())
        Experiments.emplace(E.Name, E.G);
      else if (It->second != E.G)
        return "granularity mismatch for " + E.Name +
               " across shard manifests";
    }

  MergeScope Scope;
  ShardRuntime RT(ShardRuntime::Mode::Merge, ShardSpec{1, Count}, OutDir);
  ShardRuntime::install(&RT);
  {
    // Replayed bodies must build the exact grids the shards ran.
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Shards.front().Scale);
    ::setenv("PBT_BENCH_SCALE", Buf, 1);
  }

  MergeReport Local;
  MergeReport &Rep = Report ? *Report : Local;
  Rep = MergeReport();
  Rep.ShardCount = Count;
  // Completions of every recombined cell, in merge order, for the
  // fabric-wide metrics.
  RunResult Fabric;

  for (const auto &Exp : Experiments) {
    const std::string &Name = Exp.first;
    ShardGranularity G = Exp.second;

    // Every manifest experiment must resolve in the merging binary —
    // whole-granularity artifacts included, else a mismatched binary
    // would byte-copy artifacts it could never have produced.
    const MergeExperimentInfo *Info = Resolve(Name);
    if (!Info)
      return "unknown experiment " + Name +
             " in shard manifests (not registered in this binary)";
    if (Info->G != G)
      return "granularity disagreement for " + Name +
             ": shard manifests say " + shardGranularityName(G) +
             ", this binary registers " + shardGranularityName(Info->G);

    if (G == ShardGranularity::Whole) {
      // Owned by exactly one shard; its artifact is already the full
      // single-process file — validate and byte-copy.
      const ParsedManifest *OwnerPM = nullptr;
      const MEntry *Entry = nullptr;
      for (const ParsedManifest &PM : Shards)
        for (const MEntry &E : PM.Entries)
          if (E.Name == Name) {
            if (Entry)
              return "whole experiment " + Name +
                     " appears in manifests of shards " +
                     OwnerPM->Spec.label() + " and " + PM.Spec.label();
            OwnerPM = &PM;
            Entry = &E;
          }
      std::string Bytes;
      std::string Err = checkPartial(ShardDir, Entry->ArtifactFile,
                                     Entry->ArtifactBytes,
                                     Entry->ArtifactFnv, Bytes);
      if (!Err.empty())
        return Err;
      if (!writeFileAtomic(joinDir(OutDir, "BENCH_" + Name + ".json"), Bytes))
        return "cannot write merged artifact for " + Name;
      Rep.Copied.push_back(Name);
      continue;
    }

    // Sweep-cell experiment: every shard contributes a cells payload;
    // recombine the units and replay the body over them.
    std::map<std::string, RunResult> Units;
    std::map<std::string, uint32_t> UnitOwner;
    for (const ParsedManifest &PM : Shards) {
      const MEntry *Entry = nullptr;
      for (const MEntry &E : PM.Entries)
        if (E.Name == Name)
          Entry = &E;
      if (!Entry || Entry->PayloadFile.empty())
        return "missing cells partial for " + Name + " on shard " +
               PM.Spec.label();
      std::string Bytes;
      std::string Err = checkPartial(ShardDir, Entry->PayloadFile,
                                     Entry->PayloadBytes, Entry->PayloadFnv,
                                     Bytes);
      if (!Err.empty())
        return Err;
      std::vector<std::pair<std::string, RunResult>> Parsed;
      Err = parsePayload(Bytes, Entry->PayloadFile, Name, PM.Spec, Parsed);
      if (!Err.empty())
        return Err;
      for (auto &Unit : Parsed) {
        auto Owner = UnitOwner.find(Unit.first);
        if (Owner != UnitOwner.end())
          return "duplicate unit " + Unit.first + " for " + Name +
                 " (shards " + std::to_string(Owner->second) + " and " +
                 std::to_string(PM.Spec.Index) + " both replayed it)";
        UnitOwner.emplace(Unit.first, PM.Spec.Index);
        Units.emplace(Unit.first, std::move(Unit.second));
      }
    }
    Rep.Units += Units.size();
    for (const auto &Unit : Units)
      if (isCellKey(Unit.first)) {
        ++Rep.FabricCells;
        Fabric.Completed.insert(Fabric.Completed.end(),
                                Unit.second.Completed.begin(),
                                Unit.second.Completed.end());
      }

    RT.setMergeUnits(std::move(Units));
    RT.beginExperiment(Name, G);
    int Code = 1;
    std::string Failure;
    try {
      Code = Info->Run();
    } catch (const std::exception &Ex) {
      Failure = Ex.what();
    }
    RT.endExperiment(Code);
    if (!Failure.empty())
      return "merge replay of " + Name + " failed: " + Failure;
    if (Code != 0)
      return "merge replay of " + Name + " exited with code " +
             std::to_string(Code);
    Rep.Replayed.push_back(Name);
  }

  // Horizon 0: the fabric readout spans heterogeneous machines, so the
  // capacity-normalized throughput is reported as 0 by design.
  Rep.FabricLatency = computeLatency(Fabric, MachineConfig());
  Rep.FabricFairness = computeFairness(Fabric.Completed);

  Json Root = Json::object();
  Root["schema"] = "pbt-merge-v2";
  Root["shards"] = Rep.ShardCount;
  Root["scale"] = Shards.front().Scale;
  {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%016llx",
                  static_cast<unsigned long long>(Shards.front().RunSetHash));
    Root["run_set_hash"] = std::string(Buf);
  }
  {
    Json Copied = Json::array();
    for (const std::string &Name : Rep.Copied)
      Copied.push(Name);
    Root["copied"] = std::move(Copied);
    Json Replayed = Json::array();
    for (const std::string &Name : Rep.Replayed)
      Replayed.push(Name);
    Root["replayed"] = std::move(Replayed);
  }
  Root["units"] = Rep.Units;
  {
    Json Fabric = Json::object();
    Fabric["cells"] = Rep.FabricCells;
    Json Lat = Json::object();
    Lat["jobs"] = static_cast<uint64_t>(Rep.FabricLatency.Jobs);
    Lat["mean_turnaround"] = Rep.FabricLatency.MeanTurnaround;
    Lat["p50_turnaround"] = Rep.FabricLatency.P50Turnaround;
    Lat["p95_turnaround"] = Rep.FabricLatency.P95Turnaround;
    Lat["p99_turnaround"] = Rep.FabricLatency.P99Turnaround;
    Lat["mean_slowdown"] = Rep.FabricLatency.MeanSlowdown;
    Lat["p95_slowdown"] = Rep.FabricLatency.P95Slowdown;
    Lat["max_slowdown"] = Rep.FabricLatency.MaxSlowdown;
    Fabric["latency"] = std::move(Lat);
    Json Fair = Json::object();
    Fair["jobs"] = static_cast<uint64_t>(Rep.FabricFairness.Jobs);
    Fair["avg_process_time"] = Rep.FabricFairness.AvgProcessTime;
    Fair["p95_flow"] = Rep.FabricFairness.P95Flow;
    Fair["max_flow"] = Rep.FabricFairness.MaxFlow;
    Fair["max_stretch"] = Rep.FabricFairness.MaxStretch;
    Fabric["fairness"] = std::move(Fair);
    Root["fabric"] = std::move(Fabric);
  }
  if (!writeJsonFile(joinDir(OutDir, "BENCH_merge.json"), Root))
    return "cannot write BENCH_merge.json";

  return std::string();
}
