//===- exp/Shard.h - Sharded experiment fabric -----------------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded experiment fabric: deterministic, seed-free partitioning
/// of the experiment registry's work units across n independent driver
/// processes, plus the merge tool that recombines their partial
/// artifacts into files byte-identical to a single-process run.
///
/// Work units come in two granularities:
///
///  - Whole experiments (fig/table mains): the sorted list of
///    whole-granularity experiment names is round-robined over the
///    shards, so ownership is a pure function of (name set, n) —
///    independent of registration order, stable across reruns.
///  - SweepCells (the sweep_* grids): every replay job of a sweep —
///    each baseline, each non-baseline-coincident cell, in the exact
///    batch order of exp::runSweep — is its own unit, round-robined by
///    ordinal. All shards run the experiment body; each replays only
///    its own units (exp::runSweepSharded).
///
/// A shard (`driver --shard k/n`, or PBT_SHARD=k/n) emits, into its
/// output directory:
///
///  - BENCH_<name>.shard-k-of-n.json per experiment: the full,
///    byte-identical artifact for owned whole experiments; a partial
///    artifact with a "shard" block (and no tables/cells) for
///    sweep-cell experiments;
///  - BENCH_<name>.shard-k-of-n.cells.pbs per sweep-cell experiment:
///    the shard's replayed units, bit-exact (support/Binary);
///  - shard-k-of-n.manifest.pbs: the shard's inventory — every emitted
///    file with size + FNV checksum, the run-set hash, and the scale.
///
/// `driver --merge <dir>` (exp::mergeShards) validates the manifests
/// (missing/duplicate shard, mixed n, mixed scale, mixed schema,
/// truncated or corrupt partials — each a distinct diagnostic, never a
/// silently wrong merge), byte-copies whole artifacts, and re-runs each
/// sweep-cell experiment body with its sweeps fed from the recombined
/// units (exp::runSweepFromUnits): metrics and JSON are recomputed by
/// the same code that runs single-process, over bit-exact inputs, so
/// merged artifacts are byte-identical by construction. BENCH_merge.json
/// summarizes the merge, including fabric-wide latency and fairness
/// metrics computed exactly over every recombined cell's completions.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_EXP_SHARD_H
#define PBT_EXP_SHARD_H

#include "metrics/Fairness.h"
#include "metrics/Latency.h"
#include "support/Binary.h"
#include "support/Json.h"
#include "workload/Runner.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pbt {
namespace exp {

/// Which shard of how many this process is. Index is 1-based; the
/// default 1/1 is a single-shard fabric (still emits partials and a
/// manifest — merging it proves the reconstruction path is exact).
struct ShardSpec {
  uint32_t Index = 1;
  uint32_t Count = 1;

  /// "k-of-n", as embedded in every shard-emitted file name.
  std::string label() const;

  /// Parses "k/n" with 1 <= k <= n (e.g. "2/4"). Returns false and a
  /// human diagnostic in \p Error on malformed input.
  static bool parse(const std::string &Text, ShardSpec &Out,
                    std::string &Error);
};

/// How an experiment's work shards across the fabric.
enum class ShardGranularity : uint8_t {
  /// The experiment is one indivisible unit, owned by one shard.
  Whole = 0,
  /// The experiment's sweep replay jobs shard individually; every
  /// shard runs the body, replaying only its own units.
  SweepCells = 1,
};

/// Stable artifact name of \p G ("whole" / "sweep-cells").
const char *shardGranularityName(ShardGranularity G);

/// Owner (1-based shard index) of the unit with ordinal \p Ordinal in a
/// \p Count-shard fabric: plain round-robin, seed-free, so every unit
/// lands on exactly one shard for any n.
inline uint32_t shardOf(size_t Ordinal, uint32_t Count) {
  return Count == 0 ? 1 : static_cast<uint32_t>(Ordinal % Count) + 1;
}

/// Owner per whole-granularity experiment: \p Names is sorted, then
/// round-robined, so the assignment is independent of registration
/// order and stable across reruns.
std::map<std::string, uint32_t> assignWholeShards(std::vector<std::string> Names,
                                                  uint32_t Count);

/// One experiment of a shard run set: name + granularity.
using RunSetEntry = std::pair<std::string, ShardGranularity>;

/// Stable hash of a run set (sorted internally). Recorded in every
/// shard manifest; the merge refuses manifests whose run sets differ
/// (e.g. shards launched with different --only lists).
uint64_t hashRunSet(std::vector<RunSetEntry> Set);

/// Appends \p Run to \p W field by field (doubles by bit pattern), so
/// shard-replayed units reconstruct bit-exactly at merge time.
void serializeRunResult(BinaryWriter &W, const RunResult &Run);

/// Reads a RunResult serialized by serializeRunResult; false on
/// malformed input.
bool deserializeRunResult(BinaryReader &R, RunResult &Run);

/// Process-global mode switch consulted by ExperimentHarness: when a
/// runtime is installed, sweep(), table(), note(), and finish() route
/// through it — replaying only owned units and emitting partials in
/// Shard mode, reconstructing sweeps from merged units in Merge mode.
/// Installed by bench/driver (and the fabric tests) around experiment
/// bodies; never by the bodies themselves.
class ShardRuntime {
public:
  enum class Mode : uint8_t { Shard, Merge };

  /// A runtime writing into \p OutDir ("." for the driver). \p Spec is
  /// this process's shard in Shard mode; the fabric's 1/n in Merge
  /// mode. Captures PBT_BENCH_SCALE for the manifest.
  ShardRuntime(Mode M, ShardSpec Spec, std::string OutDir);

  /// The installed runtime; null when the process runs unsharded.
  static ShardRuntime *current();

  /// Installs \p RT process-globally (null restores the unsharded
  /// default). Not thread-safe: install before launching bodies.
  static void install(ShardRuntime *RT);

  Mode mode() const { return M; }
  const ShardSpec &spec() const { return Spec; }
  const std::string &outDir() const { return OutDir; }

  /// Records the run set's identity hash (see hashRunSet).
  void setRunSetHash(uint64_t Hash) { RunSetHash = Hash; }

  /// Brackets one experiment body ATTEMPT: resets the per-experiment
  /// sweep sequence and partial-unit state. Call at the start of every
  /// attempt (the driver wraps it into the guarded body), not once per
  /// guarded call — a retried attempt must not inherit the failed
  /// attempt's units or seq numbers. Re-opening the bracket for the
  /// name it already holds replaces the manifest entry rather than
  /// appending a second one.
  void beginExperiment(const std::string &Name, ShardGranularity G);

  /// Closes the bracket; \p ExitCode is the final attempt's result and
  /// decides the manifest disposition (a failed body's files are never
  /// merged).
  void endExperiment(int ExitCode);

  /// True when the current experiment shards at sweep-cell granularity.
  bool cellsActive() const { return CurG == ShardGranularity::SweepCells; }
  bool shardingCells() const { return M == Mode::Shard && cellsActive(); }
  bool mergingCells() const { return M == Mode::Merge && cellsActive(); }

  /// Sequence number of the next sweep within the current experiment
  /// (scopes unit ids when a body runs several grids).
  uint32_t nextSweepSeq() { return SweepSeq++; }

  // --- Shard mode ---

  /// Records one owned unit of sweep \p Seq.
  void recordUnit(uint32_t Seq, const std::string &Id, const RunResult &Run);

  /// Units recorded for the current experiment so far.
  uint64_t unitsRecorded() const { return PayloadUnits; }

  /// Shard-mode artifact sink, called by ExperimentHarness::finish()
  /// in place of writing BENCH_<name>.json: adds the "shard" block and
  /// writes the cells payload for sweep-cell experiments, writes
  /// BENCH_<name>.shard-k-of-n.json, and records the manifest entry.
  /// Returns the body exit code (0 ok, 1 on write failure).
  int finishArtifact(const std::string &Name, Json &Root);

  /// Writes shard-k-of-n.manifest.pbs into OutDir; call once after the
  /// last experiment. False on write failure.
  bool writeManifest();

  // --- Merge mode ---

  /// Installs the recombined units for the body about to replay
  /// (key "seq:id"; see mergeShards).
  void setMergeUnits(std::map<std::string, RunResult> Units);

  /// The unit \p Id of sweep \p Seq, or null when no shard replayed it.
  const RunResult *findUnit(uint32_t Seq, const std::string &Id) const;

  /// Merge-mode artifact path: OutDir/BENCH_<name>.json.
  std::string mergedArtifactPath(const std::string &Name) const;

private:
  struct ManifestEntry {
    std::string Name;
    ShardGranularity G = ShardGranularity::Whole;
    bool Ok = false;
    std::string ArtifactFile;
    uint64_t ArtifactFnv = 0;
    uint64_t ArtifactBytes = 0;
    std::string PayloadFile; ///< Empty for whole experiments.
    uint64_t PayloadFnv = 0;
    uint64_t PayloadBytes = 0;
  };

  Mode M;
  ShardSpec Spec;
  std::string OutDir;
  double Scale;
  uint64_t RunSetHash = 0;

  // Current experiment bracket.
  std::string CurName;
  ShardGranularity CurG = ShardGranularity::Whole;
  uint32_t SweepSeq = 0;
  BinaryWriter PayloadUnitsBuf; ///< Serialized units, appended in order.
  uint64_t PayloadUnits = 0;
  std::vector<ManifestEntry> Entries;
  int LastEntryIndex = -1; ///< Entry of the current bracket, or -1.

  // Merge mode: units of the current experiment, keyed "seq:id".
  std::map<std::string, RunResult> MergeUnits;
};

/// What the merge recombined (summarized into BENCH_merge.json).
struct MergeReport {
  uint32_t ShardCount = 0;
  std::vector<std::string> Copied;   ///< Whole artifacts byte-copied.
  std::vector<std::string> Replayed; ///< Sweep-cell experiments re-run.
  uint64_t Units = 0;                ///< Units recombined across shards.
  /// Fabric-wide metrics over the completions of every recombined
  /// "cell/" unit, in merge order (experiments by name, then units by
  /// "seq:id" key) — exact, like every artifact metric.
  uint64_t FabricCells = 0;
  LatencyMetrics FabricLatency;
  FairnessMetrics FabricFairness;
};

/// Resolves an experiment name from the manifests to its granularity
/// and body; null when unknown to this binary.
struct MergeExperimentInfo {
  ShardGranularity G = ShardGranularity::Whole;
  std::function<int()> Run;
};
using MergeResolver =
    std::function<const MergeExperimentInfo *(const std::string &Name)>;

/// Recombines the shard partials in \p ShardDir into \p OutDir:
/// validates every manifest and partial (each failure mode gets a
/// distinct diagnostic — see the file comment), byte-copies whole
/// artifacts, re-runs sweep-cell bodies over the recombined units, and
/// writes BENCH_merge.json (schema pbt-merge-v2) with the fabric-wide
/// metrics of MergeReport. Sets PBT_BENCH_SCALE to the shards' recorded
/// scale so replayed bodies build identical grids.
/// Returns the empty string on success, else the first diagnostic;
/// never leaves a silently wrong artifact (the failing experiment's
/// output is not written).
std::string mergeShards(const std::string &ShardDir, const std::string &OutDir,
                        const MergeResolver &Resolve,
                        MergeReport *Report = nullptr);

} // namespace exp
} // namespace pbt

#endif // PBT_EXP_SHARD_H
