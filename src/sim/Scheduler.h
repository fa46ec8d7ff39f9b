//===- sim/Scheduler.h - Scheduling policies --------------------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The OS scheduling-policy API: a lifecycle/observer interface the
/// Machine drives, a family of named policies, and the declarative
/// SchedulerSpec that makes "which OS scheduler" a sweepable experiment
/// axis alongside TechniqueSpec.
///
/// The paper compares phase-based tuning against OS-level assignment
/// strategies (Sec. V): the asymmetry-oblivious Linux 2.6.22 O(1)
/// scheduler it runs on top of, and related work that modifies the OS
/// instead of the program — HASS-style whole-program static assignment
/// (Shelepov et al.) and Kumar-style dynamic IPC sampling. All of them
/// are expressible here as SchedulerPolicy subclasses:
///
///  - `oblivious` — per-core runqueues, round-robin timeslices, periodic
///    balancing by queue length, full respect for affinity masks, no
///    knowledge of core asymmetry. The paper's baseline, and the policy
///    phase-based tuning itself runs under (the technique never modifies
///    the OS scheduler; it only issues affinity calls from inside the
///    instrumented processes).
///  - `fastest-first` — asymmetry-aware but program-oblivious: prefers
///    the fastest core at equal load and balances toward fast cores.
///  - `hass-static` — pins each process at spawn to the core type
///    matching its whole-program dominant phase type; no monitoring, no
///    reaction to behaviour changes during execution.
///  - `ipc-sampling` — samples each process's counter IPC per quantum
///    window on each core type, then periodically reassigns queued
///    processes so the programs with the largest fast-core benefit get
///    the fast cores.
///
/// **Determinism rules.** Policies are consulted at deterministic points
/// (spawn, balance period, exit) in deterministic order and
/// must derive decisions only from the Machine's observable state — the
/// runqueues, the telemetry, and the processes themselves. A policy must
/// never consult wall-clock time, pointers-as-ordering, or private RNG;
/// replays of the same workload and seeds must make identical decisions.
/// Policies must honor each process's affinity mask: selectCore may only
/// return allowed cores, and Machine::moveQueued rejects (returns false
/// on) disallowed moves as a backstop.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SIM_SCHEDULER_H
#define PBT_SIM_SCHEDULER_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pbt {

class CostModel;
class Machine;
struct MachineConfig;
struct Process;
struct Program;

/// Read-only per-process counter telemetry the Machine maintains for
/// scheduling policies: what an OS sees through hardware performance
/// counters (instructions retired and cycles, per core type), without
/// reaching into the process's own tuner state. Updated after every
/// execution window (one process's slice of one quantum).
struct SchedTelemetry {
  /// Accumulated counters per core type since spawn.
  std::vector<uint64_t> InstsByType;
  std::vector<double> CyclesByType;
  /// IPC over the most recently completed execution window and the core
  /// type it ran on (0 before the process first runs).
  double WindowIpc = 0;
  uint32_t WindowCoreType = 0;

  /// Accumulated IPC on \p CoreType (0 when never run there).
  double ipcOn(uint32_t CoreType) const {
    return CyclesByType[CoreType] > 0
               ? static_cast<double>(InstsByType[CoreType]) /
                     CyclesByType[CoreType]
               : 0.0;
  }
  /// True once at least \p MinInsts instructions ran on \p CoreType.
  bool sampled(uint32_t CoreType, uint64_t MinInsts) const {
    return InstsByType[CoreType] >= MinInsts;
  }
};

/// Placement/balancing policy plugged into the Machine. The pure-virtual
/// selectCore is the only mandatory method; the lifecycle hooks default
/// to no-ops so simple policies stay two functions long.
class SchedulerPolicy {
public:
  virtual ~SchedulerPolicy();

  /// Picks a core for a ready process (new arrival or migration). Must
  /// honor the process's affinity mask; the machine guarantees at least
  /// one allowed core exists.
  virtual uint32_t selectCore(const Machine &M, const Process &P) = 0;

  /// Periodic load balancing (every SimConfig::BalancePeriod); may move
  /// queued (not running) processes between cores via Machine::moveQueued.
  /// There is no per-quantum hook: a policy that steers every quantum
  /// runs with BalancePeriod == Timeslice (the machine charges runs of
  /// steady quanta between balance instants in one step).
  virtual void balance(Machine &) {}

  /// Fired when \p P is spawned, before its first placement. The policy
  /// may constrain Process::AffinityMask here (an OS-level static
  /// assignment); selectCore is called immediately after.
  virtual void onSpawn(Machine &, Process &) {}

  /// Fired when \p P completes, before the workload's exit handler
  /// spawns any replacement.
  virtual void onExit(Machine &, Process &) {}
};

/// The asymmetry-oblivious Linux-like baseline: least-loaded allowed core
/// on placement; balancing pulls from the longest to the shortest queue.
class ObliviousScheduler : public SchedulerPolicy {
public:
  uint32_t selectCore(const Machine &M, const Process &P) override;
  void balance(Machine &M) override;
};

/// Asymmetry-aware, program-oblivious: at equal queue length prefers the
/// higher-frequency core, both on placement and as the balancing target,
/// so fast cores fill first and never idle while slow queues hold work.
class FastestFirstScheduler final : public SchedulerPolicy {
public:
  uint32_t selectCore(const Machine &M, const Process &P) override;
  void balance(Machine &M) override;
};

/// The whole-program dominant-type mask of the HASS-style comparator:
/// cycle-weighted vote over the behavioural typing (cold procedures
/// excluded); clearly memory-dominant programs map to the slowest core
/// type, clearly compute-dominant ones to the fastest, mixed programs to
/// 0 (unconstrained). Shared by HassStaticScheduler and tests.
uint64_t hassWholeProgramMask(const Program &Prog, const CostModel &Cost,
                              const MachineConfig &Machine);

/// HASS-style comparator (related work, Shelepov et al.): oblivious
/// queueing/balancing, but each process is pinned at spawn to the core
/// type matching its whole-program dominant type. No monitoring, no
/// reaction to behaviour changes during execution — unlike phase-based
/// tuning, which assigns per phase.
class HassStaticScheduler final : public ObliviousScheduler {
public:
  void onSpawn(Machine &M, Process &P) override;

private:
  /// The dominant-type analysis is per (program image, cost model), not
  /// per process; memoized so workloads spawning thousands of jobs
  /// analyze each benchmark once (a process-wide second tier shares the
  /// results across Machines of a parallel sweep).
  std::map<std::pair<const void *, const void *>, uint64_t> MaskByImage;
};

/// Kumar-style dynamic reassigner: oblivious placement (inherited), plus
/// a periodic balancing pass that reads the machine's counter telemetry.
/// Processes unsampled on some core type are migrated there to gather a
/// window; once sampled everywhere, processes are ranked by their
/// estimated fast-core benefit (IPC x frequency ratio between their best
/// and worst core types) and the biggest beneficiaries are queued on the
/// fastest cores, load permitting. Purely OS-side: works on
/// uninstrumented images and never touches affinity masks.
class IpcSamplingScheduler final : public ObliviousScheduler {
public:
  IpcSamplingScheduler(uint64_t MinSampleInsts, double SpeedupThreshold)
      : MinSampleInsts(MinSampleInsts), SpeedupThreshold(SpeedupThreshold) {}

  void balance(Machine &M) override;

private:
  uint64_t MinSampleInsts;
  double SpeedupThreshold;
  /// Machine-shape tables, built on the first balance call (a policy
  /// instance serves one machine for its whole life) so the periodic
  /// pass allocates nothing for them.
  bool ShapeCached = false;
  std::vector<uint32_t> TypesByFreq;
  std::vector<std::vector<uint32_t>> CoresOfType;
};

/// A named, declarative OS-scheduler configuration: the scheduler analog
/// of TechniqueSpec, and a sweep axis of SweepGrid. Deliberately
/// orthogonal to suite preparation — schedulers only steer the dynamic
/// replay, so TechniqueSpec::samePreparation and the suite-cache keys
/// exclude it and a scheduler-only sweep replays cached images without
/// re-running the static pipeline.
struct SchedulerSpec {
  /// Policy name: "oblivious", "fastest-first", "hass-static", or
  /// "ipc-sampling". makeScheduler() rejects anything else.
  std::string Name = "oblivious";
  /// ipc-sampling: instructions required on a core type before its IPC
  /// sample is trusted (smaller = faster, noisier decisions).
  uint64_t MinSampleInsts = 50000;
  /// ipc-sampling: best/worst estimated-throughput ratio above which a
  /// process is preferred on the fastest cores.
  double SpeedupThreshold = 1.10;

  static SchedulerSpec oblivious() { return SchedulerSpec(); }
  static SchedulerSpec fastestFirst() {
    SchedulerSpec S;
    S.Name = "fastest-first";
    return S;
  }
  static SchedulerSpec hassStatic() {
    SchedulerSpec S;
    S.Name = "hass-static";
    return S;
  }
  static SchedulerSpec ipcSampling(uint64_t MinSampleInsts = 50000,
                                   double SpeedupThreshold = 1.10) {
    SchedulerSpec S;
    S.Name = "ipc-sampling";
    S.MinSampleInsts = MinSampleInsts;
    S.SpeedupThreshold = SpeedupThreshold;
    return S;
  }

  /// Display label: the name, with parameters appended for parameterized
  /// policies ("ipc-sampling[50000,1.1]") so sweep cells labeled by
  /// scheduler are self-describing.
  std::string label() const;

  /// Instantiates the policy; throws std::invalid_argument on an
  /// unknown Name.
  std::unique_ptr<SchedulerPolicy> makeScheduler() const;

  bool operator==(const SchedulerSpec &Other) const {
    if (Name != Other.Name)
      return false;
    if (Name != "ipc-sampling")
      return true; // Parameters only apply to ipc-sampling.
    return MinSampleInsts == Other.MinSampleInsts &&
           SpeedupThreshold == Other.SpeedupThreshold;
  }
  bool operator!=(const SchedulerSpec &Other) const {
    return !(*this == Other);
  }
};

/// Stable content hash mirroring SchedulerSpec::operator==.
uint64_t hashValue(const SchedulerSpec &Spec);

} // namespace pbt

#endif // PBT_SIM_SCHEDULER_H
