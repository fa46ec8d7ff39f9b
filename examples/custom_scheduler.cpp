//===- examples/custom_scheduler.cpp - Write your own OS policy -----------===//
//
// The scheduler-policy hook API in action: a user-defined
// SchedulerPolicy subclass that uses the Machine's counter telemetry to
// keep memory-bound processes off the fast cores — about thirty lines,
// with no changes to the simulator. The same workload then replays
// under the built-in policies via SchedulerSpec for comparison;
// identical queues and seeds make the numbers directly comparable.
//
//===----------------------------------------------------------------------===//

#include "sim/Machine.h"
#include "workload/Benchmarks.h"
#include "workload/Runner.h"

#include <cstdio>
#include <memory>

using namespace pbt;

namespace {

/// A toy phase-aware OS policy: place on the least-loaded core like the
/// oblivious baseline, then at every balance instant (each quantum, on
/// a machine balancing every timeslice) steer every process toward the
/// core type its *last window's* IPC says it belongs on — memory-bound
/// windows (which waste fast-core cycles on stalls) to slow cores,
/// compute-bound windows to fast cores. Moves are load-aware (never
/// into a longer queue), so neither type starves.
class WindowIpcScheduler : public SchedulerPolicy {
public:
  /// selectCore reads queue lengths and masks; balance also reads
  /// telemetry, and queue order only through the settling
  /// Machine::queue. So the machine need not settle deferred cores
  /// before each call.
  PolicyReads reads() const override { return PolicyReads::Telemetry; }

  uint32_t selectCore(const Machine &M, const Process &P) override {
    uint32_t Best = UINT32_MAX;
    uint32_t BestLen = UINT32_MAX;
    for (uint32_t Core = 0; Core < M.config().numCores(); ++Core) {
      if (!P.allowedOn(Core))
        continue;
      if (M.queueLength(Core) < BestLen) {
        BestLen = M.queueLength(Core);
        Best = Core;
      }
    }
    return Best;
  }

  void balance(Machine &M) override {
    const MachineConfig &Cfg = M.config();
    // Fastest and slowest core types.
    uint32_t Fast = 0;
    uint32_t Slow = 0;
    for (uint32_t Ct = 1; Ct < Cfg.numCoreTypes(); ++Ct) {
      if (Cfg.CoreTypes[Ct].Frequency > Cfg.CoreTypes[Fast].Frequency)
        Fast = Ct;
      if (Cfg.CoreTypes[Ct].Frequency < Cfg.CoreTypes[Slow].Frequency)
        Slow = Ct;
    }
    for (uint32_t Core = 0; Core < Cfg.numCores(); ++Core) {
      // Snapshot the queue: moves invalidate iteration. Which process
      // moves first depends on the order, so it is read through the
      // non-const (settling) queue().
      std::vector<uint32_t> Pids = M.queue(Core);
      for (uint32_t Pid : Pids) {
        const SchedTelemetry &T = M.telemetry(Pid);
        if (T.WindowIpc == 0)
          continue; // Not run yet.
        // The cost model is superscalar: compute windows run near IPC
        // 3, memory-stalled windows sink below ~1.3.
        uint32_t WantType = T.WindowIpc < 1.3 ? Slow : Fast;
        if (Cfg.Cores[Core].TypeId == WantType)
          continue;
        uint32_t Target = UINT32_MAX;
        for (uint32_t C = 0; C < Cfg.numCores(); ++C)
          if (Cfg.Cores[C].TypeId == WantType &&
              M.process(Pid).allowedOn(C) &&
              (Target == UINT32_MAX ||
               M.queueLength(C) < M.queueLength(Target)))
            Target = C;
        if (Target != UINT32_MAX &&
            M.queueLength(Target) <= M.queueLength(Core) &&
            M.moveQueued(Pid, Core, Target))
          ++Moves;
      }
    }
  }

  uint64_t Moves = 0;
};

} // namespace

int main() {
  // A small mixed workload of paper benchmarks, uninstrumented: the
  // policies below are pure OS-side strategies.
  std::vector<Program> Programs;
  for (const BenchSpec &Spec : specSuite())
    Programs.push_back(buildBenchmark(Spec));
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite =
      prepareSuite(Programs, MC, TechniqueSpec::baseline());
  Workload W = Workload::random(/*Slots=*/8, /*JobsPerSlot=*/64,
                                static_cast<uint32_t>(Programs.size()),
                                /*Seed=*/19);
  const double Horizon = 40;

  // The custom policy drives a Machine directly (the hook API needs no
  // SchedulerSpec registration), replaying the exact queues runWorkload
  // uses for the built-ins. Balancing every timeslice makes balance()
  // the per-quantum steering point.
  auto Policy = std::make_unique<WindowIpcScheduler>();
  WindowIpcScheduler *Raw = Policy.get();
  SimConfig EveryQuantum;
  EveryQuantum.BalancePeriod = EveryQuantum.Timeslice;
  Machine M(MC, EveryQuantum, std::move(Policy));
  std::vector<uint32_t> NextJob(W.numSlots(), 0);
  auto SpawnSlot = [&](uint32_t Slot) {
    uint32_t Index = NextJob[Slot]++;
    if (Index >= W.Slots[Slot].size())
      return;
    uint32_t Bench = W.Slots[Slot][Index];
    M.spawn(Suite.Flats[Bench], Suite.Tuner, W.jobSeed(Slot, Index),
            static_cast<int32_t>(Slot));
  };
  M.setExitHandler([&](Machine &, Process &P) {
    if (P.Slot >= 0)
      SpawnSlot(static_cast<uint32_t>(P.Slot));
  });
  for (uint32_t Slot = 0; Slot < W.numSlots(); ++Slot)
    SpawnSlot(Slot);
  M.run(Horizon);
  std::printf("%-24s %12llu instructions  (%llu steering moves)\n",
              "custom window-ipc:",
              static_cast<unsigned long long>(M.totalInstructions()),
              static_cast<unsigned long long>(Raw->Moves));

  // The built-in policies on the identical workload, via the sweepable
  // SchedulerSpec path.
  for (const SchedulerSpec &Sched :
       {SchedulerSpec::oblivious(), SchedulerSpec::fastestFirst(),
        SchedulerSpec::ipcSampling()}) {
    RunResult R = runWorkload(Suite, W, MC, SimConfig(), Horizon,
                              /*Isolated=*/{}, Sched);
    std::printf("%-24s %12llu instructions\n",
                (Sched.label() + ":").c_str(),
                static_cast<unsigned long long>(R.InstructionsRetired));
  }
  std::printf("\na policy is ~30 lines: selectCore plus any of the "
              "balance/onSpawn/onExit hooks, reading "
              "Machine::telemetry() instead of simulator internals\n");
  return 0;
}
