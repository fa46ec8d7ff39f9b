//===- sim/Scheduler.cpp - Scheduling policies ----------------------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Scheduler.h"

#include "analysis/BlockTyping.h"
#include "sim/Machine.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <utility>

using namespace pbt;

SchedulerPolicy::~SchedulerPolicy() = default;

//===----------------------------------------------------------------------===//
// ObliviousScheduler
//===----------------------------------------------------------------------===//

uint32_t ObliviousScheduler::selectCore(const Machine &M, const Process &P) {
  uint32_t Best = UINT32_MAX;
  uint32_t BestLen = UINT32_MAX;
  for (uint32_t Core = 0; Core < M.config().numCores(); ++Core) {
    if (!P.allowedOn(Core))
      continue;
    uint32_t Len = M.queueLength(Core);
    if (Len < BestLen) {
      BestLen = Len;
      Best = Core;
    }
  }
  assert(Best != UINT32_MAX && "affinity mask excludes every core");
  return Best;
}

void ObliviousScheduler::balance(Machine &M) {
  // Pull-style balancing: repeatedly move one queued process from the
  // longest to the shortest queue while the imbalance exceeds one.
  uint32_t NumCores = M.config().numCores();
  for (int Round = 0; Round < 8; ++Round) {
    uint32_t Longest = 0;
    uint32_t Shortest = 0;
    for (uint32_t Core = 1; Core < NumCores; ++Core) {
      if (M.queueLength(Core) > M.queueLength(Longest))
        Longest = Core;
      if (M.queueLength(Core) < M.queueLength(Shortest))
        Shortest = Core;
    }
    if (M.queueLength(Longest) < M.queueLength(Shortest) + 2)
      return;
    if (!M.pullTail(Longest, Shortest))
      return;
  }
}

//===----------------------------------------------------------------------===//
// FastestFirstScheduler
//===----------------------------------------------------------------------===//

namespace {

double coreFreq(const MachineConfig &Cfg, uint32_t Core) {
  return Cfg.CoreTypes[Cfg.Cores[Core].TypeId].Frequency;
}

} // namespace

uint32_t FastestFirstScheduler::selectCore(const Machine &M,
                                           const Process &P) {
  const MachineConfig &Cfg = M.config();
  uint32_t Best = UINT32_MAX;
  uint32_t BestLen = UINT32_MAX;
  double BestFreq = -1;
  for (uint32_t Core = 0; Core < Cfg.numCores(); ++Core) {
    if (!P.allowedOn(Core))
      continue;
    uint32_t Len = M.queueLength(Core);
    double Freq = coreFreq(Cfg, Core);
    if (Len < BestLen || (Len == BestLen && Freq > BestFreq)) {
      BestLen = Len;
      BestFreq = Freq;
      Best = Core;
    }
  }
  assert(Best != UINT32_MAX && "affinity mask excludes every core");
  return Best;
}

void FastestFirstScheduler::balance(Machine &M) {
  const MachineConfig &Cfg = M.config();
  uint32_t NumCores = Cfg.numCores();
  for (int Round = 0; Round < 8; ++Round) {
    // First, never let a faster core idle while work queues elsewhere:
    // fill each empty core from the longest eligible donor — any queue
    // of two or more, or a single job stranded on a strictly slower
    // core.
    bool Moved = false;
    for (uint32_t To = 0; To < NumCores && !Moved; ++To) {
      if (M.queueLength(To) != 0)
        continue;
      uint32_t From = UINT32_MAX;
      for (uint32_t Core = 0; Core < NumCores; ++Core) {
        if (Core == To || M.queueLength(Core) == 0)
          continue;
        if (M.queueLength(Core) < 2 &&
            coreFreq(Cfg, Core) >= coreFreq(Cfg, To))
          continue;
        if (From == UINT32_MAX ||
            M.queueLength(Core) > M.queueLength(From) ||
            (M.queueLength(Core) == M.queueLength(From) &&
             coreFreq(Cfg, Core) < coreFreq(Cfg, From)))
          From = Core;
      }
      if (From != UINT32_MAX)
        Moved = M.pullTail(From, To);
    }
    if (Moved)
      continue;
    // Then the oblivious imbalance rule, tie-breaking the target toward
    // fast cores and the donor toward slow ones.
    uint32_t Longest = 0;
    uint32_t Shortest = 0;
    for (uint32_t Core = 1; Core < NumCores; ++Core) {
      if (M.queueLength(Core) > M.queueLength(Longest) ||
          (M.queueLength(Core) == M.queueLength(Longest) &&
           coreFreq(Cfg, Core) < coreFreq(Cfg, Longest)))
        Longest = Core;
      if (M.queueLength(Core) < M.queueLength(Shortest) ||
          (M.queueLength(Core) == M.queueLength(Shortest) &&
           coreFreq(Cfg, Core) > coreFreq(Cfg, Shortest)))
        Shortest = Core;
    }
    if (M.queueLength(Longest) < M.queueLength(Shortest) + 2)
      return;
    if (!M.pullTail(Longest, Shortest))
      return;
  }
}

//===----------------------------------------------------------------------===//
// HassStaticScheduler
//===----------------------------------------------------------------------===//

uint64_t pbt::hassWholeProgramMask(const Program &Prog, const CostModel &Cost,
                                   const MachineConfig &Machine) {
  // Whole-program dominant type: instruction-weighted vote over the
  // behavioural typing; pin to that core type for the process's entire
  // life (no phase awareness).
  ProgramTyping Typing = computeOracleTyping(Prog, Cost);
  double MemWeight = 0;
  double Total = 0;
  for (const Procedure &P : Prog.Procs) {
    if (P.Name.find("_cold") != std::string::npos)
      continue; // Dead code should not vote.
    for (const BasicBlock &BB : P.Blocks) {
      // Cycle-weighted vote (HASS uses static performance estimates): a
      // block's weight is its fast-core cycle cost.
      double W = Cost.blockCycles(P.Id, BB.Id, 0, 1);
      Total += W;
      if (Typing.typeOf(P.Id, BB.Id) == 1)
        MemWeight += W;
    }
  }
  // Type 1 (memory) maps to the slowest core type, type 0 to the
  // fastest, mirroring the phase-level policy at program granularity.
  uint32_t Fast = 0;
  uint32_t Slow = 0;
  for (uint32_t Ct = 0; Ct < Machine.numCoreTypes(); ++Ct) {
    if (Machine.CoreTypes[Ct].Frequency > Machine.CoreTypes[Fast].Frequency)
      Fast = Ct;
    if (Machine.CoreTypes[Ct].Frequency < Machine.CoreTypes[Slow].Frequency)
      Slow = Ct;
  }
  // Pin only clearly dominant programs; mixed programs stay
  // unconstrained (a sensible static assigner would not pin them).
  double MemShare = Total > 0 ? MemWeight / Total : 0;
  if (MemShare > 0.65)
    return Machine.coreMaskOfType(Slow);
  if (MemShare < 0.35)
    return Machine.coreMaskOfType(Fast);
  return 0;
}

namespace {

/// Process-wide memo of whole-program masks keyed by (image identity,
/// machine identity) — the image owns the cost model the mask's typing
/// derives from. Prepared-suite images are shared by every replay
/// (cells hold shared_ptr copies of the same immutable images), so the
/// dominant-type analysis runs once per key per process instead of once
/// per Machine — a parallel sweep's hass-static cells all hit this after
/// the first. Anchoring a shared_ptr per key keeps a freed image's
/// address from aliasing a later, different one; the retained images
/// are the same ones the labs' suite caches hold for the process
/// lifetime anyway.
struct HassMaskMemo {
  using Key = std::pair<const FlatImage *, uint64_t>;
  std::mutex Mutex;
  std::map<Key, uint64_t> Masks;
  std::vector<std::shared_ptr<const FlatImage>> Anchors;
};

HassMaskMemo &hassMaskMemo() {
  static HassMaskMemo Memo;
  return Memo;
}

} // namespace

void HassStaticScheduler::onSpawn(Machine &M, Process &P) {
  // Instance-level fast path first: one lock-free lookup per spawn
  // after this Machine has seen the image once. Within a Machine's life
  // the processes keep their images alive, so the raw pointer cannot
  // alias.
  auto It = MaskByImage.find(P.Flat.get());
  if (It == MaskByImage.end()) {
    HassMaskMemo &Memo = hassMaskMemo();
    HassMaskMemo::Key SharedKey{P.Flat.get(), hashValue(M.config())};
    uint64_t Mask = 0;
    bool Found = false;
    {
      std::lock_guard<std::mutex> Lock(Memo.Mutex);
      auto Shared = Memo.Masks.find(SharedKey);
      if (Shared != Memo.Masks.end()) {
        Mask = Shared->second;
        Found = true;
      }
    }
    if (!Found) {
      // Compute outside the lock so distinct keys analyze in parallel;
      // a racing duplicate computation is idempotent and the re-check
      // below keeps one canonical entry.
      Mask = hassWholeProgramMask(P.Flat->program().program(),
                                  P.Flat->cost(), M.config());
      std::lock_guard<std::mutex> Lock(Memo.Mutex);
      auto Inserted = Memo.Masks.emplace(SharedKey, Mask);
      if (Inserted.second)
        Memo.Anchors.push_back(P.Flat);
      Mask = Inserted.first->second;
    }
    It = MaskByImage.emplace(P.Flat.get(), Mask).first;
  }
  uint64_t Mask = It->second & M.config().allCoresMask();
  if (Mask != 0)
    P.AffinityMask = Mask;
}

//===----------------------------------------------------------------------===//
// IpcSamplingScheduler
//===----------------------------------------------------------------------===//

void IpcSamplingScheduler::balance(Machine &M) {
  const MachineConfig &Cfg = M.config();
  uint32_t NumCores = Cfg.numCores();
  uint32_t NumTypes = Cfg.numCoreTypes();
  if (NumTypes < 2)
    return; // Nothing to learn on a symmetric machine.

  // Core types ordered by frequency descending (ties by type id), the
  // cores of each type and their core masks — pure functions of the
  // immutable machine shape, built once per policy instance.
  if (!ShapeCached) {
    TypesByFreq.resize(NumTypes);
    for (uint32_t Ct = 0; Ct < NumTypes; ++Ct)
      TypesByFreq[Ct] = Ct;
    std::stable_sort(TypesByFreq.begin(), TypesByFreq.end(),
                     [&](uint32_t A, uint32_t B) {
                       return Cfg.CoreTypes[A].Frequency >
                              Cfg.CoreTypes[B].Frequency;
                     });
    CoresOfType.resize(NumTypes);
    for (uint32_t Core = 0; Core < NumCores; ++Core)
      CoresOfType[Cfg.Cores[Core].TypeId].push_back(Core);
    for (uint32_t Ct = 0; Ct < NumTypes; ++Ct)
      TypeMasks.push_back(Cfg.coreMaskOfType(Ct));
    ShapeCached = true;
  }

  // Snapshot every queued process with its desired core type. Processes
  // this pass will not move (pinned to one type, degenerate samples)
  // keep occupying their queues; they are counted into the projected
  // load so movable work is not piled on top of them. The queues are
  // read unsettled (const): what follows depends only on which
  // processes each holds, not on their order. Telemetry is read only
  // for a process that reaches two or more types: the read charges its
  // deferred core's due turns, which a pinned process's decision never
  // needs.
  const Machine &Shape = M;
  Items.clear();
  Proj.assign(NumCores, 0);
  for (uint32_t Core = 0; Core < NumCores; ++Core) {
    for (uint32_t Pid : Shape.queue(Core)) {
      const Process &P = M.process(Pid);
      // Bitmask of core types the process's affinity mask reaches at
      // all (machines have at most 64 cores, so far fewer types).
      uint64_t AllowedTypes = 0;
      for (uint32_t Ct = 0; Ct < NumTypes; ++Ct)
        if (P.AffinityMask & TypeMasks[Ct])
          AllowedTypes |= 1ULL << Ct;
      auto Allowed = [AllowedTypes](uint32_t Ct) {
        return (AllowedTypes >> Ct) & 1;
      };
      if ((AllowedTypes & (AllowedTypes - 1)) == 0) {
        ++Proj[Core]; // Pinned to one type; stays where it is.
        continue;
      }
      const SchedTelemetry &T = M.telemetry(Pid);

      Item I;
      I.Pid = Pid;
      I.Core = Core;
      // Sampling phase: run on every (allowed) core type once before
      // trusting the IPC comparison; fast types are sampled first.
      bool NeedsSample = false;
      for (uint32_t Ct : TypesByFreq)
        if (Allowed(Ct) && !T.sampled(Ct, MinSampleInsts)) {
          I.WantType = Ct;
          I.Sampling = true;
          NeedsSample = true;
          break;
        }
      if (!NeedsSample) {
        // Estimated throughput per type: counter IPC times frequency.
        double BestThr = -1;
        double WorstThr = -1;
        uint32_t BestType = 0;
        for (uint32_t Ct = 0; Ct < NumTypes; ++Ct) {
          if (!Allowed(Ct))
            continue;
          double Thr = T.ipcOn(Ct) * Cfg.CoreTypes[Ct].Frequency;
          if (Thr > BestThr) {
            BestThr = Thr;
            BestType = Ct;
          }
          if (WorstThr < 0 || Thr < WorstThr)
            WorstThr = Thr;
        }
        if (WorstThr <= 0) {
          ++Proj[Core]; // Degenerate sample; leave it where it is.
          continue;
        }
        I.Benefit = BestThr / WorstThr;
        // Big benefit: take space on the core type that wastes fewer
        // cycles. Otherwise prefer the slowest allowed type, leaving
        // fast cores to processes that profit from them (the same
        // intuition as the tuner's Algorithm 2).
        if (I.Benefit >= SpeedupThreshold) {
          I.WantType = BestType;
        } else {
          for (auto It = TypesByFreq.rbegin(); It != TypesByFreq.rend();
               ++It)
            if (Allowed(*It)) {
              I.WantType = *It;
              break;
            }
        }
      }
      Items.push_back(I);
    }
  }
  if (Items.empty())
    return;

  // Sampling migrations first, then the biggest beneficiaries, so fast
  // slots go to the processes that profit most; pid breaks ties, so the
  // key is total and the order does not depend on the queues'.
  std::sort(Items.begin(), Items.end(), [](const Item &A, const Item &B) {
    if (A.Sampling != B.Sampling)
      return A.Sampling;
    if (A.Benefit != B.Benefit)
      return A.Benefit > B.Benefit;
    return A.Pid < B.Pid;
  });

  // Greedy placement against projected queue lengths (seeded with the
  // immovable residents counted above): each process goes to the
  // shortest-projected core of its desired type, falling back to the
  // overall shortest allowed core when that type is already loaded past
  // the fair share.
  uint32_t Total = static_cast<uint32_t>(Items.size());
  for (uint32_t Core = 0; Core < NumCores; ++Core)
    Total += Proj[Core];
  uint32_t Quota = (Total + NumCores - 1) / NumCores;
  for (const Item &I : Items) {
    const Process &P = M.process(I.Pid);
    uint32_t Target = UINT32_MAX;
    for (uint32_t Core : CoresOfType[I.WantType])
      if (P.allowedOn(Core) &&
          (Target == UINT32_MAX || Proj[Core] < Proj[Target]))
        Target = Core;
    if (Target == UINT32_MAX || (Proj[Target] >= Quota && !I.Sampling)) {
      for (uint32_t Core = 0; Core < NumCores; ++Core)
        if (P.allowedOn(Core) &&
            (Target == UINT32_MAX || Proj[Core] < Proj[Target]))
          Target = Core;
    }
    ++Proj[Target];
    if (Target != I.Core)
      M.moveQueued(I.Pid, I.Core, Target);
  }
}

//===----------------------------------------------------------------------===//
// SchedulerSpec
//===----------------------------------------------------------------------===//

std::string SchedulerSpec::label() const {
  if (Name != "ipc-sampling")
    return Name;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "ipc-sampling[%llu,%g]",
                static_cast<unsigned long long>(MinSampleInsts),
                SpeedupThreshold);
  return Buf;
}

std::unique_ptr<SchedulerPolicy> SchedulerSpec::makeScheduler() const {
  if (Name == "oblivious")
    return std::make_unique<ObliviousScheduler>();
  if (Name == "fastest-first")
    return std::make_unique<FastestFirstScheduler>();
  if (Name == "hass-static")
    return std::make_unique<HassStaticScheduler>();
  if (Name == "ipc-sampling")
    return std::make_unique<IpcSamplingScheduler>(MinSampleInsts,
                                                 SpeedupThreshold);
  throw std::invalid_argument("unknown scheduler policy '" + Name +
                              "' (known: oblivious, fastest-first, "
                              "hass-static, ipc-sampling)");
}

uint64_t pbt::hashValue(const SchedulerSpec &Spec) {
  uint64_t H = hashCombine(0x5C4ED, hashString(Spec.Name));
  if (Spec.Name != "ipc-sampling")
    return H;
  H = hashCombine(H, Spec.MinSampleInsts);
  return hashCombine(H, hashDouble(Spec.SpeedupThreshold));
}
