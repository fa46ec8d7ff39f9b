//===- sim/Process.h - Simulated process state ------------------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simulated single-threaded process executing an instrumented program.
/// Each process owns its control-flow position (current block, call
/// stack, live loop trip counters), a deterministic RNG for data-
/// dependent branches, its affinity mask (the standard Linux process-
/// affinity API the paper uses for core switching), its PhaseTuner (the
/// phase marks' dynamic analysis state lives inside the process image, as
/// in the paper's standalone instrumented binaries), and statistics.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SIM_PROCESS_H
#define PBT_SIM_PROCESS_H

#include "core/Tuner.h"
#include "sim/FlatImage.h"
#include "support/Rng.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pbt {

/// Per-process accounting.
struct ProcessStats {
  uint64_t InstsRetired = 0;
  uint64_t BlocksExecuted = 0;
  /// Cycles charged on whatever core the process ran (includes stalls and
  /// instrumentation overhead).
  double CyclesConsumed = 0;
  /// CPU seconds consumed: the sum, in core-type order, of the cycles
  /// the process ran on each core type (SchedTelemetry::CyclesByType)
  /// divided by that type's frequency. Derived from those exact grid
  /// sums rather than accumulated per turn; current when the process
  /// exits (before the policy's and the machine's exit hooks see it)
  /// and whenever Machine::run returns.
  double CpuSeconds = 0;
  /// Actual core migrations triggered by phase marks.
  uint64_t CoreSwitches = 0;
  uint64_t MarksFired = 0;
  uint64_t MonitorSessions = 0;
  /// Times a monitoring attempt found no free hardware-counter slot.
  uint64_t CounterWaits = 0;
  /// Cycles spent inside phase marks (mark body + affinity API +
  /// monitoring setup + switch penalties).
  double OverheadCycles = 0;
};

/// Return-address frame: where to resume in the caller, and which edge
/// mark (the call continuation transition) fires on return. Proc and
/// ContBlock are maintained by the reference engine, ContGlobal by the
/// flat engine; a process runs under one engine for its whole life.
struct CallFrame {
  uint32_t Proc = 0;
  uint32_t ContBlock = 0;
  int32_t ContMarkIndex = -1; ///< Index into the program's mark list.
  uint32_t ContGlobal = 0;    ///< Continuation as a global block id.
};

/// A runnable simulated process.
struct Process {
  Process(uint32_t Pid, std::shared_ptr<const FlatImage> Flat,
          TunerConfig TunerCfg, uint32_t NumCoreTypes, uint64_t Seed,
          uint64_t AllCoresMask);

  /// Identity.
  uint32_t Pid;
  std::string Name;
  /// Workload slot this process occupies (set by the workload runner).
  int32_t Slot = -1;

  /// Fused execution image, shared across processes of one benchmark;
  /// it owns the instrumented program (Flat->program()) and the cost
  /// model (Flat->cost()) the process runs on.
  std::shared_ptr<const FlatImage> Flat;

  /// Control-flow position. CurProc/CurBlock are the reference engine's
  /// cursor; CurGlobal is the flat engine's (a global block id). Only
  /// the active engine's cursor is kept current.
  uint32_t CurProc = 0;
  uint32_t CurBlock = 0;
  uint32_t CurGlobal = 0;
  bool Finished = false;
  std::vector<CallFrame> CallStack;
  /// Remaining trips of each loop latch (0 = latch not active), indexed
  /// by global block id (FlatImage::globalId).
  std::vector<uint32_t> LoopRemaining;

  /// Branch-outcome randomness (seeded per process).
  Rng Gen;

  /// Dynamic tuning state (the phase marks' code + data).
  PhaseTuner Tuner;

  /// Allowed-cores bitmask (sched_setaffinity model).
  uint64_t AffinityMask;

  /// Active monitoring session (hardware-counter sample in flight).
  bool MonActive = false;
  uint32_t MonPhaseType = 0;
  uint32_t MonCoreType = 0;
  uint64_t MonInsts = 0;
  double MonCycles = 0;

  /// Lifecycle (simulated seconds).
  double ArrivalTime = 0;
  double CompletionTime = -1;
  /// Isolated runtime oracle t_i (filled by the workload runner).
  double IsolatedTime = 0;

  ProcessStats Stats;

  /// Returns true when \p Core is permitted by the affinity mask.
  bool allowedOn(uint32_t Core) const {
    return (AffinityMask >> Core) & 1;
  }
};

} // namespace pbt

#endif // PBT_SIM_PROCESS_H
