//===- sim/MachineConfig.h - AMP machine descriptions -----------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Descriptions of performance-asymmetric multicore machines. The paper's
/// testbed is an Intel Core 2 Quad at 2.4 GHz with two cores under-clocked
/// to 1.6 GHz; cores at the same frequency share one of two L2 caches.
///
/// Frequencies here are in *simulated cycles per simulated second* at a
/// megahertz-like scale (2.4e6 vs the real 2.4e9). Every reported paper
/// metric is a ratio (overhead %, % decrease vs Linux), so the uniform
/// time scaling cancels; it merely keeps whole-workload simulations
/// tractable. The frequency ratio (2.4 : 1.6) matches the real
/// machine. The per-miss stall is Frequency * MemLatency, about 20
/// cycles on the fast core and 13 on the slow one (see MemLatency) —
/// an effective latency after memory-level parallelism, well below the
/// real machine's raw DRAM latency in cycles.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SIM_MACHINECONFIG_H
#define PBT_SIM_MACHINECONFIG_H

#include <cstdint>
#include <string>
#include <vector>

namespace pbt {

/// One core *type* (the asymmetry axis).
struct CoreTypeDesc {
  std::string Name;
  /// Simulated cycles per simulated second.
  double Frequency = 2.4e6;
  /// Capacity of the L2 this core type attaches to, in KiB.
  uint32_t L2CacheKB = 4096;
};

/// One physical core.
struct CoreDesc {
  uint32_t TypeId = 0;
  /// Cores with equal L2Group share an L2 cache.
  uint32_t L2Group = 0;
};

/// A whole machine.
struct MachineConfig {
  /// Display label for harness tables and BENCH_*.json cells; NOT part of
  /// the machine's semantic identity (ignored by operator== and
  /// hashValue), so renaming a machine never invalidates cached suites.
  std::string Name = "custom";
  std::vector<CoreTypeDesc> CoreTypes;
  std::vector<CoreDesc> Cores;
  /// Effective main-memory latency in simulated seconds (raw DRAM latency
  /// divided by the memory-level parallelism the core extracts). The
  /// per-miss stall in cycles is Frequency * MemLatency — about 20 cycles
  /// on the fast type and 13 on the slow type — so faster cores waste
  /// more cycles per miss, the effect phase-based tuning exploits.
  double MemLatency = 8.3e-6;

  uint32_t numCores() const { return static_cast<uint32_t>(Cores.size()); }
  uint32_t numCoreTypes() const {
    return static_cast<uint32_t>(CoreTypes.size());
  }

  /// Cache lines (64 B) of the L2 attached to \p TypeId.
  uint32_t cacheLines(uint32_t TypeId) const {
    return CoreTypes[TypeId].L2CacheKB * 1024 / 64;
  }

  /// Miss penalty in cycles on \p TypeId.
  double missPenaltyCycles(uint32_t TypeId) const {
    return CoreTypes[TypeId].Frequency * MemLatency;
  }

  /// Number of cores sharing each L2 group (max over groups).
  uint32_t maxGroupSize() const;

  /// Bitmask of cores whose type is \p TypeId.
  uint64_t coreMaskOfType(uint32_t TypeId) const;

  /// All-cores bitmask.
  uint64_t allCoresMask() const {
    return numCores() >= 64 ? ~0ULL : (1ULL << numCores()) - 1;
  }

  /// The paper's evaluation machine: 2 cores at 2.4 (type 0, "fast") +
  /// 2 cores at 1.6 (type 1, "slow"); same-frequency pairs share an L2.
  static MachineConfig quadAsymmetric();

  /// The paper's Sec. VII variant: 2 fast + 1 slow.
  static MachineConfig threeCore();

  /// Symmetric 4 x fast control machine.
  static MachineConfig symmetricQuad();

  /// A larger 4 fast + 4 slow machine (scalability extension).
  static MachineConfig octoAsymmetric();

  /// Structural equality: core types, core layout, and memory latency
  /// (Name excluded; it is a display label only).
  bool operator==(const MachineConfig &Other) const;
  bool operator!=(const MachineConfig &Other) const {
    return !(*this == Other);
  }
};

/// Stable content hash over the machine's structural fields (mirrors
/// operator==: Name excluded).
uint64_t hashValue(const MachineConfig &Config);

} // namespace pbt

#endif // PBT_SIM_MACHINECONFIG_H
