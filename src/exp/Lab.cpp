//===- exp/Lab.cpp - Shared experiment context ----------------------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exp/Lab.h"

#include "exp/CacheStore.h"
#include "support/ThreadPool.h"

using namespace pbt;
using namespace pbt::exp;

Lab::Lab(MachineConfig MachineCfgIn)
    : MachineCfg(std::move(MachineCfgIn)), Programs(buildSuite()) {
  Cache.setStore(CacheStore::fromEnv());
}

Lab::Lab(std::vector<Program> ProgramsIn, MachineConfig MachineCfgIn,
         SimConfig SimIn)
    : MachineCfg(std::move(MachineCfgIn)), Sim(SimIn),
      Programs(std::move(ProgramsIn)) {
  Cache.setStore(CacheStore::fromEnv());
}

const std::vector<double> &Lab::isolated() {
  if (!IsolatedMeasured) {
    // The baseline suite comes through the cache, so the measurement
    // shares (and persists, with a store attached) the prepared images.
    Isolated = isolatedRuntimes(suite(TechniqueSpec::baseline()),
                                MachineCfg, Sim);
    IsolatedMeasured = true;
  }
  return Isolated;
}

PreparedSuite Lab::suite(const TechniqueSpec &Tech, uint64_t TypingSeed) {
  return Cache.get(Programs, MachineCfg, Tech, TypingSeed);
}

std::vector<CompletedJob> Lab::isolatedJobs(const TechniqueSpec &Tech,
                                            uint64_t Seed) {
  std::vector<uint32_t> Benches(Programs.size());
  for (uint32_t I = 0; I < Benches.size(); ++I)
    Benches[I] = I;
  return isolatedJobs(Tech, Benches, Seed);
}

std::vector<CompletedJob>
Lab::isolatedJobs(const TechniqueSpec &Tech,
                  const std::vector<uint32_t> &Benches, uint64_t Seed) {
  PreparedSuite Suite = suite(Tech);
  std::vector<CompletedJob> Jobs(Benches.size());
  ThreadPool::global().parallelFor(Benches.size(), [&](size_t I) {
    Jobs[I] = runIsolated(Suite, Benches[I], MachineCfg, Sim, Seed);
  });
  return Jobs;
}
