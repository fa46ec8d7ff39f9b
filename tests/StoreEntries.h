//===- tests/StoreEntries.h - Suites through store entries ------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test helpers that move a whole prepared suite through a CacheStore
/// one program entry at a time — the same walk SuiteCache::get makes —
/// so store-level tests can round-trip, age, corrupt and compare every
/// entry of a suite.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_TESTS_STOREENTRIES_H
#define PBT_TESTS_STOREENTRIES_H

#include "exp/CacheStore.h"

#include <string>
#include <vector>

namespace pbt_test {

/// Saves program \p I of \p Suite (prepared from \p Programs) as a
/// store entry.
inline bool saveEntry(pbt::exp::CacheStore &Store,
                      const std::vector<pbt::Program> &Programs,
                      const pbt::MachineConfig &MC,
                      const pbt::TechniqueSpec &Tech, uint64_t Seed,
                      const pbt::PreparedSuite &Suite, size_t I) {
  return Store.saveProgram(
      pbt::exp::CacheStore::hashProgram(Programs[I]), MC, Tech, Seed,
      *Suite.Flats[I]);
}

/// Saves every program of \p Suite; true when every entry is on disk.
inline bool saveSuite(pbt::exp::CacheStore &Store,
                      const std::vector<pbt::Program> &Programs,
                      const pbt::MachineConfig &MC,
                      const pbt::TechniqueSpec &Tech, uint64_t Seed,
                      const pbt::PreparedSuite &Suite) {
  bool Ok = true;
  for (size_t I = 0; I < Programs.size(); ++I)
    Ok = saveEntry(Store, Programs, MC, Tech, Seed, Suite, I) && Ok;
  return Ok;
}

/// Loads every program's entry; true when all of them hit. \p Out
/// (when non-null) receives the assembled suite.
inline bool loadSuite(pbt::exp::CacheStore &Store,
                      const std::vector<pbt::Program> &Programs,
                      const pbt::MachineConfig &MC,
                      const pbt::TechniqueSpec &Tech, uint64_t Seed,
                      pbt::PreparedSuite *Out = nullptr) {
  bool All = true;
  pbt::PreparedSuite Suite;
  for (const pbt::Program &Prog : Programs) {
    auto Flat = Store.loadProgram(
        Prog, pbt::exp::CacheStore::hashProgram(Prog), MC, Tech, Seed);
    All = All && Flat;
    Suite.Names.push_back(Prog.Name);
    Suite.Flats.push_back(std::move(Flat));
  }
  if (Out)
    *Out = Suite;
  return All;
}

/// The path of \p Prog's entry for (\p MC, \p Tech, \p Seed).
inline std::string entryPath(const pbt::exp::CacheStore &Store,
                             const pbt::Program &Prog,
                             const pbt::MachineConfig &MC,
                             const pbt::TechniqueSpec &Tech, uint64_t Seed) {
  return Store.pathFor(pbt::exp::CacheStore::key(
      pbt::exp::CacheStore::hashProgram(Prog), MC, Tech, Seed));
}

} // namespace pbt_test

#endif // PBT_TESTS_STOREENTRIES_H
