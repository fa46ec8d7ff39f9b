//===- exp/SuiteCache.cpp - Content-addressed prepared-suite cache --------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exp/SuiteCache.h"

#include "exp/CacheStore.h"
#include "obs/Span.h"
#include "support/Hashing.h"
#include "support/ThreadPool.h"

#include <stdexcept>

using namespace pbt;
using namespace pbt::exp;

void SuiteCache::setStore(std::shared_ptr<CacheStore> StoreIn) {
  Store = std::move(StoreIn);
}

void SuiteCache::checkProgramSet(const std::vector<Program> &Programs) {
  std::vector<ProgramShape> Set;
  Set.reserve(Programs.size());
  for (const Program &Prog : Programs)
    Set.emplace_back(Prog.Name, Prog.blockCount(), Prog.instructionCount());
  if (!Shapes)
    Shapes = std::move(Set);
  else if (Set != *Shapes)
    throw std::invalid_argument(
        "SuiteCache::get: program set differs from the one this cache "
        "serves");
}

const std::vector<uint64_t> &
SuiteCache::programHashes(const std::vector<Program> &Programs) {
  if (ProgramHashes.empty()) {
    ProgramHashes.resize(Programs.size());
    ThreadPool::global().parallelFor(Programs.size(), [&](size_t I) {
      ProgramHashes[I] = CacheStore::hashProgram(Programs[I]);
    });
  }
  return ProgramHashes;
}

PreparedSuite SuiteCache::get(const std::vector<Program> &Programs,
                              const MachineConfig &Machine,
                              const TechniqueSpec &Tech,
                              uint64_t TypingSeed) {
  checkProgramSet(Programs);
  uint64_t Key = hashCombine(Tech.preparationHash(), hashValue(Machine));
  Key = hashCombine(Key, TypingSeed);

  std::vector<Entry> &Bucket = Buckets[Key];
  for (const Entry &E : Bucket) {
    if (E.TypingSeed == TypingSeed && E.Tech.samePreparation(Tech) &&
        E.Machine == Machine) {
      ++Hits;
      PreparedSuite Suite = *E.Suite; // Shares the immutable images.
      Suite.Tuner = Tech.Tuner;
      return Suite;
    }
  }
  ++Misses;

  // Load-through: probe the persistent tier per program, then run the
  // static pipeline only over the programs it could not serve (all of
  // them without a store). Adding one benchmark to an otherwise-cached
  // suite prepares exactly that benchmark, and programs shared with
  // other suites are reused regardless of which suite wrote them.
  // The probes run on the pool, each binding its program's base as the
  // cost-model stage does. programHashes fills a member on first use, so
  // it runs before the fan-out.
  auto Suite = std::make_shared<PreparedSuite>();
  std::vector<std::shared_ptr<const FlatImage>> &Flats = Suite->Flats;
  Flats.resize(Programs.size());
  if (Store) {
    const std::vector<uint64_t> &Hashes = programHashes(Programs);
    ThreadPool::global().parallelFor(Programs.size(), [&](size_t I) {
      Flats[I] = Store->loadProgram(Programs[I], Hashes[I], Machine, Tech,
                                    TypingSeed);
    });
  }
  std::vector<size_t> Missing;
  for (size_t I = 0; I < Programs.size(); ++I)
    if (!Flats[I])
      Missing.push_back(I);
  size_t Served = Programs.size() - Missing.size();
  ProgramStoreHits += Served;

  if (Store && Missing.empty()) {
    ++StoreHits;
  } else {
    std::vector<Program> Subset;
    if (Served > 0)
      for (size_t I : Missing)
        Subset.push_back(Programs[I]);
    obs::Span Prep("suite_cache.prepare");
    std::vector<std::shared_ptr<const FlatImage>> Fresh = preparePrograms(
        Served > 0 ? Subset : Programs, Machine, Tech, TypingSeed);
    for (size_t J = 0; J < Missing.size(); ++J)
      Flats[Missing[J]] = std::move(Fresh[J]);
    ++Prepared;
    PreparedPrograms += Missing.size();
  }

  for (const Program &Prog : Programs)
    Suite->Names.push_back(Prog.Name);

  // Write back what the store was missing, as one batch, so later
  // processes (or labs over the same programs) skip it.
  if (Store && !Missing.empty()) {
    std::vector<CacheStore::SaveItem> Batch;
    for (size_t I : Missing)
      Batch.push_back({ProgramHashes[I], Flats[I].get()});
    Store->savePrograms(Batch, Machine, Tech, TypingSeed);
  }

  // Freshly prepared programs are verified inside the pipeline when
  // verify-IR is on; store-served artifacts get the same static audit
  // here, so a corrupt or stale disk entry can never reach a
  // simulation unchecked.
  if (Served > 0 && verifyIREnabled()) {
    std::string Error;
    if (!verifyPrepared(*Suite, Machine, &Error))
      throw std::runtime_error("verify-ir: store-served suite failed: " +
                               Error);
  }

  Entry E;
  E.Tech = Tech;
  E.Machine = Machine;
  E.TypingSeed = TypingSeed;
  E.Suite = Suite;
  Bucket.push_back(E);
  PreparedSuite Out = *Suite;
  Out.Tuner = Tech.Tuner;
  return Out;
}

size_t SuiteCache::size() const {
  size_t N = 0;
  for (const auto &KV : Buckets)
    N += KV.second.size();
  return N;
}

void SuiteCache::clear() {
  Buckets.clear();
  Hits = 0;
  Misses = 0;
  StoreHits = 0;
  Prepared = 0;
  PreparedPrograms = 0;
  ProgramStoreHits = 0;
}
