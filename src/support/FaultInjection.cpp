//===- support/FaultInjection.cpp - Seeded filesystem fault seam ----------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"

#include "support/Env.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include <unistd.h>

using namespace pbt;

namespace {

double parseProbability(const std::string &Key, const std::string &Value) {
  char *End = nullptr;
  double P = std::strtod(Value.c_str(), &End);
  if (End == Value.c_str() || *End != '\0' || P < 0 || P > 1)
    throw std::invalid_argument("PBT_FAULTS: " + Key +
                                " wants a probability in [0,1], got '" +
                                Value + "'");
  return P;
}

} // namespace

FaultInjection &FaultInjection::instance() {
  static FaultInjection *FI = [] {
    FaultConfig Config;
    if (const char *Spec = envString("PBT_FAULTS"))
      if (*Spec) {
        // The first call can come from anywhere (a store op deep in a
        // gc pass, a test fixture) with no catch in sight; a typo'd
        // env var must be a clean diagnostic, never std::terminate
        // from a throwing static initializer. The spec is parsed before
        // the singleton is allocated, so the exit leaks nothing.
        try {
          Config = parse(Spec);
        } catch (const std::invalid_argument &E) {
          std::fprintf(stderr, "%s\n", E.what());
          std::exit(2);
        }
      }
    auto *I = new FaultInjection();
    I->configure(Config);
    return I;
  }();
  return *FI;
}

FaultConfig FaultInjection::parse(const std::string &Spec) {
  FaultConfig C;
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Spec.size();
    std::string Item = Spec.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    if (Item.empty())
      continue;
    size_t Eq = Item.find('=');
    if (Eq == std::string::npos)
      throw std::invalid_argument("PBT_FAULTS: expected key=value, got '" +
                                  Item + "'");
    std::string Key = Item.substr(0, Eq);
    std::string Value = Item.substr(Eq + 1);
    if (Key == "seed") {
      char *End = nullptr;
      C.Seed = std::strtoull(Value.c_str(), &End, 10);
      if (End == Value.c_str() || *End != '\0')
        throw std::invalid_argument("PBT_FAULTS: bad seed '" + Value + "'");
    } else if (Key == "eio") {
      C.EioP = parseProbability(Key, Value);
    } else if (Key == "short_write") {
      C.ShortWriteP = parseProbability(Key, Value);
    } else if (Key == "torn_rename") {
      C.TornRenameP = parseProbability(Key, Value);
    } else if (Key == "vanish") {
      C.VanishP = parseProbability(Key, Value);
    } else if (Key == "lock_open") {
      C.LockOpenP = parseProbability(Key, Value);
    } else if (Key == "crash_at") {
      size_t Colon = Value.find(':');
      C.CrashPoint = Value.substr(0, Colon);
      C.CrashAtHit = 1;
      if (Colon != std::string::npos) {
        std::string Hit = Value.substr(Colon + 1);
        char *End = nullptr;
        unsigned long N = std::strtoul(Hit.c_str(), &End, 10);
        if (End == Hit.c_str() || *End != '\0' || N == 0)
          throw std::invalid_argument("PBT_FAULTS: bad crash_at hit '" +
                                      Hit + "'");
        C.CrashAtHit = static_cast<uint32_t>(N);
      }
      if (C.CrashPoint.empty())
        throw std::invalid_argument("PBT_FAULTS: crash_at wants a point name");
    } else {
      throw std::invalid_argument("PBT_FAULTS: unknown key '" + Key + "'");
    }
  }
  return C;
}

void FaultInjection::configure(const FaultConfig &C) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Cfg = C;
  Stream = Rng(C.Seed);
  Decisions = 0;
  CrashHits = 0;
  Armed.store(Cfg.enabled(), std::memory_order_relaxed);
}

FaultConfig FaultInjection::config() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Cfg;
}

bool FaultInjection::roll(double P) {
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Decisions;
  if (P <= 0)
    return false;
  // 53-bit uniform in [0,1) from the seeded stream.
  double U = static_cast<double>(Stream.next() >> 11) * 0x1.0p-53;
  return U < P;
}

bool FaultInjection::failOp(const char *) {
  if (!armed())
    return false;
  return roll(config().EioP);
}

bool FaultInjection::truncateWrite(const char *) {
  if (!armed())
    return false;
  return roll(config().ShortWriteP);
}

bool FaultInjection::tornRename(const char *) {
  if (!armed())
    return false;
  return roll(config().TornRenameP);
}

bool FaultInjection::failLockOpen(const char *) {
  if (!armed())
    return false;
  return roll(config().LockOpenP);
}

bool FaultInjection::maybeVanish(const char *, const std::string &Path) {
  if (!armed())
    return false;
  if (!roll(config().VanishP))
    return false;
  return std::remove(Path.c_str()) == 0;
}

void FaultInjection::crashPoint(const char *Point) {
  if (!armed())
    return;
  bool Crash = false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Decisions;
    if (!Cfg.CrashPoint.empty() && Cfg.CrashPoint == Point)
      Crash = ++CrashHits == Cfg.CrashAtHit;
  }
  if (Crash) {
    // The kill -9 exit status: die without flushing buffers, running
    // atexit handlers, or unwinding — the closest in-process model of
    // a hard crash. flock(2) locks are released by the kernel.
    std::fprintf(stderr, "FaultInjection: crashing at '%s'\n", Point);
    ::_exit(137);
  }
}

uint64_t FaultInjection::decisions() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Decisions;
}
