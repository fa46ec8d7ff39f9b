//===- support/Env.cpp - Environment-driven experiment scaling -----------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Env.h"

#include <cstdlib>

using namespace pbt;

double pbt::envScale(double Default) {
  const char *Raw = std::getenv("PBT_BENCH_SCALE");
  if (!Raw)
    return Default;
  char *End = nullptr;
  double Value = std::strtod(Raw, &End);
  if (End == Raw || !(Value > 0)) // NaN fails every comparison.
    return Default;
  if (Value < 0.01)
    return 0.01;
  if (Value > 100)
    return 100;
  return Value;
}

const char *pbt::envString(const char *Name) { return std::getenv(Name); }

int64_t pbt::envInt(const char *Name, int64_t Default) {
  const char *Raw = std::getenv(Name);
  if (!Raw)
    return Default;
  char *End = nullptr;
  long long Value = std::strtoll(Raw, &End, 10);
  if (End == Raw)
    return Default;
  return Value;
}

double pbt::envDouble(const char *Name, double Default) {
  const char *Raw = std::getenv(Name);
  if (!Raw)
    return Default;
  char *End = nullptr;
  double Value = std::strtod(Raw, &End);
  if (End == Raw)
    return Default;
  return Value;
}
