//===- bench/Registry.cpp - Experiment registry ---------------------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Registry.h"

using namespace pbt::bench;

namespace {
std::vector<Experiment> &registry() {
  // Function-local static: safe to use from other static initializers
  // (the PBT_EXPERIMENT registrars) regardless of link order.
  static std::vector<Experiment> Experiments;
  return Experiments;
}
} // namespace

const std::vector<Experiment> &pbt::bench::experiments() {
  return registry();
}

bool pbt::bench::registerExperiment(const char *Name, ExperimentFn Fn) {
  registry().push_back({Name, Fn});
  return true;
}
