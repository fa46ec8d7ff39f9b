//===- sim/Process.cpp - Simulated process state ---------------------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Process.h"

using namespace pbt;

Process::Process(uint32_t PidIn, std::shared_ptr<const FlatImage> FlatIn,
                 TunerConfig TunerCfg, uint32_t NumCoreTypes, uint64_t Seed,
                 uint64_t AllCoresMask)
    : Pid(PidIn), Flat(std::move(FlatIn)), Gen(Seed),
      Tuner(std::max(1u, Flat->program().numTypes()), NumCoreTypes,
            TunerCfg),
      AffinityMask(AllCoresMask) {
  const Program &Prog = Flat->program().program();
  Name = Prog.Name;
  LoopRemaining.assign(Prog.blockCount(), 0);
  CallStack.reserve(32);
}
