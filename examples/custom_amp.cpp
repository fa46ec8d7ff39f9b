//===- examples/custom_amp.cpp - Tune once, run anywhere ------------------===//
//
// The paper's portability claim in action: instrument a program ONCE
// (no machine knowledge baked into the marks) and run the same image on
// three different asymmetric machines, including a custom one defined
// right here. The dynamic analysis re-learns core assignments on each.
//
//===----------------------------------------------------------------------===//

#include "metrics/Fairness.h"
#include "workload/Benchmarks.h"
#include "workload/Runner.h"

#include <cstdio>

using namespace pbt;

int main() {
  // One instrumented image, prepared without reference to any target
  // machine's shape (the typing oracle just needs *an* asymmetric
  // reference; the marks carry only phase-type ids).
  Program Prog = buildBenchmark(specSuite()[5]); // 183.equake.
  std::vector<Program> One{Prog};
  TransitionConfig Loop45;
  Loop45.Strat = Strategy::Loop;
  Loop45.MinSize = 45;
  TunerConfig Tuner;
  Tuner.IpcDelta = 0.15;
  PreparedSuite Suite = prepareSuite(One, MachineConfig::quadAsymmetric(),
                                     TechniqueSpec::tuned(Loop45, Tuner));
  // The instrumented image, held through the quad's flat image.
  std::shared_ptr<const InstrumentedProgram> Image(
      Suite.Flats[0], &Suite.Flats[0]->program());
  std::printf("instrumented %s once: %zu marks, %.2f%% space overhead\n\n",
              Prog.Name.c_str(), Image->marks().size(),
              Image->spaceOverheadPercent());

  // A custom machine: one fast core, three slow cores, all sharing L2s
  // in pairs, with the slow cores clocked even lower.
  MachineConfig Custom;
  Custom.CoreTypes = {{"fast", 2.4e6, 4096}, {"slow", 1.2e6, 4096}};
  Custom.Cores = {{0, 0}, {1, 0}, {1, 1}, {1, 1}};

  struct Target {
    const char *Name;
    MachineConfig Config;
  };
  std::vector<Target> Targets = {
      {"paper quad (2x2.4 + 2x1.6)", MachineConfig::quadAsymmetric()},
      {"paper sec-VII 3-core (2f+1s)", MachineConfig::threeCore()},
      {"custom (1x2.4 + 3x1.2)", Custom},
  };

  for (const Target &T : Targets) {
    // The cost model is the physics of the target machine; the image is
    // unchanged.
    auto Flat = std::make_shared<const FlatImage>(
        Image, std::make_shared<const CostModel>(Prog, T.Config));
    Machine M(T.Config, SimConfig(), std::make_unique<ObliviousScheduler>());
    uint32_t Pid = M.spawn(Flat, Tuner, 11);
    while (M.process(Pid).CompletionTime < 0)
      M.run(M.now() + 64);
    const Process &P = M.process(Pid);
    std::printf("%-30s finished in %6.2f s, %4llu switches, "
                "assignments:", T.Name,
                P.CompletionTime,
                static_cast<unsigned long long>(P.Stats.CoreSwitches));
    for (uint32_t Phase = 0; Phase < P.Tuner.numPhaseTypes(); ++Phase) {
      int32_t A = P.Tuner.assignment(Phase);
      std::printf(" phase%u->%s", Phase,
                  A < 0 ? "?" : T.Config.CoreTypes[A].Name.c_str());
    }
    std::printf("\n");
  }
  std::printf("\nthe same binary adapts its section-to-core mapping to "
              "each machine at runtime - no re-tuning, no recompilation\n");
  return 0;
}
