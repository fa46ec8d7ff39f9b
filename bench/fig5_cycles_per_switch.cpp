//===- bench/fig5_cycles_per_switch.cpp - Paper Fig. 5 --------------------===//
//
// Average cycles of useful work per core switch, per benchmark, on a log
// scale. Paper's point: the work between switches dwarfs the ~1000-cycle
// switch cost by many orders of magnitude, so switching is amortized.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Registry.h"

#include <cmath>

using namespace pbt;
using namespace pbt::bench;

PBT_EXPERIMENT(fig5_cycles_per_switch) {
  ExperimentHarness H("fig5_cycles_per_switch",
                      "Fig. 5: average cycles per core switch (log scale)",
                      "CGO'11 Fig. 5");

  Lab &L = H.lab();
  TechniqueSpec Tech = loop45(0.2);
  uint32_t SwitchCost = L.suite(Tech).Flats[0]->program().cost().SwitchCycles;
  std::vector<CompletedJob> Jobs = L.isolatedJobs(Tech);

  Table T({"benchmark", "cycles/switch", "log10", "x switch cost"});
  for (size_t Bench = 0; Bench < Jobs.size(); ++Bench) {
    const CompletedJob &Job = Jobs[Bench];
    if (Job.Stats.CoreSwitches == 0) {
      T.addRow({L.programs()[Bench].Name, "no switches", "-", "-"});
      continue;
    }
    double PerSwitch = Job.Stats.CyclesConsumed /
                       static_cast<double>(Job.Stats.CoreSwitches);
    T.addRow({L.programs()[Bench].Name,
              Table::fmtInt(static_cast<long long>(PerSwitch)),
              Table::fmt(std::log10(PerSwitch), 2),
              Table::fmt(PerSwitch / SwitchCost, 1)});
  }
  H.table(T);
  H.json()["switch_cost_cycles"] = SwitchCost;
  H.note("switch cost: " + std::to_string(SwitchCost) +
         " cycles. paper reference: most benchmarks amortize each "
         "switch over >= 10^4 x its cost");
  return H.finish();
}
