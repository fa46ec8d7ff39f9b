//===- bench/sweep_min_size.cpp - Paper Sec. IV-C4 ------------------------===//
//
// Minimum-section-size sweep for all three strategies. Paper's shape:
// smaller minimum sizes mark more (small, frequent) sections, generally
// raising throughput potential but costing overhead and fairness; larger
// minimum sizes may miss small hot loops.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Registry.h"

using namespace pbt;
using namespace pbt::bench;

PBT_EXPERIMENT(sweep_min_size) {
  ExperimentHarness H("sweep_min_size",
                      "Sec. IV-C4: minimum section size sweep",
                      "CGO'11 Sec. IV-C4");

  struct Entry {
    Strategy Strat;
    uint32_t MinSize;
  };
  const std::vector<Entry> Entries = {
      {Strategy::BasicBlock, 10}, {Strategy::BasicBlock, 15},
      {Strategy::BasicBlock, 20}, {Strategy::Interval, 30},
      {Strategy::Interval, 45},   {Strategy::Interval, 60},
      {Strategy::Loop, 30},       {Strategy::Loop, 45},
      {Strategy::Loop, 60},
  };

  SweepGrid G;
  for (const Entry &E : Entries) {
    TransitionConfig C;
    C.Strat = E.Strat;
    C.MinSize = E.MinSize;
    G.Techniques.push_back(TechniqueSpec::tuned(C, defaultTuner(0.15)));
  }
  G.Workloads = {{/*Slots=*/18, /*Horizon=*/400 * H.scale(), /*Seed=*/44}};
  SweepResult R = H.sweep(H.lab(), G);

  Table T({"technique", "throughput %", "avg time %", "marks fired",
           "switches"});
  for (const SweepCell &Cell : R.Cells) {
    Comparison Cmp = R.comparison(Cell);
    T.addRow(
        {G.Techniques[Cell.Technique].Transition.label(),
         Table::fmt(Cmp.throughputImprovement(), 2),
         Table::fmt(Cmp.avgTimeDecrease(), 2),
         Table::fmtInt(static_cast<long long>(Cmp.Tuned.TotalMarks)),
         Table::fmtInt(static_cast<long long>(Cmp.Tuned.TotalSwitches))});
  }
  H.table(T);
  H.note("paper reference shape: smaller minimum sizes fire more "
         "marks; the balance point is mid-range (e.g. Loop[45])");
  return H.finish();
}
