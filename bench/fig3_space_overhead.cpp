//===- bench/fig3_space_overhead.cpp - Paper Fig. 3 -----------------------===//
//
// Space overhead of phase-mark instrumentation, as a box plot per
// technique variant over the 15-benchmark suite. Paper claims: the best
// technique (Loop[45]) stays under 4% with about 20 marks per benchmark
// of at most 78 bytes each; overhead falls as minimum size and lookahead
// depth grow.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Registry.h"

using namespace pbt;
using namespace pbt::bench;

PBT_EXPERIMENT(fig3_space_overhead) {
  ExperimentHarness H("fig3_space_overhead",
                      "Fig. 3: space overhead box plots", "CGO'11 Fig. 3");

  Lab &L = H.lab();
  Table T({"variant", "min%", "q1%", "median%", "q3%", "max%", "mean%",
           "marks/bench"});
  for (const TechniqueSpec &Tech : paperTechniques()) {
    PreparedSuite Suite = L.suite(Tech);
    std::vector<double> Overheads;
    double TotalMarks = 0;
    for (const auto &Flat : Suite.Flats) {
      const InstrumentedProgram &Image = Flat->program();
      TotalMarks += static_cast<double>(Image.marks().size());
      Overheads.push_back(Image.spaceOverheadPercent());
    }
    BoxSummary Box = summarize(Overheads);
    T.addRow({Tech.Transition.label(), Table::fmt(Box.Min),
              Table::fmt(Box.Q1), Table::fmt(Box.Median),
              Table::fmt(Box.Q3), Table::fmt(Box.Max), Table::fmt(Box.Mean),
              Table::fmt(TotalMarks / L.programs().size(), 1)});
  }
  H.table(T);
  H.note("paper reference points: Loop[45] < 4% space overhead, "
         "~20.24 marks/benchmark, <= 78 bytes/mark");
  return H.finish();
}
