//===- bench/ablation_static_typing.cpp - Paper Sec. II-A3 ----------------===//
//
// Accuracy of the proof-of-concept static block typing (instruction mix
// + reuse-distance estimate + k-means) against the behavioural oracle,
// and its end-to-end effect. Paper claims the static analysis
// misclassifies only ~15% of loops, accurate enough that results do not
// suffer (cf. Fig. 7's error tolerance).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Registry.h"

#include "analysis/BlockTyping.h"
#include "sim/CostModel.h"

using namespace pbt;
using namespace pbt::bench;

PBT_EXPERIMENT(ablation_static_typing) {
  ExperimentHarness H("ablation_static_typing",
                      "Sec. II-A3: static typing accuracy vs oracle",
                      "CGO'11 Sec. II-A3");

  Lab &L = H.lab();
  // The baseline suite's cost models are the lab's shared per-program
  // bases on its machine.
  PreparedSuite Base = L.suite(TechniqueSpec::baseline());
  Table T({"benchmark", "blocks", "disagreement %"});
  std::vector<double> Disagreements;
  for (size_t I = 0; I < L.programs().size(); ++I) {
    const Program &Prog = L.programs()[I];
    ProgramTyping Oracle = computeOracleTyping(Prog, Base.Flats[I]->cost());
    ProgramTyping Static = computeStaticTyping(Prog, TypingConfig());
    double D = 100.0 * Static.disagreement(Oracle);
    Disagreements.push_back(D);
    T.addRow({Prog.Name,
              Table::fmtInt(static_cast<long long>(Prog.blockCount())),
              Table::fmt(D, 2)});
  }
  H.table(T);
  H.json()["mean_disagreement_pct"] = mean(Disagreements);
  std::printf("\nmean disagreement: %.2f%% (paper: ~15%% of loops "
              "misclassified)\n\n",
              mean(Disagreements));

  // End-to-end: oracle typing vs static typing under Loop[45].
  TechniqueSpec OracleTech = loop45();
  TechniqueSpec StaticTech = OracleTech;
  StaticTech.UseStaticTyping = true;

  SweepGrid G;
  G.Techniques = {OracleTech, StaticTech};
  G.Workloads = {{/*Slots=*/18, /*Horizon=*/300 * H.scale(), /*Seed=*/9}};
  SweepResult R = H.sweep(L, G);

  std::printf("end-to-end throughput improvement vs baseline:\n"
              "  oracle typing: %+.2f%%\n  static typing: %+.2f%%\n",
              R.throughputImprovement(R.Cells[0]),
              R.throughputImprovement(R.Cells[1]));
  return H.finish();
}
