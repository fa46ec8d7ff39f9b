//===- analysis/ProgramFacts.cpp - Technique-invariant CFG facts ----------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/ProgramFacts.h"

using namespace pbt;

ProcedureFacts pbt::computeProcedureFacts(const Procedure &P) {
  ProcedureFacts F;
  F.Dfs = runDfs(P);
  F.Preds = predecessors(P);
  F.Intervals = computeIntervals(P, F.Dfs, F.Preds);
  F.Loops = computeLoops(P, F.Dfs, F.Preds);
  return F;
}

ProgramFacts pbt::computeProgramFacts(const Program &Prog) {
  ProgramFacts Facts;
  Facts.Procs.resize(Prog.Procs.size());
  for (const Procedure &P : Prog.Procs)
    Facts.Procs[P.Id] = computeProcedureFacts(P);
  Facts.Calls = buildCallGraph(Prog);
  return Facts;
}
