//===- analysis/ProgramFacts.h - Technique-invariant CFG facts --*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The control-flow facts every phase-marking strategy reads, computed
/// once per program: per procedure the DFS, predecessor lists, interval
/// partition and natural loops, and the program's call graph. None of
/// them depends on the typing or the transition configuration, so one
/// ProgramFacts serves every technique prepared on the same program
/// (workload/Runner's shared program base).
///
//===----------------------------------------------------------------------===//

#ifndef PBT_ANALYSIS_PROGRAMFACTS_H
#define PBT_ANALYSIS_PROGRAMFACTS_H

#include "analysis/CallGraph.h"
#include "analysis/CfgAlgorithms.h"
#include "analysis/Intervals.h"
#include "analysis/NaturalLoops.h"
#include "ir/Program.h"

#include <cstdint>
#include <vector>

namespace pbt {

/// CFG facts of one procedure. Dfs.Postorder read backwards is the
/// reverse postorder.
struct ProcedureFacts {
  CfgDfsResult Dfs;
  /// predecessors() of the procedure.
  std::vector<std::vector<uint32_t>> Preds;
  IntervalPartition Intervals;
  LoopInfo Loops;
};

/// CFG facts of a whole program.
struct ProgramFacts {
  /// Per procedure, indexed by procedure id.
  std::vector<ProcedureFacts> Procs;
  CallGraph Calls;
};

/// Computes the facts of \p P: one DFS and one predecessor sweep feed
/// the intervals and the loops.
ProcedureFacts computeProcedureFacts(const Procedure &P);

/// Computes the facts of every procedure of \p Prog and its call graph.
ProgramFacts computeProgramFacts(const Program &Prog);

} // namespace pbt

#endif // PBT_ANALYSIS_PROGRAMFACTS_H
