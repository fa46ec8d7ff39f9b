//===- tests/RunIdentity.h - shared bit-identity comparator ----*- C++ -*-===//
//
// The one definition of "two replays are bit-identical": every
// aggregate stat and every completed job compared exactly, doubles
// with ==. Shared by the engine, experiment-layer, and scheduler-policy
// suites so the contract can never fork — when RunResult or
// ProcessStats grows a field, add it here and every suite enforces it.
//
//===----------------------------------------------------------------------===//

#ifndef PBT_TESTS_RUNIDENTITY_H
#define PBT_TESTS_RUNIDENTITY_H

#include "workload/Runner.h"

#include <gtest/gtest.h>

namespace pbt {

inline void expectStatsIdentical(const ProcessStats &A, const ProcessStats &B) {
  EXPECT_EQ(A.InstsRetired, B.InstsRetired);
  EXPECT_EQ(A.BlocksExecuted, B.BlocksExecuted);
  EXPECT_EQ(A.CyclesConsumed, B.CyclesConsumed);
  EXPECT_EQ(A.CpuSeconds, B.CpuSeconds);
  EXPECT_EQ(A.CoreSwitches, B.CoreSwitches);
  EXPECT_EQ(A.MarksFired, B.MarksFired);
  EXPECT_EQ(A.MonitorSessions, B.MonitorSessions);
  EXPECT_EQ(A.CounterWaits, B.CounterWaits);
  EXPECT_EQ(A.OverheadCycles, B.OverheadCycles);
}

inline void expectRunsIdentical(const RunResult &A, const RunResult &B) {
  EXPECT_EQ(A.InstructionsRetired, B.InstructionsRetired);
  EXPECT_EQ(A.TotalSwitches, B.TotalSwitches);
  EXPECT_EQ(A.TotalMarks, B.TotalMarks);
  EXPECT_EQ(A.CounterWaits, B.CounterWaits);
  EXPECT_EQ(A.TotalOverheadCycles, B.TotalOverheadCycles);
  EXPECT_EQ(A.TotalCycles, B.TotalCycles);
  ASSERT_EQ(A.CoreBusy.size(), B.CoreBusy.size());
  for (size_t I = 0; I < A.CoreBusy.size(); ++I)
    EXPECT_EQ(A.CoreBusy[I], B.CoreBusy[I]);
  ASSERT_EQ(A.Completed.size(), B.Completed.size());
  for (size_t I = 0; I < A.Completed.size(); ++I) {
    EXPECT_EQ(A.Completed[I].Bench, B.Completed[I].Bench);
    EXPECT_EQ(A.Completed[I].Slot, B.Completed[I].Slot);
    EXPECT_EQ(A.Completed[I].Arrival, B.Completed[I].Arrival);
    EXPECT_EQ(A.Completed[I].Admitted, B.Completed[I].Admitted);
    EXPECT_EQ(A.Completed[I].Completion, B.Completed[I].Completion);
    expectStatsIdentical(A.Completed[I].Stats, B.Completed[I].Stats);
  }
}

} // namespace pbt

#endif // PBT_TESTS_RUNIDENTITY_H
