//===- tests/guard_test.cpp - guarded experiment execution ----------------===//
//
// exp::runGuarded is the driver's fault boundary: these tests pin down
// the status taxonomy (ok/failed/exception) of the one inline run.

#include "exp/Guard.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace pbt;
using namespace pbt::exp;

TEST(GuardTest, CleanRunIsOk) {
  GuardedResult R = runGuarded([] { return 0; });
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.St, GuardedResult::Status::Ok);
  EXPECT_STREQ(R.statusName(), "ok");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_TRUE(R.Error.empty());
}

TEST(GuardTest, NonzeroExitIsFailedWithCode) {
  GuardedResult R = runGuarded([] { return 3; });
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.St, GuardedResult::Status::Failed);
  EXPECT_STREQ(R.statusName(), "failed");
  EXPECT_EQ(R.ExitCode, 3);
}

TEST(GuardTest, ThrownExceptionIsCapturedNotPropagated) {
  GuardedResult R = runGuarded(
      []() -> int { throw std::runtime_error("boom in experiment"); });
  EXPECT_EQ(R.St, GuardedResult::Status::Exception);
  EXPECT_STREQ(R.statusName(), "exception");
  EXPECT_EQ(R.ExitCode, -1);
  EXPECT_EQ(R.Error, "boom in experiment");
}

TEST(GuardTest, NonStdExceptionIsCapturedToo) {
  GuardedResult R = runGuarded([]() -> int { throw 42; });
  EXPECT_EQ(R.St, GuardedResult::Status::Exception);
  EXPECT_EQ(R.Error, "unknown exception");
}
