//===- tests/guard_test.cpp - guarded experiment execution ----------------===//
//
// exp::runGuarded is the driver's fault boundary: these tests pin down
// the status taxonomy (ok/failed/exception/timeout), the bounded retry
// loop, and the rule that a timeout abandons the attempt and never
// retries alongside a possibly-still-running body.

#include "exp/Guard.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

using namespace pbt;
using namespace pbt::exp;

TEST(GuardTest, CleanRunIsOkFirstAttempt) {
  GuardedResult R = runGuarded([] { return 0; }, GuardOptions());
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.St, GuardedResult::Status::Ok);
  EXPECT_STREQ(R.statusName(), "ok");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Attempts, 1u);
  EXPECT_TRUE(R.Error.empty());
}

TEST(GuardTest, NonzeroExitIsFailedWithCode) {
  GuardedResult R = runGuarded([] { return 3; }, GuardOptions());
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.St, GuardedResult::Status::Failed);
  EXPECT_STREQ(R.statusName(), "failed");
  EXPECT_EQ(R.ExitCode, 3);
  EXPECT_EQ(R.Attempts, 1u);
}

TEST(GuardTest, ThrownExceptionIsCapturedNotPropagated) {
  GuardedResult R = runGuarded(
      []() -> int { throw std::runtime_error("boom in experiment"); },
      GuardOptions());
  EXPECT_EQ(R.St, GuardedResult::Status::Exception);
  EXPECT_STREQ(R.statusName(), "exception");
  EXPECT_EQ(R.Error, "boom in experiment");
  EXPECT_EQ(R.Attempts, 1u);
}

TEST(GuardTest, NonStdExceptionIsCapturedToo) {
  GuardedResult R =
      runGuarded([]() -> int { throw 42; }, GuardOptions());
  EXPECT_EQ(R.St, GuardedResult::Status::Exception);
  EXPECT_EQ(R.Error, "unknown exception");
}

TEST(GuardTest, TransientFailureSucceedsOnRetry) {
  GuardOptions Opts;
  Opts.MaxAttempts = 3;
  auto Calls = std::make_shared<std::atomic<int>>(0);
  // Fails once (exception), then once (nonzero), then succeeds: the
  // retry loop must cover both failure kinds.
  GuardedResult R = runGuarded(
      [Calls]() -> int {
        int N = ++*Calls;
        if (N == 1)
          throw std::runtime_error("transient");
        return N == 2 ? 7 : 0;
      },
      Opts);
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.Attempts, 3u);
  EXPECT_EQ(Calls->load(), 3);
  EXPECT_TRUE(R.Error.empty()) << "a later success clears earlier errors";
}

TEST(GuardTest, AttemptsAreBounded) {
  GuardOptions Opts;
  Opts.MaxAttempts = 3;
  auto Calls = std::make_shared<std::atomic<int>>(0);
  GuardedResult R = runGuarded(
      [Calls]() -> int {
        ++*Calls;
        return 9;
      },
      Opts);
  EXPECT_EQ(R.St, GuardedResult::Status::Failed);
  EXPECT_EQ(R.ExitCode, 9);
  EXPECT_EQ(R.Attempts, 3u);
  EXPECT_EQ(Calls->load(), 3);
}

TEST(GuardTest, ZeroMaxAttemptsStillRunsOnce) {
  GuardOptions Opts;
  Opts.MaxAttempts = 0; // Nonsense in, one attempt out.
  GuardedResult R = runGuarded([] { return 0; }, Opts);
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.Attempts, 1u);
}

TEST(GuardTest, WedgedBodyTimesOut) {
  GuardOptions Opts;
  Opts.TimeoutSeconds = 0.05;
  Opts.MaxAttempts = 5;
  auto Calls = std::make_shared<std::atomic<int>>(0);
  GuardedResult R = runGuarded(
      [Calls]() -> int {
        ++*Calls;
        std::this_thread::sleep_for(std::chrono::seconds(5));
        return 0;
      },
      Opts);
  EXPECT_EQ(R.St, GuardedResult::Status::Timeout);
  EXPECT_STREQ(R.statusName(), "timeout");
  EXPECT_EQ(R.Attempts, 1u)
      << "a timeout must NOT retry alongside the abandoned attempt";
  EXPECT_EQ(Calls->load(), 1);
  EXPECT_GE(R.DurationSeconds, 0.05);
  EXPECT_LT(R.DurationSeconds, 4.0) << "the guard must not wait the body out";
}

TEST(GuardTest, FastBodyUnderTimeoutStillOk) {
  // Infinite, NaN, and huge timeouts mean no deadline: they must not
  // overflow the clock conversion into an instant timeout.
  for (double Timeout : {30.0, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(), 1e300}) {
    GuardOptions Opts;
    Opts.TimeoutSeconds = Timeout;
    GuardedResult R = runGuarded([] { return 0; }, Opts);
    EXPECT_TRUE(R.ok()) << "timeout " << Timeout << ": " << R.statusName();
    EXPECT_EQ(R.Attempts, 1u) << "timeout " << Timeout;
  }
}

TEST(GuardTest, TimedPathStillRetriesOrdinaryFailures) {
  GuardOptions Opts;
  Opts.TimeoutSeconds = 30; // Timed path (runner thread), but no wedge.
  Opts.MaxAttempts = 2;
  auto Calls = std::make_shared<std::atomic<int>>(0);
  GuardedResult R = runGuarded(
      [Calls]() -> int { return ++*Calls == 1 ? 5 : 0; }, Opts);
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.Attempts, 2u);
}
