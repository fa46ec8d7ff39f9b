//===- exp/Guard.cpp - Isolated, retried experiment execution -------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exp/Guard.h"

#include "obs/Clock.h"
#include "obs/Counters.h"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

using namespace pbt;
using namespace pbt::exp;

namespace {

/// Outcome of one attempt.
struct AttemptResult {
  bool TimedOut = false;
  bool Threw = false;
  int Rc = 0;
  std::string Error;
};

/// State shared with a timed runner thread. Heap-allocated and shared,
/// because after a timeout the detached thread outlives the caller's
/// frame and must still have somewhere valid to write its result.
struct TimedState {
  std::mutex Mutex;
  std::condition_variable Done;
  bool Finished = false;
  bool Threw = false;
  int Rc = 0;
  std::string Error;
};

/// True when \p TimeoutSeconds is a deadline the timed wait can
/// represent in nanoseconds. Zero, negative, NaN, infinite, and larger
/// timeouts (the conversion would overflow) mean no deadline. Half the
/// range leaves room for the wait to add the current time.
bool hasDeadline(double TimeoutSeconds) {
  const double MaxSeconds =
      std::chrono::duration<double>(std::chrono::nanoseconds::max()).count() /
      2;
  return TimeoutSeconds > 0 && TimeoutSeconds < MaxSeconds;
}

AttemptResult runOnce(const std::function<int()> &Fn, double TimeoutSeconds) {
  AttemptResult R;
  if (!hasDeadline(TimeoutSeconds)) {
    // No deadline: run inline; nothing to abandon, so no thread needed.
    try {
      R.Rc = Fn();
    } catch (const std::exception &E) {
      R.Threw = true;
      R.Error = E.what();
    } catch (...) {
      R.Threw = true;
      R.Error = "unknown exception";
    }
    return R;
  }

  auto State = std::make_shared<TimedState>();
  // Fn is copied into the thread: after a timeout the caller's
  // reference may die while the abandoned attempt is still running.
  std::thread Runner([State, Fn] {
    int Rc = 0;
    bool Threw = false;
    std::string Error;
    try {
      Rc = Fn();
    } catch (const std::exception &E) {
      Threw = true;
      Error = E.what();
    } catch (...) {
      Threw = true;
      Error = "unknown exception";
    }
    std::lock_guard<std::mutex> Lock(State->Mutex);
    State->Finished = true;
    State->Threw = Threw;
    State->Rc = Rc;
    State->Error = std::move(Error);
    State->Done.notify_all();
  });

  std::unique_lock<std::mutex> Lock(State->Mutex);
  bool Finished = State->Done.wait_for(
      Lock,
      std::chrono::ceil<std::chrono::nanoseconds>(
          std::chrono::duration<double>(TimeoutSeconds)),
      [&] { return State->Finished; });
  if (Finished) {
    R.Threw = State->Threw;
    R.Rc = State->Rc;
    R.Error = State->Error;
    Lock.unlock();
    Runner.join();
    return R;
  }
  // Abandon the attempt. There is no portable cooperative cancel for
  // arbitrary experiment bodies, so the thread is detached; it keeps
  // its shared state alive and exits harmlessly whenever it finishes.
  Lock.unlock();
  Runner.detach();
  R.TimedOut = true;
  return R;
}

} // namespace

const char *GuardedResult::statusName() const {
  switch (St) {
  case Status::Ok:
    return "ok";
  case Status::Failed:
    return "failed";
  case Status::Exception:
    return "exception";
  case Status::Timeout:
    return "timeout";
  }
  return "unknown";
}

GuardedResult pbt::exp::runGuarded(const std::function<int()> &Fn,
                                   const GuardOptions &Opts) {
  GuardedResult Result;
  unsigned MaxAttempts = Opts.MaxAttempts < 1 ? 1 : Opts.MaxAttempts;
  // Wall time through the vetted obs/Clock seam; DurationSeconds only
  // surfaces in artifacts excluded from byte-identity checks.
  double Start = obs::monotonicSeconds();
  obs::CounterRegistry &Reg = obs::CounterRegistry::global();

  for (unsigned Attempt = 0; Attempt < MaxAttempts; ++Attempt) {
    ++Result.Attempts;
    Reg.add("guard.attempts", 1);
    AttemptResult A = runOnce(Fn, Opts.TimeoutSeconds);
    if (A.TimedOut) {
      // The wedged attempt may still be running and mutating shared
      // caches; retrying alongside it would race, so stop here.
      Reg.add("guard.timeouts", 1);
      Result.St = GuardedResult::Status::Timeout;
      Result.ExitCode = -1;
      Result.Error.clear();
      break;
    }
    if (A.Threw) {
      Reg.add("guard.exceptions", 1);
      Result.St = GuardedResult::Status::Exception;
      Result.ExitCode = -1;
      Result.Error = std::move(A.Error);
      continue; // Retry if attempts remain.
    }
    Result.ExitCode = A.Rc;
    if (A.Rc == 0) {
      Result.St = GuardedResult::Status::Ok;
      Result.Error.clear();
      break;
    }
    Result.St = GuardedResult::Status::Failed;
    Result.Error.clear();
  }

  Result.DurationSeconds = obs::monotonicSeconds() - Start;
  return Result;
}
