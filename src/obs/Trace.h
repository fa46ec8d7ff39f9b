//===- obs/Trace.h - Deterministic simulated-time event tracing -*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plane 1 of the observability subsystem: a per-replay-unit event
/// trace of everything the simulator decided — spawns, per-quantum
/// execution windows, migrations, balance passes, policy reassignments
/// with their IPC evidence, scheduleAt injections, scenario
/// arrivals/admissions/completions — timestamped exclusively in
/// *simulated cycles* on the machine's reference core type. No value in
/// a trace may derive from wall clocks, floating-point cycle
/// accumulators, or thread scheduling, so TRACE_*.json files are
/// byte-identical across run-alone/whole-registry/cold/warm runs,
/// thread counts, and both execution engines — CI-asserted like every other
/// artifact.
///
/// The output is Chrome trace-event JSON ({"traceEvents": [...]}),
/// loadable in Perfetto / chrome://tracing: one track per core (pid 1),
/// one per process (pid 2), one scenario track (pid 3), plus a
/// "machine" track for balance/injection instants. The writer streams
/// through a small fixed buffer, so open-system runs trace in bounded
/// memory (peakBufferBytes() proves it in tests).
///
/// Zero-cost-when-off: tracing hangs off a single `TraceSink *` that is
/// nullptr unless a sink was opened; disabled hot paths pay one
/// pointer test per quantum, nothing per block. There are no virtual
/// calls — TraceSink is concrete and final.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_OBS_TRACE_H
#define PBT_OBS_TRACE_H

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

namespace pbt {
namespace obs {

/// \name Process-global trace configuration
/// Set once from PBT_TRACE=<dir> or the driver's --trace=<dir> (which
/// wins); consulted at sink-open time only.
/// @{

/// True when a trace directory is configured.
bool traceEnabled();
/// Enables tracing into \p Dir ("" disables). Creates \p Dir lazily at
/// first sink open.
void setTraceDir(const std::string &Dir);
/// The configured trace directory ("" when disabled).
std::string traceDir();
/// Names the current experiment (trace files are
/// TRACE_<experiment>.g<group>.<unit>.json) and resets the group
/// counter; called by the harness constructor.
void setTraceExperiment(const std::string &Name);
/// Reserves the next trace group id for one sweep/run of the current
/// experiment. Group ids are allocated in deterministic program order
/// (one per traced runSweep call), never concurrently.
uint64_t beginTraceGroup();

/// @}

/// Streams one replay unit's events as Chrome trace-event JSON.
/// Timestamps ("ts"/"dur") are simulated cycles on the reference core
/// type; callers convert simulated seconds via cycles(). Not
/// thread-safe: each sink belongs to exactly one replay unit, which is
/// simulated by exactly one thread.
class TraceSink final {
public:
  /// Opens the sink for \p UnitId within trace group \p Group, or
  /// returns nullptr when tracing is disabled (or the file cannot be
  /// created — tracing is best-effort and never fails a run).
  static std::unique_ptr<TraceSink> openForUnit(const std::string &UnitId,
                                                uint64_t Group);
  /// Opens a sink at an explicit path (tests).
  static std::unique_ptr<TraceSink> openAt(const std::string &Path);

  ~TraceSink();
  TraceSink(const TraceSink &) = delete;
  TraceSink &operator=(const TraceSink &) = delete;

  /// Sets the simulated-cycles-per-simulated-second timebase (the
  /// reference core type's Frequency).
  void setCyclesPerSecond(double Cps) { this->Cps = Cps; }
  /// Converts simulated seconds to trace cycles.
  double cycles(double SimSeconds) const { return SimSeconds * Cps; }

  /// \name Track metadata
  /// @{
  void coreTrack(uint32_t Core, const std::string &Label);
  void machineTrack(uint32_t Tid);
  void processTrack(uint32_t Pid, const std::string &Label);
  /// @}

  /// \name Simulated-time events (all ts in cycles)
  /// @{
  /// Process \p Pid spawned into slot \p Slot (-1 = slotless, e.g.
  /// isolated runs), initially queued on \p Core.
  void spawn(double Ts, uint32_t Pid, uint32_t Core, int32_t Slot);
  /// Process finished; \p Insts = instructions retired in total.
  void exitProcess(double Ts, uint32_t Pid, uint64_t Insts);
  /// One execution window: \p Pid ran on \p Core for \p Dur cycles of
  /// the quantum starting at \p Ts, retiring \p Insts instructions.
  /// Widths are instruction-proportional shares of the quantum, so
  /// they derive from integer counts and quantized time only.
  void window(double Ts, double Dur, uint32_t Core, uint32_t Pid,
              uint64_t Insts);
  /// Mark-triggered migration of \p Pid off \p From, re-placed on \p To.
  void migrate(double Ts, uint32_t Pid, uint32_t From, uint32_t To);
  /// Scheduler policy moved queued \p Pid from \p From to \p To; \p Ipc
  /// is the sampled-IPC evidence (0 when the policy keeps none),
  /// rounded to 4 significant digits.
  void reassign(double Ts, uint32_t Pid, uint32_t From, uint32_t To,
                double Ipc);
  /// Periodic balance pass ran.
  void balance(double Ts);
  /// A scheduleAt() injection fired.
  void inject(double Ts);
  /// Scenario arrival of benchmark \p Bench became due.
  void arrival(double Ts, uint32_t Bench);
  /// Arrival admitted: spawned as \p Pid running benchmark \p Bench.
  void admit(double Ts, uint32_t Pid, uint32_t Bench);
  /// Job completed (scenario-level; pairs with RunResult::Completed).
  void complete(double Ts, uint32_t Pid, uint32_t Bench);
  /// End of the replay: horizon reached or stop rule hit.
  void runEnd(double Ts, uint64_t Completed, uint64_t Spawned);
  /// @}

  /// Largest number of buffered-but-unwritten bytes ever held; the
  /// bounded-memory proof asserts this stays under bufferCapacity().
  size_t peakBufferBytes() const { return Peak; }
  /// The flush threshold: the buffer never grows past this plus one
  /// event.
  static size_t bufferCapacity() { return 48 * 1024; }
  /// Path this sink writes to.
  const std::string &path() const { return Path; }

private:
  TraceSink(std::FILE *Out, std::string Path);

  void appendf(const char *Fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
      __attribute__((format(printf, 2, 3)))
#endif
      ;
  void beginEvent();
  void endEvent();
  void flush();

  std::FILE *Out = nullptr;
  std::string Path;
  std::string Buf;
  bool First = true;
  size_t Peak = 0;
  double Cps = 1.0;
  uint32_t MachineTid = 0;
};

} // namespace obs
} // namespace pbt

#endif // PBT_OBS_TRACE_H
