//===- perfbench/Tracer.h - In-memory spans for the traced run -*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark takes around its calls into the library's layers.
/// Each span has a name, a layer, start and end, the span that caused it
/// and the replay unit it belongs to. Spans stay in memory and are
/// written once, at exit, as Chrome trace-event JSON (Perfetto and
/// chrome://tracing open it). computeLedger() folds them into wall-clock
/// seconds per layer.
///
/// With tracing disabled a Span costs one relaxed atomic load.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_PERFBENCH_TRACER_H
#define PBT_PERFBENCH_TRACER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string Name;
  std::string Layer;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1;
  int32_t Unit = -1;
  uint32_t Thread = 0;
  /// Threads that share this span's children: the pool size for a
  /// parallel fan-out, 1 when the children run one after another.
  uint32_t FanOut = 1;
  /// Seconds inside this span that belong to another layer but have no
  /// span of their own: the static pipeline running inside Lab::suite,
  /// measured by the pass manager's own clock.
  std::string EmbeddedLayer;
  double EmbeddedSeconds = 0;

  double seconds() const { return (EndNs - StartNs) * 1e-9; }
};

class Tracer {
public:
  static Tracer &global() {
    static Tracer T;
    return T;
  }

  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - Origin)
        .count();
  }

  int32_t begin(const char *Name, const char *Layer, int32_t Parent,
                int32_t Unit, uint32_t FanOut) {
    SpanRecord R;
    R.Name = Name;
    R.Layer = Layer;
    R.Parent = Parent;
    R.Unit = Unit;
    R.FanOut = FanOut;
    R.Thread = threadOrdinal();
    R.StartNs = nowNs();
    std::lock_guard<std::mutex> Lock(Mutex);
    Spans.push_back(std::move(R));
    return static_cast<int32_t>(Spans.size() - 1);
  }

  void end(int32_t Id) {
    int64_t Now = nowNs();
    std::lock_guard<std::mutex> Lock(Mutex);
    Spans[Id].EndNs = Now;
  }

  void embed(int32_t Id, const char *Layer, double Seconds) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Spans[Id].EmbeddedLayer = Layer;
    Spans[Id].EmbeddedSeconds += Seconds;
  }

  /// Spans recorded so far. Call only while no span is open on another
  /// thread (between fan-outs).
  const std::vector<SpanRecord> &spans() const { return Spans; }
  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Spans.size();
  }

  /// Writes every span as a Chrome trace "complete" event.
  bool writeChromeTrace(const std::string &Path) const {
    FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t I = 0; I < Spans.size(); ++I) {
      const SpanRecord &S = Spans[I];
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                   "\"args\":{\"id\":%zu,\"parent\":%d,\"unit\":%d}}\n",
                   I ? "," : "", S.Name.c_str(), S.Layer.c_str(),
                   S.StartNs * 1e-3, (S.EndNs - S.StartNs) * 1e-3, S.Thread,
                   I, S.Parent, S.Unit);
    }
    std::fprintf(F, "]}\n");
    return std::fclose(F) == 0;
  }

private:
  static uint32_t threadOrdinal() {
    static std::atomic<uint32_t> Next{0};
    thread_local uint32_t Mine = Next.fetch_add(1);
    return Mine;
  }

  std::atomic<bool> Enabled{false};
  std::chrono::steady_clock::time_point Origin =
      std::chrono::steady_clock::now();
  mutable std::mutex Mutex;
  std::vector<SpanRecord> Spans; ///< Guarded by Mutex while spans open.
};

/// RAII span on the global tracer; a no-op while tracing is disabled.
/// The parent defaults to the innermost span open on this thread; a
/// fan-out body passes the fan-out span explicitly, because pool
/// workers have no open span of their own.
class Span {
public:
  explicit Span(const char *Name, const char *Layer, int32_t Parent = current(),
                int32_t Unit = -1, uint32_t FanOut = 1) {
    Tracer &T = Tracer::global();
    if (!T.enabled())
      return;
    Id = T.begin(Name, Layer, Parent, Unit, FanOut);
    Saved = Current;
    Current = Id;
  }
  ~Span() {
    if (Id < 0)
      return;
    Tracer::global().end(Id);
    Current = Saved;
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  int32_t id() const { return Id; }
  /// Charges \p Seconds of this span to \p Layer (see SpanRecord).
  void embed(const char *Layer, double Seconds) {
    if (Id >= 0)
      Tracer::global().embed(Id, Layer, Seconds);
  }

  static int32_t current() { return Current; }

private:
  static inline thread_local int32_t Current = -1;
  int32_t Id = -1;
  int32_t Saved = -1;
};

/// Wall-clock seconds per layer. Every second of a root span goes to
/// exactly one layer: a span keeps what its children do not cover, and
/// inside a parallel fan-out each child counts 1/FanOut of its duration,
/// so the fan-out keeps the pool's idle share. The layers therefore sum
/// to the roots' total duration.
struct Ledger {
  std::map<std::string, double> Self;
  double Wall = 0;
};

inline Ledger computeLedger(const std::vector<SpanRecord> &Spans) {
  Ledger L;
  // A parent always begins before its children, so it has a lower index.
  std::vector<double> Weight(Spans.size(), 1.0);
  std::vector<double> Charged(Spans.size(), 0.0);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    if (S.Parent >= 0)
      Weight[I] = Weight[S.Parent] / Spans[S.Parent].FanOut;
    else
      L.Wall += S.seconds();
    double Own = Weight[I] * S.seconds();
    Charged[I] += Own;
    if (S.Parent >= 0)
      Charged[S.Parent] -= Own;
    if (S.EmbeddedSeconds > 0) {
      double Embedded = Weight[I] * S.EmbeddedSeconds;
      Charged[I] -= Embedded;
      L.Self[S.EmbeddedLayer] += Embedded;
    }
  }
  for (size_t I = 0; I < Spans.size(); ++I)
    L.Self[Spans[I].Layer] += Charged[I];
  return L;
}

} // namespace perfbench

#endif // PBT_PERFBENCH_TRACER_H
