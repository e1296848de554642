#ifndef SGNN_OBS_TRACE_H_
#define SGNN_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "common/timer.h"

namespace sgnn::obs {

/// `sgnn::obs` tracing: nestable, thread-safe spans recorded into a
/// lock-sharded in-memory buffer, exportable as Chrome `trace_event` JSON
/// (load the string in `chrome://tracing` / Perfetto).
///
/// Timestamps are *logical ticks* from a per-tracer `common::TickClock`,
/// never wall time: a tick is taken when a span opens and when it closes,
/// so nesting and ordering are exact, and a seeded single-threaded run
/// exports byte-identical JSON every time (the property the golden tests
/// pin). Ticks measure program structure — how many traced boundaries
/// passed — not seconds; pair the trace with registry metrics when you
/// need wall time.

/// One closed span. `track` is a small per-tracer thread index (the
/// `tid` lane in the Chrome viewer), assigned in first-use order.
struct TraceEvent {
  std::string name;
  std::string category;
  uint64_t begin_tick = 0;
  uint64_t end_tick = 0;
  int track = 0;
};

class Tracer;

/// RAII scope: opens on construction (via `Tracer::Span` or the null-safe
/// `StartSpan`), records its event when destroyed or `End()`ed. Movable,
/// not copyable; a default-constructed span is inert, which is how
/// untraced runs (`tracer == nullptr`) cost nothing but two branches.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(TraceSpan&& other) noexcept { *this = std::move(other); }
  TraceSpan& operator=(TraceSpan&& other) noexcept;
  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Closes the span now (idempotent; the destructor calls it too).
  void End();

  bool active() const { return tracer_ != nullptr; }

 private:
  friend class Tracer;
  TraceSpan(Tracer* tracer, std::string name, std::string category);

  Tracer* tracer_ = nullptr;
  std::string name_;
  std::string category_;
  uint64_t begin_tick_ = 0;
  int track_ = 0;
};

/// Span recorder. Concurrent spans append to `num_shards` independently
/// locked buffers (sharded by the recording thread's track id), so tracing
/// a hot multi-threaded path serialises on a shard, not on the tracer.
class Tracer {
 public:
  explicit Tracer(int num_shards = 8);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span; it records itself when it goes out of scope.
  TraceSpan Span(std::string name, std::string category = "");

  /// All recorded events, merged across shards and sorted by begin tick
  /// (ticks are unique, so the order is total and deterministic).
  std::vector<TraceEvent> Events() const;

  uint64_t NumEvents() const;

  /// Chrome `trace_event` JSON (array-of-complete-events form): one
  /// `"ph":"X"` entry per span with `ts`/`dur` in logical ticks. Byte
  /// deterministic for a deterministic span sequence.
  std::string ChromeTraceJson() const;

 private:
  friend class TraceSpan;

  uint64_t Tick() { return clock_.Next(); }
  /// Stable small id for the calling thread (assigned on first use).
  int TrackId();
  void Record(TraceEvent event);

  struct Shard {
    mutable common::Mutex mu;
    std::vector<TraceEvent> events SGNN_GUARDED_BY(mu);
  };

  common::TickClock clock_;
  // sgnn-lint: allow(lock/unannotated-field): sized at construction and
  // never resized; each shard's mutable state is guarded by Shard::mu.
  std::vector<std::unique_ptr<Shard>> shards_;
  common::Mutex track_mu_;
  int next_track_ SGNN_GUARDED_BY(track_mu_) = 0;
};

/// Null-safe span factory: an inert span when `tracer` is null, so call
/// sites instrument unconditionally and pay nothing when tracing is off.
inline TraceSpan StartSpan(Tracer* tracer, std::string name,
                           std::string category = "") {
  if (tracer == nullptr) return TraceSpan();
  return tracer->Span(std::move(name), std::move(category));
}

/// Escapes `s` for a JSON string literal: quotes, backslash, and every
/// control character (`\n`, `\r`, `\t`, else `\u00XX`). The one JSON
/// escaper, shared by the trace export and `sgnn::net`'s HTTP bodies.
std::string JsonEscape(std::string_view s);

}  // namespace sgnn::obs

#endif  // SGNN_OBS_TRACE_H_
