#ifndef SGNN_SERVE_METRICS_H_
#define SGNN_SERVE_METRICS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/counters.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace sgnn::serve {

/// Health view of the resilience machinery: how often the server missed
/// deadlines, retried or lost embedder calls, fell back to stale cache
/// rows, and what the circuit breaker is doing. The first page of an
/// incident dashboard.
struct ServeHealth {
  uint64_t deadline_misses = 0;    ///< Requests resolved `kDeadlineExceeded`.
  uint64_t retries = 0;            ///< Embedder retry attempts (backoffs).
  uint64_t embed_failures = 0;     ///< Individual failed embedder calls.
  uint64_t degraded_serves = 0;    ///< Stale-cache fallbacks (degraded=true).
  uint64_t failed_requests = 0;    ///< Terminal non-OK responses.
  uint64_t breaker_fast_fails = 0; ///< Calls rejected by the open breaker.
  uint64_t breaker_trips = 0;      ///< Closed/half-open -> open transitions.
  const char* breaker_state = "closed";

  std::string ToString() const;
};

/// Point-in-time view of the serving metrics; everything a load test or
/// dashboard row needs, in the same work units (`OpCounters`) the training
/// side reports. Computed from the `obs::MetricsRegistry` series the
/// server writes — the snapshot and a Prometheus scrape can never
/// disagree, because they read the same counters.
struct ServeMetricsSnapshot {
  uint64_t requests_served = 0;
  uint64_t requests_rejected = 0;  ///< Backpressure (queue-full) rejections.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t batches = 0;
  double mean_batch_size = 0.0;
  uint64_t max_batch_size = 0;
  uint64_t max_queue_depth = 0;
  /// Latency percentiles in logical ticks of the server's latency clock
  /// (two ticks book-end every request; see
  /// `InferenceResponse::latency_ticks`), not wall time.
  double p50_ticks = 0.0;
  double p95_ticks = 0.0;
  double p99_ticks = 0.0;
  /// Work counters aggregated across the serving threads
  /// (`common::AggregateThreadCounters` delta since server start).
  common::OpCounters ops;
  /// Resilience counters; breaker fields are filled by the server.
  ServeHealth health;

  /// Hit fraction among served requests; 0 before any service.
  double CacheHitRate() const {
    const uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) /
                                  static_cast<double>(total);
  }

  std::string ToString() const;
};

/// Recording facade shared by the submitting threads and the serving
/// workers, backed by `obs::MetricsRegistry` series (`sgnn_serve_*`).
/// Construction registers every series in `registry` — pass the run's
/// registry so serving shows up in the same scrape as the pipeline, or
/// pass null and the facade owns a private registry (the standalone-server
/// case). Either way `Snapshot()` is a pure view over the registry
/// handles, and the latency/batch-size percentile math lives in
/// `obs::Histogram`, not here.
///
/// Every `sgnn_serve_*` series is registered `kVolatile`: admission,
/// batching, and retry counts depend on thread scheduling and wall time,
/// so they are excluded from deterministic exports by design.
///
/// Thread-safe: all handles are registry-owned atomics/histograms.
class ServeMetrics {
 public:
  explicit ServeMetrics(obs::MetricsRegistry* registry = nullptr);

  ServeMetrics(const ServeMetrics&) = delete;
  ServeMetrics& operator=(const ServeMetrics&) = delete;

  /// Records one successfully served request with its end-to-end latency
  /// in logical ticks (enqueue to response delivery, measured by the
  /// server's `common::TickClock` — no wall time, so the series carries
  /// the volatility tag only for thread-interleaving reasons), whether the
  /// embedding came from the cache fresh, and whether it was a degraded
  /// (stale-row) serve.
  void RecordRequest(int64_t latency_ticks, bool cache_hit,
                     bool degraded = false);

  void RecordRejected();

  /// Records a request resolved with a terminal non-OK status. The latency
  /// histogram tracks successful serves only; failures are counted here
  /// (`kDeadlineExceeded` also bumps `deadline_misses`, `kUnavailable`
  /// from an open breaker bumps `breaker_fast_fails`).
  void RecordTerminalFailure(common::StatusCode code, bool breaker_fast_fail);

  /// Records one embedder retry (a backoff was taken).
  void RecordRetry();

  /// Records one failed embedder call (each attempt counts).
  void RecordEmbedFailure();

  /// Records one flushed micro-batch and the queue depth observed when it
  /// was formed (the batch-size and queue-depth distributions).
  void RecordBatch(uint64_t batch_size, uint64_t queue_depth);

  ServeMetricsSnapshot Snapshot() const;

  /// The registry the series live in (the external one, or the owned
  /// fallback) — scrape it with `PrometheusText()` / `JsonText()`.
  obs::MetricsRegistry* registry() const { return registry_; }

 private:
  std::unique_ptr<obs::MetricsRegistry> owned_;  ///< When constructed null.
  obs::MetricsRegistry* registry_;

  obs::Counter* requests_served_;
  obs::Counter* requests_rejected_;
  obs::Counter* cache_hits_;
  obs::Counter* cache_misses_;
  obs::Counter* batches_;
  obs::Counter* deadline_misses_;
  obs::Counter* retries_;
  obs::Counter* embed_failures_;
  obs::Counter* degraded_serves_;
  obs::Counter* failed_requests_;
  obs::Counter* breaker_fast_fails_;
  obs::Histogram* latency_ticks_;
  obs::Histogram* batch_size_;
  obs::Gauge* max_batch_size_;
  obs::Gauge* max_queue_depth_;
};

}  // namespace sgnn::serve

#endif  // SGNN_SERVE_METRICS_H_
