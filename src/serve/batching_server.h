#ifndef SGNN_SERVE_BATCHING_SERVER_H_
#define SGNN_SERVE_BATCHING_SERVER_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "core/run_context.h"
#include "graph/types.h"
#include "obs/trace.h"
#include "sampling/historical_cache.h"
#include "serve/admission.h"
#include "serve/frozen_model.h"
#include "serve/metrics.h"
#include "tensor/matrix.h"

namespace sgnn::serve {

/// Tuning knobs of the online inference server.
struct ServeConfig {
  /// Flush a micro-batch at this many requests...
  int max_batch = 32;
  /// ...or once the oldest request in the forming batch has waited this
  /// long, whichever comes first.
  int64_t max_delay_micros = 1000;
  /// Bound on requests queued across all tenants; submissions beyond it
  /// are rejected with `kUnavailable` (backpressure) instead of blocking.
  /// Until `admission().Configure` installs a per-tenant bound, it is
  /// also the bound of each tenant's FIFO.
  size_t queue_capacity = 1024;
  /// Serving threads. Each forms a batch only when it is free, so at most
  /// this many batches are in flight and pressure propagates back to the
  /// admission queue.
  int num_workers = 2;
  /// Embedding-cache entries older than this many flushed batches are
  /// recomputed; default accepts any staleness (weights are frozen, so
  /// cached embeddings only go stale if the graph/features change
  /// underneath the server).
  int64_t max_staleness = std::numeric_limits<int64_t>::max();
  /// Write freshly computed embeddings back into the cache.
  bool update_cache = true;
  /// Per-request time budget from `Submit`, in microseconds; 0 = none.
  /// Checked when a worker has formed the batch (expired requests are
  /// answered there and skip all embedding work) and again after the
  /// batch forward (late results are not delivered as successes). Both
  /// resolve to `kDeadlineExceeded`.
  int64_t deadline_micros = 0;
  /// Transient embedder failures (`kUnavailable`/`kAborted`) are retried
  /// under this policy; the backoff never sleeps past the request deadline.
  common::RetryPolicy embed_retry;
  /// On persistent embedder failure, serve the node's stale cache row —
  /// even beyond `max_staleness` — flagged `degraded=true`, instead of
  /// failing the request. Off: the request resolves with the error.
  bool degraded_serving = true;
  /// Consecutive embedder failures trip this breaker; while open, misses
  /// fast-fail (`kUnavailable`, or a degraded serve when possible) without
  /// calling the embedder, so a dead embedder doesn't burn worker time.
  common::CircuitBreaker::Config breaker;
};

/// Computes a node's embedding into the provided row buffer, or returns
/// why it could not (`kUnavailable`/`kAborted` are treated as transient
/// and retried; other codes are permanent). Must be thread-safe; called
/// concurrently from worker threads on cache misses.
using EmbeddingFn =
    std::function<common::Status(graph::NodeId, std::span<float>)>;

/// Online inference server: clients submit single-node classification
/// requests into the server's one queue, the multi-tenant
/// `AdmissionQueue`; `num_workers` worker threads take turns popping them
/// deficit-weighted-fair into dynamic micro-batches (flush on `max_batch`
/// or `max_delay_micros`; one batch forms at a time), and each worker
/// resolves the batch it formed by consulting the shared
/// `HistoricalEmbeddingCache` first — hits skip feature gathering and
/// propagation entirely — computing misses via the `EmbeddingFn`, and
/// running the frozen head once per batch. A request crosses one handoff:
/// from the submitting thread, through the queue, to a worker.
///
/// The first concurrent subsystem in the library: admission is lossy by
/// design (`kUnavailable` when a queue bound is hit; at most
/// `queue_capacity` requests queued plus `num_workers × max_batch` in
/// flight), shutdown drains (every admitted request is answered), and all
/// shared state is either immutable (`FrozenModel`), lock-protected
/// (cache, metrics), or thread-local (work counters).
///
/// Failure handling: every admitted request resolves to a terminal
/// `InferenceResponse.status` — its callback always runs. Embedder errors
/// are retried under `ServeConfig::embed_retry`; persistent failures degrade
/// to a stale cache row (`degraded=true`) when one exists; consecutive
/// failures trip a `CircuitBreaker` so a dead embedder fast-fails, while
/// stale-only misses still reach it as the half-open probe; and
/// per-request deadlines, counted from `Submit`, resolve to
/// `kDeadlineExceeded` — before any embedding work when the request
/// expired before its batch finished forming. The `ServeHealth` slice of
/// `Metrics()` reports all of it.
class BatchingServer {
 public:
  /// Serves `model` over `num_nodes` nodes whose embeddings `embed_fn`
  /// computes on demand. The embedding dimension is `model.in_dim()`.
  ///
  /// `ctx` carries the observability sinks and the fault injector: when
  /// `ctx.metrics` is set, every `sgnn_serve_*` series lands in that
  /// registry (else the server owns a private one); `ctx.tracer` gets a
  /// span per processed batch; `ctx.faults` is observed at site
  /// `"serve.admit"` (token = node id) so admission failures can be
  /// injected deterministically. The caller keeps the sinks alive for the
  /// server's lifetime. A default context reproduces the unobserved
  /// server exactly.
  BatchingServer(FrozenModel model, EmbeddingFn embed_fn,
                 graph::NodeId num_nodes, const ServeConfig& config,
                 const core::RunContext& ctx = core::RunContext());

  /// Drains and stops.
  ~BatchingServer();

  BatchingServer(const BatchingServer&) = delete;
  BatchingServer& operator=(const BatchingServer&) = delete;

  /// Enqueues a classification request; `done` receives its response
  /// exactly once, on a worker thread, with no server lock held. Returns
  /// OK once admitted, else `kInvalidArgument` (node out of range),
  /// `kUnavailable` when a queue bound is hit (backpressure; the
  /// caller may retry), `kResourceExhausted` when the tenant's token
  /// bucket is empty, or `kFailedPrecondition` after shutdown — and then
  /// `done` is never called. `done` runs on the serving path, so it should
  /// hand off or finish quickly. Thread-safe.
  SGNN_NODISCARD common::Status Submit(
      const InferenceRequest& request,
      std::function<void(InferenceResponse)> done);

  /// Future-returning adapter over the callback `Submit`: same admission
  /// errors, and the future carries the response.
  common::StatusOr<std::future<InferenceResponse>> Submit(
      const InferenceRequest& request);

  /// Pre-populates the embedding cache with row `u` of `embeddings` for
  /// every node (e.g. the training-time S^K X), so serving starts warm.
  void WarmCache(const tensor::Matrix& embeddings);

  /// Current metrics snapshot, including the work counters accumulated by
  /// the serving threads since construction. Also refreshes the
  /// registry-side `sgnn_serve_breaker_*` and `sgnn_serve_ops_*` gauges,
  /// so call it before scraping. Thread-safe.
  ServeMetricsSnapshot Metrics() const;

  /// Current circuit-breaker state. This is the load shedder's input
  /// signal (`serve::ShedPolicy::Decide`), cheap enough for the admission
  /// hot path — unlike `Metrics()`, which aggregates every counter.
  common::CircuitBreaker::State breaker_state() const {
    return breaker_.state();
  }

  /// The server's request queue: a front door installs its tenant policy
  /// here (`Configure`), reads its fill, and tests pause it.
  AdmissionQueue& admission() { return admission_; }

  /// Stops admissions, lets the workers answer every queued request, and
  /// joins them. Idempotent; also run by the destructor.
  void Shutdown();

  const ServeConfig& config() const { return config_; }

 private:
  /// One serving thread: form a batch under `form_mu_`, answer its
  /// expired requests, process the rest; until the queue is drained.
  void WorkerLoop() SGNN_EXCLUDES(form_mu_);
  /// Pops one micro-batch into `batch`: waits for a first request, then
  /// flushes at `max_batch` or `max_delay_micros` after it. False once the
  /// queue is closed and drained.
  bool FormBatch(std::vector<PendingRequest>* batch) SGNN_REQUIRES(form_mu_);
  void ProcessBatch(std::vector<PendingRequest>* batch);
  /// Resolves one cache miss: breaker gate, embedder with retry/backoff,
  /// degraded fallback (always allowed for a stale-only request, whose
  /// embedder call is only ever the breaker's probe). Returns OK (row
  /// written into `out`; `*degraded` set if it came from a stale cache
  /// row) or the terminal error.
  common::Status ResolveMiss(const PendingRequest& pending,
                             std::span<float> out, int64_t step,
                             bool* degraded) SGNN_EXCLUDES(cache_mu_);

  const ServeConfig config_;
  const FrozenModel model_;
  const EmbeddingFn embed_fn_;
  /// Served id universe [0, num_nodes_); immutable, so admission-time
  /// bounds checks need no lock.
  const graph::NodeId num_nodes_;

  // sgnn-lint: allow(lock/unannotated-field): internally synchronized
  // under the queue's own mutex.
  AdmissionQueue admission_;
  /// Held while a worker forms its batch: one batch forms at a time.
  common::Mutex form_mu_;

  /// Embedding cache shared across worker threads; reads take the shared
  /// lock (concurrent), writes the exclusive lock. The guard annotation
  /// makes an unlocked cache touch a compile error under Clang.
  mutable common::SharedMutex cache_mu_;
  sampling::HistoricalEmbeddingCache cache_ SGNN_GUARDED_BY(cache_mu_);
  /// Monotone batch counter: the cache's staleness clock at serve time.
  std::atomic<int64_t> step_{0};
  /// Logical latency clock: ticked once at admission and once at
  /// fulfilment, so `InferenceResponse::latency_ticks` measures program
  /// structure (how many serve events passed) rather than wall time.
  common::TickClock latency_clock_;

  /// Observability sinks from the construction-time `RunContext` (null =
  /// off); the injector is consulted at admission (`"serve.admit"`).
  obs::Tracer* const tracer_;
  common::FaultInjector* const faults_;

  ServeMetrics metrics_;
  common::CircuitBreaker breaker_;
  /// Aggregate counters at construction.
  // sgnn-lint: allow(lock/unannotated-field): written once in the
  // constructor before the workers start, read-only afterwards.
  common::OpCounters base_ops_;

  std::atomic<bool> shutdown_{false};
  // sgnn-lint: allow(lock/unannotated-field): started in the constructor,
  // joined in Shutdown(); no access in between.
  std::vector<std::thread> workers_;
};

}  // namespace sgnn::serve

#endif  // SGNN_SERVE_BATCHING_SERVER_H_
