#ifndef SGNN_SERVE_ADMISSION_H_
#define SGNN_SERVE_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "graph/types.h"

namespace sgnn::serve {

/// One classification request: the single admission currency of the
/// serving tier. The in-process `BatchingServer::Submit` path and the HTTP
/// front door (`sgnn::net`) both build exactly this struct, so quotas,
/// fair scheduling, and shedding reason about one shape.
struct InferenceRequest {
  InferenceRequest() = default;
  /// Bare single-node request: default tenant, inherited deadline.
  explicit InferenceRequest(graph::NodeId node_in) : node(node_in) {}

  graph::NodeId node = 0;
  /// Tenant the request bills to; per-tenant quotas and weighted-fair
  /// dequeue key on it. Empty = the anonymous default tenant. The server
  /// itself only echoes it into the response.
  std::string tenant_id;
  /// Per-request time budget in microseconds from submission; 0 = inherit
  /// `ServeConfig::deadline_micros`.
  int64_t deadline_micros = 0;
  /// Degraded-tier request (set by the load shedder's stale tier): serve
  /// the node's cached row at *any* staleness, and call the embedder only
  /// as the breaker's half-open probe; resolves `kUnavailable` when
  /// neither yields a row.
  bool stale_only = false;
};

/// Answer to a single-node classification request. Every admitted request
/// receives exactly one response; `status` says whether `logits` is
/// meaningful. Terminal statuses: OK (fresh or degraded serve),
/// `kDeadlineExceeded` (time budget blown), `kUnavailable` (breaker open /
/// embedder down with no fallback row / stale-only miss), or the
/// embedder's own permanent error.
struct InferenceResponse {
  common::Status status;
  graph::NodeId node = 0;
  std::string tenant_id;            ///< Echoed from the request.
  std::vector<float> logits;        ///< Empty unless `status.ok()`.
  int predicted_class = 0;
  bool cache_hit = false;           ///< Embedding came from the cache fresh.
  bool degraded = false;            ///< Served from a stale cache row after
                                    ///< the fresh path failed, or because
                                    ///< the request was stale-only.
  /// Enqueue-to-fulfilment latency in logical ticks of the server's
  /// `common::TickClock` (one tick per admission/fulfilment event, no wall
  /// time), so the serve latency series honour the obs determinism tags.
  int64_t latency_ticks = 0;
};

/// An admitted request as it waits in the `AdmissionQueue`: the caller's
/// request plus what the server attached at admission.
struct PendingRequest {
  InferenceRequest request;
  /// Receives the response exactly once.
  std::function<void(InferenceResponse)> done;
  uint64_t enqueue_tick = 0;  ///< Server latency-clock tick at admission.
  common::Deadline deadline;  ///< Infinite when no deadline applies.
};

/// Degradation ladder applied to an admitted request, in order of
/// increasing desperation: serve exactly, serve the cached row at any
/// staleness (`InferenceRequest::stale_only`), or reject outright.
enum class ShedTier { kExact = 0, kStale = 1, kReject = 2 };

const char* ShedTierName(ShedTier tier);

/// Per-tenant admission parameters.
struct TenantQuota {
  /// Relative fair share under saturation: a tenant with weight 2 drains
  /// twice as fast as one with weight 1 while both are backlogged.
  double weight = 1.0;
  /// Token-bucket burst size; each admitted request spends one token and
  /// an empty bucket rejects with `kResourceExhausted` (HTTP 429). The
  /// default is effectively unlimited — quotas are opt-in.
  double bucket_capacity = 1e18;
  /// Tokens granted back per dispatch event anywhere in the queue (a
  /// counting clock, not a wall clock): a tenant capped at
  /// `refill_per_dispatch = 0.5` can sustain at most half the total
  /// dispatch rate regardless of its weight.
  double refill_per_dispatch = 0.0;
};

/// Maps (breaker state, queue fill) to the shed tier. Counting-based and
/// pure, so the exact → stale → reject walk is reproducible in tests.
struct ShedPolicy {
  /// Queue fill fraction at or above which an open breaker escalates from
  /// stale serving to outright rejection.
  double reject_fill = 0.5;

  /// Breaker closed → `kExact`. Open or half-open (the embedder is
  /// presumed down) → `kStale`, so cached rows keep flowing without
  /// burning worker time. Open *and* the admission queues at least
  /// `reject_fill` full → `kReject`: the backlog cannot drain through a
  /// dead embedder, so new work is turned away at the door.
  ShedTier Decide(common::CircuitBreaker::State breaker, double fill) const;

  /// The front door's tier step: `Decide`, then mark `request` stale-only
  /// on `kStale`, or fail `kUnavailable` on `kReject`. Returns the tier
  /// applied.
  common::StatusOr<ShedTier> Apply(common::CircuitBreaker::State breaker,
                                   double fill,
                                   InferenceRequest* request) const;
};

struct AdmissionConfig {
  /// Known tenants and their quotas; tenants not listed here are created
  /// on first use with `default_quota`.
  std::map<std::string, TenantQuota> tenants;
  TenantQuota default_quota;
  /// Bound of each tenant's FIFO; `Offer` rejects `kUnavailable` beyond it
  /// (per-tenant backpressure — one flooding tenant fills its own queue,
  /// not its neighbours').
  size_t per_tenant_capacity = 256;
  /// DWRR quantum: deficit granted per visit is `quantum * weight`. One
  /// unit of deficit buys one request.
  double quantum = 1.0;
  /// Read by the front door before it submits; the queue never sheds.
  ShedPolicy shed;
  /// Record the tenant-id sequence of every dispatch (test/bench hook for
  /// exact fairness assertions; unbounded, so off by default).
  bool record_dispatch_log = false;
};

/// The serving tier's one request queue, owned by the `BatchingServer`.
/// `Offer` (any thread) charges the tenant's token bucket and enqueues
/// into the tenant's FIFO under the per-tenant and total bounds; `Pop`
/// (the server's worker forming a batch) dequeues deficit-weighted-fair
/// across tenants.
///
/// Everything is counting-based — token buckets refill per *dispatch
/// event*, and DWRR deficits advance per pop — so the queue is
/// deterministic given the offer/pop sequence (no wall clock), which is
/// what makes the fairness tests exact instead of statistical.
class AdmissionQueue {
 public:
  /// `total_capacity` bounds the requests queued across all tenants.
  explicit AdmissionQueue(
      const AdmissionConfig& config,
      size_t total_capacity = std::numeric_limits<size_t>::max());

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Replaces tenants, quotas, weights, the per-tenant bound, the quantum
  /// and the dispatch-log switch; the total bound stays. Fails
  /// `kFailedPrecondition` once any request has been offered, so no
  /// request sees two policies.
  common::Status Configure(const AdmissionConfig& config);

  /// Queues `item` under its tenant. Failures: `kFailedPrecondition`
  /// (after `Close`), `kResourceExhausted` (token bucket empty),
  /// `kUnavailable` (the tenant's FIFO or the total bound is full).
  common::Status Offer(PendingRequest item);

  /// Dequeues the next request by deficit-weighted round-robin over the
  /// backlogged tenants, waiting up to `timeout_micros`. False on timeout
  /// or when closed and fully drained. Also advances the token-bucket
  /// refill clock by one dispatch event.
  bool Pop(PendingRequest* out, int64_t timeout_micros);

  /// While paused, `Pop` blocks (offers still queue): the saturation
  /// switch for fairness tests and the soak bench.
  void Pause();
  void Resume();

  /// Rejects future offers, ends a `Pause` and wakes the popper; queued
  /// requests remain poppable (drain-then-stop).
  void Close();

  size_t TotalQueued() const;
  /// Closed and empty: `Pop` will never return a request again.
  bool Drained() const;
  /// Queue fill fraction over all currently known tenants, in [0, 1]:
  /// queued requests over the smaller of the total bound and the sum of
  /// the per-tenant bounds.
  double FillFraction() const;

  /// Tenant-id sequence of every dispatch so far (empty unless
  /// `record_dispatch_log`).
  std::vector<std::string> DispatchLog() const;

 private:
  struct Tenant {
    explicit Tenant(const TenantQuota& q)
        : quota(q), tokens(q.bucket_capacity) {}
    const TenantQuota quota;
    // sgnn-lint: allow(lock/unannotated-field): guarded by the owning
    // AdmissionQueue's mu_; the annotation cannot name an outer mutex.
    double tokens;
    // sgnn-lint: allow(lock/unannotated-field): guarded by the owning
    // AdmissionQueue's mu_ (the tenant's FIFO).
    std::deque<PendingRequest> queue;
    // sgnn-lint: allow(lock/unannotated-field): guarded by the owning
    // AdmissionQueue's mu_ (DWRR state).
    double deficit = 0.0;
  };

  void ResetTenants() SGNN_REQUIRES(mu_);
  Tenant& TenantFor(const std::string& id) SGNN_REQUIRES(mu_);
  /// One DWRR pop attempt over the current tenant map; false when every
  /// queue is empty.
  bool TryDwrrPop(PendingRequest* out) SGNN_REQUIRES(mu_);
  double FillFractionLocked() const SGNN_REQUIRES(mu_);

  const size_t total_capacity_;

  mutable common::Mutex mu_;
  std::condition_variable_any cv_;
  AdmissionConfig config_ SGNN_GUARDED_BY(mu_);
  /// Sorted by tenant id: DWRR visits tenants in deterministic key order.
  std::map<std::string, std::unique_ptr<Tenant>> tenants_ SGNN_GUARDED_BY(mu_);
  /// Requests queued across all tenants.
  size_t queued_ SGNN_GUARDED_BY(mu_) = 0;
  /// DWRR cursor: id of the tenant the next visit starts at ("" = first).
  std::string cursor_ SGNN_GUARDED_BY(mu_);
  /// Whether the cursor's tenant already received its per-visit deficit
  /// grant (a grant happens once per arrival, not once per pop).
  bool cursor_granted_ SGNN_GUARDED_BY(mu_) = false;
  bool offered_ SGNN_GUARDED_BY(mu_) = false;
  bool paused_ SGNN_GUARDED_BY(mu_) = false;
  bool closed_ SGNN_GUARDED_BY(mu_) = false;
  std::vector<std::string> dispatch_log_ SGNN_GUARDED_BY(mu_);
};

}  // namespace sgnn::serve

#endif  // SGNN_SERVE_ADMISSION_H_
