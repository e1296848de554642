#include "serve/batching_server.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/counters.h"

namespace sgnn::serve {

using Clock = std::chrono::steady_clock;

namespace {

/// The queue's policy until a front door installs one: every tenant may
/// fill the whole queue, so in-process callers see the one bound
/// `queue_capacity`.
AdmissionConfig SingleBound(size_t capacity) {
  AdmissionConfig config;
  config.per_tenant_capacity = capacity;
  return config;
}

/// A response addressed to `pending`, its latency read off `clock`.
InferenceResponse ResponseFor(PendingRequest* pending,
                              common::TickClock* clock) {
  InferenceResponse response;
  response.node = pending->request.node;
  response.tenant_id = std::move(pending->request.tenant_id);
  response.latency_ticks =
      static_cast<int64_t>(clock->Next() - pending->enqueue_tick);
  return response;
}

}  // namespace

BatchingServer::BatchingServer(FrozenModel model, EmbeddingFn embed_fn,
                               graph::NodeId num_nodes,
                               const ServeConfig& config,
                               const core::RunContext& ctx)
    : config_(config),
      model_(std::move(model)),
      embed_fn_(std::move(embed_fn)),
      num_nodes_(num_nodes),
      admission_(SingleBound(config.queue_capacity), config.queue_capacity),
      cache_(num_nodes, model_.in_dim()),
      tracer_(ctx.tracer),
      faults_(ctx.faults),
      metrics_(ctx.metrics),
      breaker_(config.breaker) {
  SGNN_CHECK_GE(config.max_batch, 1);
  SGNN_CHECK_GE(config.max_delay_micros, 0);
  SGNN_CHECK_GE(config.num_workers, 1);
  SGNN_CHECK_GE(config.max_staleness, 0);
  SGNN_CHECK_GE(config.deadline_micros, 0);
  SGNN_CHECK_GE(config.embed_retry.max_attempts, 1);
  SGNN_CHECK(embed_fn_ != nullptr);
  base_ops_ = common::AggregateThreadCounters();
  workers_.reserve(static_cast<size_t>(config.num_workers));
  for (int i = 0; i < config.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

BatchingServer::~BatchingServer() { Shutdown(); }

common::Status BatchingServer::Submit(
    const InferenceRequest& inference_request,
    std::function<void(InferenceResponse)> done) {
  const graph::NodeId node = inference_request.node;
  if (node >= num_nodes_) {
    return common::Status::InvalidArgument("node id out of range");
  }
  // Injected admission fault (site "serve.admit", token = node id): bills
  // as a rejection, exactly like real backpressure, so resilience tests
  // can target admission without saturating the queue.
  if (faults_ != nullptr &&
      faults_->ShouldFail("serve.admit", static_cast<uint64_t>(node))) {
    metrics_.RecordRejected();
    return common::Status::Unavailable("injected admission fault");
  }
  const int64_t deadline_micros = inference_request.deadline_micros > 0
                                      ? inference_request.deadline_micros
                                      : config_.deadline_micros;
  PendingRequest pending;
  pending.request = inference_request;
  pending.enqueue_tick = latency_clock_.Next();
  pending.deadline = deadline_micros > 0
                         ? common::Deadline::After(deadline_micros)
                         : common::Deadline::Infinite();
  pending.done = std::move(done);
  common::Status status = admission_.Offer(std::move(pending));
  if (status.code() == common::StatusCode::kUnavailable) {
    metrics_.RecordRejected();
  }
  return status;
}

common::StatusOr<std::future<InferenceResponse>> BatchingServer::Submit(
    const InferenceRequest& request) {
  auto promise = std::make_shared<std::promise<InferenceResponse>>();
  std::future<InferenceResponse> future = promise->get_future();
  SGNN_RETURN_IF_ERROR(
      Submit(request, [promise](InferenceResponse response) {
        promise->set_value(std::move(response));
      }));
  return future;
}

void BatchingServer::WarmCache(const tensor::Matrix& embeddings) {
  SGNN_CHECK_EQ(embeddings.rows(), static_cast<int64_t>(num_nodes_));
  SGNN_CHECK_EQ(embeddings.cols(), model_.in_dim());
  const int64_t step = step_.load(std::memory_order_relaxed);
  common::WriterMutexLock lock(cache_mu_);
  for (int64_t u = 0; u < embeddings.rows(); ++u) {
    cache_.Put(static_cast<graph::NodeId>(u), embeddings.Row(u), step);
  }
}

ServeMetricsSnapshot BatchingServer::Metrics() const {
  ServeMetricsSnapshot snap = metrics_.Snapshot();
  snap.ops = common::OpCounters::Delta(base_ops_,
                                       common::AggregateThreadCounters());
  snap.health.breaker_state = common::CircuitBreaker::StateName(
      breaker_.state());
  snap.health.breaker_trips = static_cast<uint64_t>(breaker_.trips());
  // The breaker's own count is authoritative: it includes fast-failed
  // calls later rescued by a degraded serve.
  snap.health.breaker_fast_fails = static_cast<uint64_t>(breaker_.fast_fails());

  // Refresh the registry-side gauges that mirror server-owned state, so a
  // scrape taken after this call sees the breaker and data-movement
  // counters too. All scheduling-dependent, hence volatile.
  obs::MetricsRegistry& r = *metrics_.registry();
  r.GetGauge("sgnn_serve_breaker_state",
             "Circuit breaker state (0 closed, 1 open, 2 half-open).", {},
             obs::kVolatile)
      ->Set(static_cast<double>(static_cast<int>(breaker_.state())));
  r.GetGauge("sgnn_serve_breaker_trips",
             "Closed/half-open -> open transitions.", {}, obs::kVolatile)
      ->Set(static_cast<double>(breaker_.trips()));
  r.GetGauge("sgnn_serve_breaker_fast_fails",
             "Calls rejected by the open breaker (breaker-side count).", {},
             obs::kVolatile)
      ->Set(static_cast<double>(breaker_.fast_fails()));
  r.SetOpCounterGauges("sgnn_serve_ops",
                       "Serving-thread data movement since server start.", {},
                       snap.ops, obs::kVolatile);
  return snap;
}

void BatchingServer::Shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true)) return;
  admission_.Close();
  // Workers keep forming batches until the closed queue is drained.
  for (std::thread& worker : workers_) worker.join();
}

bool BatchingServer::FormBatch(std::vector<PendingRequest>* batch) {
  const auto max_delay = std::chrono::microseconds(config_.max_delay_micros);
  constexpr int64_t kIdlePollMicros = 5000;
  PendingRequest next;
  while (!admission_.Pop(&next, kIdlePollMicros)) {
    // Timeout, or closed-and-drained: only the latter ends the loop (no
    // new request can arrive after Close, so this is a stable condition).
    if (admission_.Drained()) return false;
  }
  batch->push_back(std::move(next));
  const auto flush_at = Clock::now() + max_delay;
  while (static_cast<int>(batch->size()) < config_.max_batch) {
    const auto now = Clock::now();
    if (now >= flush_at) break;
    const auto wait =
        std::chrono::duration_cast<std::chrono::microseconds>(flush_at - now);
    if (!admission_.Pop(&next, wait.count())) break;
    batch->push_back(std::move(next));
  }
  return true;
}

void BatchingServer::WorkerLoop() {
  for (;;) {
    // One batch forms at a time, so idle workers do not split arrivals
    // into smaller batches. A worker forms a batch only when it is free:
    // at most num_workers batches are in flight, and the rest of the
    // pressure stays in the admission queue, where Submit rejects.
    std::vector<PendingRequest> batch;
    {
      common::MutexLock lock(form_mu_);
      if (!FormBatch(&batch)) return;
    }
    // Deadline check as the batch starts: a request that expired in
    // admission or while the batch formed is answered here and skips all
    // embedding work.
    const auto expired = std::stable_partition(
        batch.begin(), batch.end(),
        [](const PendingRequest& p) { return !p.deadline.expired(); });
    for (auto it = expired; it != batch.end(); ++it) {
      InferenceResponse response = ResponseFor(&*it, &latency_clock_);
      response.status = common::Status::DeadlineExceeded(
          "request expired before processing");
      metrics_.RecordTerminalFailure(response.status.code(), false);
      it->done(std::move(response));
    }
    batch.erase(expired, batch.end());
    if (batch.empty()) continue;
    metrics_.RecordBatch(batch.size(), admission_.TotalQueued());
    ProcessBatch(&batch);
  }
}

common::Status BatchingServer::ResolveMiss(const PendingRequest& pending,
                                           std::span<float> out, int64_t step,
                                           bool* degraded) {
  const graph::NodeId node = pending.request.node;
  const common::Deadline& dl = pending.deadline;
  common::Status status;
  bool breaker_fast_fail = false;
  if (!breaker_.Allow()) {
    // Fast-fail without touching the (presumed dead) embedder.
    breaker_fast_fail = true;
    status = common::Status::Unavailable("embedder circuit breaker open");
  } else {
    for (int attempt = 1;; ++attempt) {
      status = embed_fn_(node, out);
      if (status.ok()) break;
      metrics_.RecordEmbedFailure();
      breaker_.RecordFailure();
      if (!common::RetryPolicy::Retryable(status.code()) ||
          attempt >= config_.embed_retry.max_attempts) {
        break;
      }
      const int64_t backoff = config_.embed_retry.BackoffMicros(
          attempt, static_cast<uint64_t>(node));
      if (!dl.infinite() && dl.remaining_micros() <= backoff) {
        break;  // The backoff alone would blow the deadline.
      }
      metrics_.RecordRetry();
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
      if (!breaker_.Allow()) {
        breaker_fast_fail = true;
        status = common::Status::Unavailable(
            "embedder circuit breaker opened during retries");
        break;
      }
    }
    if (status.ok()) {
      breaker_.RecordSuccess();
      if (config_.update_cache) {
        common::WriterMutexLock lock(cache_mu_);
        cache_.Put(node, out, step);
      }
      return status;
    }
  }

  // Persistent failure, or a stale-tier request the breaker did not pick
  // as its probe: degrade to the stale cache row when allowed — a
  // slightly old embedding beats an error page. The stale tier always
  // allows it.
  if (config_.degraded_serving || pending.request.stale_only) {
    common::ReaderMutexLock lock(cache_mu_);
    if (cache_.Has(node)) {
      auto row = cache_.Get(node);
      std::copy(row.begin(), row.end(), out.begin());
      *degraded = true;
      return common::Status::OK();
    }
  }
  metrics_.RecordTerminalFailure(status.code(), breaker_fast_fail);
  return status;
}

void BatchingServer::ProcessBatch(std::vector<PendingRequest>* batch) {
  obs::TraceSpan span = obs::StartSpan(tracer_, "serve.batch", "serve");
  const int64_t step = step_.fetch_add(1, std::memory_order_relaxed);
  const int64_t n = static_cast<int64_t>(batch->size());
  const int64_t dim = model_.in_dim();

  tensor::Matrix embeddings(n, dim);
  std::vector<bool> hit(static_cast<size_t>(n), false);
  std::vector<bool> degraded(static_cast<size_t>(n), false);
  std::vector<common::Status> row_status(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const size_t s = static_cast<size_t>(i);
    const graph::NodeId node = (*batch)[s].request.node;
    {
      common::ReaderMutexLock lock(cache_mu_);
      const int64_t staleness = cache_.Staleness(node, step);
      if (staleness >= 0 && staleness <= config_.max_staleness) {
        auto row = cache_.Get(node);
        std::copy(row.begin(), row.end(), embeddings.Row(i).begin());
        hit[s] = true;
      }
    }
    if (!hit[s]) {
      // A stale-tier request goes through the breaker too: denied, it
      // serves its cached row (flagged degraded, so the client can tell it
      // got yesterday's embedding); granted, it is the half-open probe
      // that lets a healed embedder close the breaker.
      bool row_degraded = false;
      row_status[s] =
          ResolveMiss((*batch)[s], embeddings.Row(i), step, &row_degraded);
      degraded[s] = row_degraded;
    }
  }

  // The micro-batching win: one head forward for the whole batch. Rows
  // that failed to resolve are zero; their logits are never delivered.
  tensor::Matrix logits;
  model_.Forward(embeddings, &logits);

  for (int64_t i = 0; i < n; ++i) {
    const size_t s = static_cast<size_t>(i);
    PendingRequest& pending = (*batch)[s];
    InferenceResponse response = ResponseFor(&pending, &latency_clock_);
    if (row_status[s].ok() && pending.deadline.expired()) {
      // Post-batch check: the result arrived too late to count.
      row_status[s] = common::Status::DeadlineExceeded(
          "request completed after its deadline");
      metrics_.RecordTerminalFailure(row_status[s].code(), false);
    }
    response.status = row_status[s];
    if (response.status.ok()) {
      auto row = logits.Row(i);
      response.logits.assign(row.begin(), row.end());
      response.predicted_class = static_cast<int>(
          std::max_element(row.begin(), row.end()) - row.begin());
      response.cache_hit = hit[s];
      response.degraded = degraded[s];
      metrics_.RecordRequest(response.latency_ticks, response.cache_hit,
                             response.degraded);
    }
    pending.done(std::move(response));
  }
}

}  // namespace sgnn::serve
