#include "serve/admission.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"

namespace sgnn::serve {

const char* ShedTierName(ShedTier tier) {
  switch (tier) {
    case ShedTier::kExact:
      return "exact";
    case ShedTier::kStale:
      return "stale";
    case ShedTier::kReject:
      return "reject";
  }
  return "unknown";
}

ShedTier ShedPolicy::Decide(common::CircuitBreaker::State breaker,
                            double fill) const {
  if (breaker == common::CircuitBreaker::State::kClosed) {
    return ShedTier::kExact;
  }
  if (breaker == common::CircuitBreaker::State::kOpen && fill >= reject_fill) {
    return ShedTier::kReject;
  }
  return ShedTier::kStale;
}

common::StatusOr<ShedTier> ShedPolicy::Apply(
    common::CircuitBreaker::State breaker, double fill,
    InferenceRequest* request) const {
  const ShedTier tier = Decide(breaker, fill);
  if (tier == ShedTier::kReject) {
    return common::Status::Unavailable(
        "load shed: breaker open and admission queues saturated");
  }
  if (tier == ShedTier::kStale) request->stale_only = true;
  return tier;
}

AdmissionQueue::AdmissionQueue(const AdmissionConfig& config,
                               size_t total_capacity)
    : total_capacity_(total_capacity), config_(config) {
  SGNN_CHECK_GT(config.per_tenant_capacity, 0u);
  SGNN_CHECK_GT(total_capacity, 0u);
  common::MutexLock lock(mu_);
  ResetTenants();
}

common::Status AdmissionQueue::Configure(const AdmissionConfig& config) {
  SGNN_CHECK_GT(config.per_tenant_capacity, 0u);
  common::MutexLock lock(mu_);
  if (offered_) {
    return common::Status::FailedPrecondition(
        "admission queue already took requests; configure it first");
  }
  config_ = config;
  ResetTenants();
  return common::Status::OK();
}

void AdmissionQueue::ResetTenants() {
  tenants_.clear();
  for (const auto& [id, quota] : config_.tenants) {
    tenants_.emplace(id, std::make_unique<Tenant>(quota));
  }
}

AdmissionQueue::Tenant& AdmissionQueue::TenantFor(const std::string& id) {
  auto it = tenants_.find(id);
  if (it == tenants_.end()) {
    it = tenants_
             .emplace(id, std::make_unique<Tenant>(config_.default_quota))
             .first;
  }
  return *it->second;
}

common::Status AdmissionQueue::Offer(PendingRequest item) {
  {
    common::MutexLock lock(mu_);
    offered_ = true;
    if (closed_) {
      return common::Status::FailedPrecondition("admission queue is closed");
    }
    const std::string& id = item.request.tenant_id;
    Tenant& tenant = TenantFor(id);
    if (tenant.tokens < 1.0) {
      return common::Status::ResourceExhausted("tenant '" + id +
                                               "' is out of quota tokens");
    }
    // Backpressure: a flooding tenant fills its own FIFO first, and the
    // total bound caps what all tenants together may hold.
    if (tenant.queue.size() >= config_.per_tenant_capacity) {
      return common::Status::Unavailable("queue of tenant '" + id +
                                         "' is full");
    }
    if (queued_ >= total_capacity_) {
      return common::Status::Unavailable("admission queue is full");
    }
    tenant.tokens -= 1.0;
    tenant.queue.push_back(std::move(item));
    ++queued_;
  }
  cv_.notify_one();
  return common::Status::OK();
}

bool AdmissionQueue::Pop(PendingRequest* out, int64_t timeout_micros) {
  SGNN_CHECK(out != nullptr);
  common::MutexLock lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_micros);
  // After a timeout, one more attempt absorbs a wakeup that raced it.
  for (bool timed_out = false;;) {
    if (!paused_ && TryDwrrPop(out)) {
      for (auto& [id, tenant] : tenants_) {
        tenant->tokens =
            std::min(tenant->quota.bucket_capacity,
                     tenant->tokens + tenant->quota.refill_per_dispatch);
      }
      if (config_.record_dispatch_log) {
        dispatch_log_.push_back(out->request.tenant_id);
      }
      return true;
    }
    if (closed_ || timed_out) return false;  // Close ends a pause.
    timed_out = cv_.wait_until(mu_, deadline) == std::cv_status::timeout;
  }
}

bool AdmissionQueue::TryDwrrPop(PendingRequest* out) {
  if (queued_ == 0) return false;
  // At most two sweeps over the tenant map: the first may spend visits
  // resetting deficits of empty queues; if any queue is non-empty, its
  // tenant accrues at least one grant within two sweeps (weights are
  // checked positive) unless quantum * weight < 1, in which case servicing
  // legitimately waits for enough full rounds — bounded here by giving
  // every non-empty tenant one grant per sweep and bailing once a full
  // double sweep produced nothing.
  const size_t max_visits = 2 * tenants_.size() + 2;
  auto it = tenants_.lower_bound(cursor_);
  if (it == tenants_.end()) it = tenants_.begin();
  for (size_t visits = 0; visits < max_visits; ++visits) {
    Tenant& tenant = *it->second;
    const bool nonempty = !tenant.queue.empty();
    if (!cursor_granted_) {
      // Classic DRR: an idle tenant's deficit resets so it cannot hoard
      // service credit while it has nothing to send.
      if (nonempty) {
        tenant.deficit += config_.quantum * std::max(tenant.quota.weight, 0.0);
      } else {
        tenant.deficit = 0.0;
      }
      cursor_granted_ = true;
    }
    if (nonempty && tenant.deficit >= 1.0) {
      *out = std::move(tenant.queue.front());
      tenant.queue.pop_front();
      --queued_;
      tenant.deficit -= 1.0;
      if (tenant.queue.empty()) {
        tenant.deficit = 0.0;
        ++it;
        if (it == tenants_.end()) it = tenants_.begin();
        cursor_ = it->first;
        cursor_granted_ = false;
      } else {
        cursor_ = it->first;
      }
      return true;
    }
    ++it;
    if (it == tenants_.end()) it = tenants_.begin();
    cursor_ = it->first;
    cursor_granted_ = false;
  }
  // quantum * weight < 1 for every backlogged tenant: deficits accrued this
  // call; the next call continues accruing until one crosses 1.
  return false;
}

void AdmissionQueue::Pause() {
  common::MutexLock lock(mu_);
  paused_ = true;
}

void AdmissionQueue::Resume() {
  {
    common::MutexLock lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

void AdmissionQueue::Close() {
  {
    common::MutexLock lock(mu_);
    closed_ = true;
    paused_ = false;
  }
  cv_.notify_all();
}

size_t AdmissionQueue::TotalQueued() const {
  common::MutexLock lock(mu_);
  return queued_;
}

bool AdmissionQueue::Drained() const {
  common::MutexLock lock(mu_);
  return closed_ && queued_ == 0;
}

double AdmissionQueue::FillFraction() const {
  common::MutexLock lock(mu_);
  return FillFractionLocked();
}

double AdmissionQueue::FillFractionLocked() const {
  if (tenants_.empty()) return 0.0;
  // Fill against the bound that applies: the tenants' bounds together, or
  // the total bound when that is smaller.
  const size_t capacity = std::min(
      total_capacity_, tenants_.size() * config_.per_tenant_capacity);
  return static_cast<double>(queued_) / static_cast<double>(capacity);
}

std::vector<std::string> AdmissionQueue::DispatchLog() const {
  common::MutexLock lock(mu_);
  return dispatch_log_;
}

}  // namespace sgnn::serve
