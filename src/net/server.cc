#include "net/server.h"

#include <sys/epoll.h>

#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "net/json.h"

namespace sgnn::net {

namespace {

/// epoll user-data value marking the listening socket; connection events
/// carry the connection id instead.
constexpr uint64_t kListenCookie = ~uint64_t{0};

}  // namespace

HttpFrontDoor::HttpFrontDoor(serve::BatchingServer* server,
                             HttpFrontDoorConfig config,
                             const core::RunContext& ctx)
    : server_(server),
      config_(std::move(config)),
      tracer_(ctx.tracer),
      faults_(ctx.faults),
      owned_registry_(ctx.metrics == nullptr
                          ? std::make_unique<obs::MetricsRegistry>()
                          : nullptr),
      registry_(ctx.metrics == nullptr ? owned_registry_.get() : ctx.metrics) {
  SGNN_CHECK(server_ != nullptr);
  obs::MetricsRegistry& r = *registry_;
  accepted_total_ =
      r.GetCounter("sgnn_net_accepted_total",
                   "TCP connections accepted by the front door.", {},
                   obs::kVolatile);
  accept_faults_total_ = r.GetCounter(
      "sgnn_net_accept_faults_total",
      "Accepted connections dropped by the net.accept.fail fault site.", {},
      obs::kVolatile);
  requests_total_ =
      r.GetCounter("sgnn_net_http_requests_total", "HTTP requests parsed.",
                   {}, obs::kVolatile);
  responses_total_ =
      r.GetCounter("sgnn_net_http_responses_total", "HTTP responses written.",
                   {}, obs::kVolatile);
  http_errors_total_ =
      r.GetCounter("sgnn_net_http_errors_total",
                   "HTTP error (4xx/5xx) responses.", {}, obs::kVolatile);
  admitted_total_ = r.GetCounter(
      "sgnn_net_infer_admitted_total",
      "Infer requests admitted past quota and shedding.", {}, obs::kVolatile);
  admitted_stale_total_ =
      r.GetCounter("sgnn_net_infer_admitted_stale_total",
                   "Infer requests admitted into the stale tier.", {},
                   obs::kVolatile);
  shed_rejected_total_ = r.GetCounter(
      "sgnn_net_infer_shed_total",
      "Infer requests rejected by the shed policy or a full tenant queue.",
      {}, obs::kVolatile);
  quota_rejected_total_ =
      r.GetCounter("sgnn_net_infer_quota_rejected_total",
                   "Infer requests rejected by a tenant token bucket.", {},
                   obs::kVolatile);
  torn_reads_total_ = r.GetCounter(
      "sgnn_net_torn_reads_total",
      "Connections that ended mid-message (torn stream, kDataLoss).", {},
      obs::kVolatile);
  dispatches_total_ = r.GetCounter(
      "sgnn_net_dispatches_total",
      "Infer requests handed to the batching server.", {},
      obs::kVolatile);
  open_connections_ =
      r.GetGauge("sgnn_net_open_connections", "Currently open connections.",
                 {}, obs::kVolatile);
  shed_tier_ = r.GetGauge(
      "sgnn_net_shed_tier",
      "Shed tier at the last admission decision (0 exact, 1 stale, 2 reject).",
      {}, obs::kVolatile);
}

HttpFrontDoor::~HttpFrontDoor() { Shutdown(); }

common::Status HttpFrontDoor::Start() {
  if (started_.load()) {
    return common::Status::FailedPrecondition("front door already started");
  }
  SGNN_RETURN_IF_ERROR(server_->admission().Configure(config_.admission));
  uint16_t port = config_.port;
  auto listener = ListenTcp(config_.host, &port);
  if (!listener.ok()) return listener.status();
  listen_fd_ = std::move(listener).value();
  port_ = port;
  auto epoll = EpollCreate();
  if (!epoll.ok()) return epoll.status();
  epoll_fd_ = std::move(epoll).value();
  SGNN_RETURN_IF_ERROR(
      EpollAdd(epoll_fd_.fd(), listen_fd_.fd(), EPOLLIN, kListenCookie));
  started_.store(true);
  event_thread_ = std::thread([this] { EventLoop(); });
  return common::Status::OK();
}

void HttpFrontDoor::Shutdown() {
  if (!started_.load() || stop_.exchange(true)) return;
  // Order matters: quiesce the only submitting thread first, then wait
  // out the completion callbacks of what it submitted — every admitted
  // request is answered before any connection closes.
  event_thread_.join();
  {
    common::MutexLock lock(in_flight_.mu);
    while (in_flight_.count > 0) in_flight_.cv.wait(in_flight_.mu);
  }
  for (auto& [id, conn] : conns_) {
    common::MutexLock lock(conn->mu);
    conn->dead = true;
    conn->fd.Close();
  }
  conns_.clear();
  open_connections_->Set(0.0);
  listen_fd_.Close();
  epoll_fd_.Close();
}

bool HttpFrontDoor::Healthy() const {
  const serve::ShedTier tier = config_.admission.shed.Decide(
      server_->breaker_state(), server_->admission().FillFraction());
  return tier == serve::ShedTier::kExact &&
         torn_streak_.load() < config_.torn_read_threshold;
}

void HttpFrontDoor::EventLoop() {
  std::vector<ReadyEvent> events;
  const int timeout_ms =
      static_cast<int>(config_.poll_interval_micros / 1000) + 1;
  while (!stop_.load()) {
    auto n = WaitEvents(epoll_fd_.fd(), &events, 64, timeout_ms);
    if (!n.ok()) break;  // Only fails when the epoll fd itself is gone.
    for (const ReadyEvent& ev : events) {
      if (ev.data == kListenCookie) {
        HandleAcceptable();
        continue;
      }
      auto it = conns_.find(ev.data);
      if (it == conns_.end()) continue;  // Closed while queued.
      const std::shared_ptr<Conn> conn = it->second;  // Outlives an erase.
      HandleReadable(conn);
    }
  }
}

void HttpFrontDoor::HandleAcceptable() {
  for (;;) {
    auto accepted = AcceptConn(listen_fd_.fd());
    if (!accepted.ok()) return;  // kUnavailable: drained the backlog.
    const uint64_t accept_index = accepts_.fetch_add(1);
    accepted_total_->Increment();
    if (faults_ != nullptr &&
        faults_->ShouldFail(kSiteAcceptFail, accept_index)) {
      accept_faults_total_->Increment();
      continue;  // The OwnedFd closes; the client sees a reset.
    }
    auto conn = std::make_shared<Conn>(next_conn_id_.fetch_add(1),
                                       config_.http_limits);
    conn->fd = std::move(accepted).value();
    conns_.emplace(conn->id, conn);
    common::Status added =
        EpollAdd(epoll_fd_.fd(), conn->fd.fd(), EPOLLIN, conn->id);
    if (!added.ok()) {
      CloseConn(conn, false);
      continue;
    }
    open_connections_->Set(static_cast<double>(conns_.size()));
  }
}

void HttpFrontDoor::HandleReadable(const std::shared_ptr<Conn>& conn) {
  // One read per wakeup: the epoll registration is level-triggered, so
  // bytes left in the socket report the connection ready again, after the
  // other ready connections had their turn. A client that pipelines a
  // large burst cannot hold the only event-loop thread.
  char buf[16384];
  auto n = RecvSome(conn->fd.fd(), buf, sizeof(buf));
  if (!n.ok()) {
    if (n.status().code() == common::StatusCode::kUnavailable) return;
    CloseConn(conn, !conn->parser.at_boundary());
    return;
  }
  if (n.value() == 0) {  // EOF: clean at a boundary, torn otherwise.
    CloseConn(conn, !conn->parser.OnEof().ok());
    return;
  }
  const uint64_t read_seq = conn->reads++;
  std::string_view data(buf, n.value());
  if (faults_ != nullptr &&
      faults_->ShouldFail(kSiteReadTrunc, ReadToken(conn->id, read_seq))) {
    // Deliver half the bytes, then tear the stream as a mid-read peer
    // death would. The parse outcome is irrelevant: the connection dies
    // either way, and OnEof() below classifies the tear.
    // sgnn-lint: allow(status/void-cast): injected tear discards the
    // half-fed parse result by design; OnEof() is the observed verdict.
    (void)conn->parser.Feed(data.substr(0, data.size() / 2));
    CloseConn(conn, !conn->parser.OnEof().ok());
    return;
  }
  common::Status fed = conn->parser.Feed(data);
  if (!fed.ok()) {
    const int code =
        fed.code() == common::StatusCode::kResourceExhausted ? 431 : 400;
    Respond(conn, ReserveSlot(conn), code, RenderError(fed));
    CloseConn(conn, false);  // Framing is gone; nothing to salvage.
    return;
  }
  HttpRequest request;
  while (conn->parser.TakeRequest(&request)) {
    HandleRequest(conn, std::move(request));
    request = HttpRequest();
    // Hung up (the peer stopped reading): no later response can reach
    // it, so serve no more of its requests.
    bool dead;
    {
      common::MutexLock lock(conn->mu);
      dead = conn->dead;
    }
    if (dead) {
      CloseConn(conn, false);
      return;
    }
  }
}

void HttpFrontDoor::HandleRequest(const std::shared_ptr<Conn>& conn,
                                  HttpRequest request) {
  obs::TraceSpan span = obs::StartSpan(tracer_, "net:request", "net");
  requests_total_->Increment();
  // A successfully parsed request proves the stream is healthy again;
  // health probes themselves stay observers so a 503 remains visible.
  if (request.target != "/healthz") torn_streak_.store(0);

  const bool infer = request.target == "/v1/infer";
  const bool metrics = request.target == "/metrics";
  if (!infer && !metrics && request.target != "/healthz") {
    Respond(conn, ReserveSlot(conn), 404,
            RenderError(common::Status::NotFound(
                "no route for '" + request.target + "'")));
    return;
  }
  const char* const method = infer ? "POST" : "GET";
  if (request.method != method) {
    Respond(conn, ReserveSlot(conn), 405,
            RenderError(common::Status::InvalidArgument(
                request.target + " accepts " + method + " only")));
    return;
  }
  if (infer) {
    HandleInfer(conn, request);
    return;
  }
  int code = 200;
  const std::string body = metrics ? MetricsBody() : HealthzBody(&code);
  Respond(conn, ReserveSlot(conn), code, body, "text/plain; version=0.0.4");
}

void HttpFrontDoor::HandleInfer(const std::shared_ptr<Conn>& conn,
                                const HttpRequest& request) {
  auto fail = [&](const common::Status& status) {
    Respond(conn, ReserveSlot(conn), HttpStatusForCode(status.code()),
            RenderError(status));
  };

  auto parsed = ParseInferRequest(request.body);
  if (!parsed.ok()) {
    fail(parsed.status());
    return;
  }
  const InferRequestBody& body = parsed.value();
  if (body.node < 0 ||
      body.node > static_cast<int64_t>(
                      std::numeric_limits<graph::NodeId>::max())) {
    fail(common::Status::InvalidArgument("node id out of range"));
    return;
  }
  serve::InferenceRequest infer;
  infer.node = static_cast<graph::NodeId>(body.node);
  infer.tenant_id = body.tenant;
  infer.deadline_micros = body.deadline_micros;

  const uint64_t seq = ReserveSlot(conn);
  // Shedding is the door's policy; quota and queue bounds are the
  // server's queue's, enforced inside `Submit`.
  auto tier = config_.admission.shed.Apply(
      server_->breaker_state(), server_->admission().FillFraction(), &infer);
  common::Status status = tier.status();
  if (status.ok()) {
    {
      common::MutexLock lock(in_flight_.mu);
      ++in_flight_.count;
    }
    // The callback runs on the thread that answers the request — a batch
    // worker, or the batcher when it expired first; Respond is safe from
    // any thread and never blocks.
    status = server_->Submit(
        infer, [this, conn, seq](serve::InferenceResponse response) {
          const int code = response.status.ok()
                               ? 200
                               : HttpStatusForCode(response.status.code());
          Respond(conn, seq, code, RenderInferResponse(response));
          FinishInFlight();
        });
    if (!status.ok()) FinishInFlight();
  }
  if (!status.ok()) {
    // Only a load-shedding refusal (the reject tier, quota, a full queue)
    // reports the reject tier; a bad request keeps the tier it was given.
    const bool quota = status.code() == common::StatusCode::kResourceExhausted;
    const bool shed = status.code() == common::StatusCode::kUnavailable;
    if (quota) quota_rejected_total_->Increment();
    if (shed) shed_rejected_total_->Increment();
    shed_tier_->Set(static_cast<double>(
        quota || shed || !tier.ok() ? serve::ShedTier::kReject
                                    : tier.value()));
    Respond(conn, seq, HttpStatusForCode(status.code()), RenderError(status));
    return;
  }
  dispatches_total_->Increment();
  shed_tier_->Set(static_cast<double>(tier.value()));
  admitted_total_->Increment();
  if (tier.value() == serve::ShedTier::kStale) {
    admitted_stale_total_->Increment();
  }
}

std::string HttpFrontDoor::MetricsBody() {
  // Metrics() refreshes the registry-side breaker/pool/ops gauges, so a
  // scrape through the front door sees the same numbers a snapshot does.
  (void)server_->Metrics();
  return registry_->PrometheusText(true);
}

std::string HttpFrontDoor::HealthzBody(int* http_status) {
  const serve::ShedTier tier = config_.admission.shed.Decide(
      server_->breaker_state(), server_->admission().FillFraction());
  const int torn = torn_streak_.load();
  if (tier == serve::ShedTier::kExact &&
      torn < config_.torn_read_threshold) {
    *http_status = 200;
    return "ok\n";
  }
  *http_status = 503;
  std::string body = "unhealthy: shed_tier=";
  body += serve::ShedTierName(tier);
  body += " breaker=";
  body += common::CircuitBreaker::StateName(server_->breaker_state());
  body += " torn_streak=" + std::to_string(torn) + "\n";
  return body;
}

uint64_t HttpFrontDoor::ReserveSlot(const std::shared_ptr<Conn>& conn) {
  common::MutexLock lock(conn->mu);
  const uint64_t seq = conn->next_seq++;
  conn->slots.push_back(Slot{seq, false, std::string()});
  return seq;
}

void HttpFrontDoor::Respond(const std::shared_ptr<Conn>& conn, uint64_t seq,
                            int code, const std::string& body,
                            std::string_view content_type) {
  if (code >= 400) http_errors_total_->Increment();
  std::string bytes =
      SerializeResponse(code, ReasonPhrase(code), body, content_type);
  {
    common::MutexLock lock(conn->mu);
    if (conn->dead) return;  // Conn died; response dropped.
    for (Slot& slot : conn->slots) {
      if (slot.seq == seq) {
        slot.ready = true;
        slot.bytes = std::move(bytes);
        break;
      }
    }
  }
  responses_total_->Increment();
  FlushConn(conn);
}

void HttpFrontDoor::FlushConn(const std::shared_ptr<Conn>& conn) {
  common::MutexLock lock(conn->mu);
  while (!conn->slots.empty() && conn->slots.front().ready) {
    if (!conn->dead) {
      const std::string& bytes = conn->slots.front().bytes;
      if (!SendAll(conn->fd.fd(), bytes.data(), bytes.size()).ok()) {
        // A full socket buffer (the peer stopped reading) or a dead peer:
        // hang up rather than wait. The peer sees the close, and the epoll
        // thread closes the fd at its next wakeup for this connection.
        conn->dead = true;
        Hangup(conn->fd.fd());
      }
    }
    conn->slots.pop_front();
  }
}

void HttpFrontDoor::CloseConn(const std::shared_ptr<Conn>& conn, bool torn) {
  conns_.erase(conn->id);
  {
    common::MutexLock lock(conn->mu);
    conn->dead = true;
    if (conn->fd.valid()) {
      // sgnn-lint: allow(status/void-cast): best-effort deregistration on
      // the close path; the fd is closed next, which detaches it anyway.
      (void)EpollDel(epoll_fd_.fd(), conn->fd.fd());
      conn->fd.Close();
    }
  }
  if (torn) {
    torn_reads_total_->Increment();
    torn_streak_.fetch_add(1);
  }
  open_connections_->Set(static_cast<double>(conns_.size()));
}

void HttpFrontDoor::FinishInFlight() {
  // Notify while holding the lock: once Shutdown sees zero it may destroy
  // the door, so nothing of it is touched after this unlock.
  common::MutexLock lock(in_flight_.mu);
  if (--in_flight_.count == 0) in_flight_.cv.notify_all();
}

}  // namespace sgnn::net
