#ifndef SGNN_NET_SERVER_H_
#define SGNN_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "common/fault.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/run_context.h"
#include "net/http.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/batching_server.h"

namespace sgnn::net {

/// Fault-injection sites observed by the front door (deterministic token
/// triggers, the replayable style `dist/frame.h` uses):
///  - `net.accept.fail` (token = 0-based accept sequence number): the
///    accepted connection is dropped on the floor, as a listener hitting
///    fd exhaustion would.
///  - `net.read.trunc` (token = `ReadToken(conn, read)`): the connection's
///    stream is torn mid-read — half the received bytes are delivered,
///    then the connection closes as if the peer died. Feeds the
///    `/healthz` torn-read counter.
inline constexpr char kSiteAcceptFail[] = "net.accept.fail";
inline constexpr char kSiteReadTrunc[] = "net.read.trunc";

/// Order-independent fault token for read number `read_seq` (0-based) on
/// connection `conn_id` (0-based accept order).
constexpr uint64_t ReadToken(uint64_t conn_id, uint64_t read_seq) {
  return (conn_id << 20) | (read_seq & ((uint64_t{1} << 20) - 1));
}

/// Tuning of the HTTP front door.
struct HttpFrontDoorConfig {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; `Start` writes the chosen port into `port()`.
  uint16_t port = 0;
  /// Multi-tenant admission: quotas, DWRR weights and bounds, installed
  /// into the server's queue by `Start`; the shed policy stays here.
  serve::AdmissionConfig admission;
  HttpLimits http_limits;
  /// `/healthz` turns 503 after this many consecutive torn reads
  /// (`kDataLoss` stream endings); any successfully parsed request resets
  /// the streak.
  int torn_read_threshold = 3;
  /// Epoll poll granularity — bounds shutdown latency only.
  int64_t poll_interval_micros = 20000;
};

/// The epoll HTTP/1.1 front door of the serving tier. Three endpoints:
///
///   POST /v1/infer   {"node":N,"tenant":"t","deadline_micros":D}
///   GET  /metrics    Prometheus text exposition of the shared registry
///   GET  /healthz    "ok" (200) or the reason it is not (503)
///
/// The door is a protocol adapter with one thread. An infer request
/// flows: the epoll thread parses it, picks its shed tier, and `Submit`s
/// it with a completion callback to the `BatchingServer`, whose
/// `serve::AdmissionQueue` charges the tenant's quota and holds it until
/// a serving worker pops it deficit-weighted-fair into its batch. That
/// worker answers it, also when it expired while queued, and runs the
/// callback, which renders the JSON and writes the response *in request
/// order per connection* (HTTP/1.1 pipelining).
/// Load shedding degrades exact → stale → reject as the serving breaker
/// opens and the admission queue fills.
///
/// Writes never block: a connection whose peer stops reading is hung up
/// the moment its socket buffer fills, so neither the epoll thread nor a
/// batch worker waits on one slow client. Reads take turns: each wakeup
/// reads a ready connection once, so a pipelined burst cannot hold the
/// epoll thread either.
///
/// The front door owns only the sockets; the model, cache, and breaker
/// stay in the `BatchingServer` it fronts. Shut down the front door
/// before the server: `Shutdown` waits until every request it submitted
/// has been answered.
class HttpFrontDoor {
 public:
  /// `server` must outlive the front door. `ctx.metrics` is where the
  /// `sgnn_net_*` series land and what `/metrics` serves (falls back to a
  /// private registry); `ctx.tracer` receives `net:` spans; `ctx.faults`
  /// is consulted at the `net.*` sites above.
  HttpFrontDoor(serve::BatchingServer* server, HttpFrontDoorConfig config,
                const core::RunContext& ctx = core::RunContext());
  ~HttpFrontDoor();

  HttpFrontDoor(const HttpFrontDoor&) = delete;
  HttpFrontDoor& operator=(const HttpFrontDoor&) = delete;

  /// Installs `config.admission` into the server's queue, binds, listens,
  /// and starts the event-loop thread. Errors (a server queue that already
  /// took requests, port in use, fd exhaustion) surface here.
  SGNN_NODISCARD common::Status Start();

  /// Stops accepting, joins the event-loop thread, waits for the last
  /// completion callback to leave the door, closes all connections.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  /// The bound port (valid after `Start`).
  uint16_t port() const { return port_; }

  /// The `/healthz` verdict: true while the shed tier is `kExact` and the
  /// torn-read streak is under threshold.
  bool Healthy() const;

 private:
  /// One pipelined response slot; responses are written strictly in
  /// request order per connection, so a slow infer holds back the slots
  /// behind it (HTTP semantics) without blocking other connections.
  struct Slot {
    uint64_t seq = 0;
    bool ready = false;
    std::string bytes;
  };

  struct Conn {
    Conn(uint64_t id_in, const HttpLimits& limits)
        : id(id_in), parser(limits) {}
    const uint64_t id;
    /// The socket. Reads and the final close happen only on the
    /// event-loop thread (or in Shutdown after it joins); any thread that
    /// fills a slot writes responses through it under `mu`, and `dead` is
    /// checked first, so a closed fd is never written.
    // sgnn-lint: allow(lock/unannotated-field): closed only by the
    // event-loop thread / post-join Shutdown; writers take mu and check
    // `dead` before touching the fd.
    OwnedFd fd;
    // sgnn-lint: allow(lock/unannotated-field): fed and drained only by
    // the event-loop thread.
    HttpRequestParser parser;
    /// Per-conn read counter feeding `ReadToken`.
    // sgnn-lint: allow(lock/unannotated-field): event-loop thread only.
    uint64_t reads = 0;
    common::Mutex mu;
    std::deque<Slot> slots SGNN_GUARDED_BY(mu);
    uint64_t next_seq SGNN_GUARDED_BY(mu) = 0;
    bool dead SGNN_GUARDED_BY(mu) = false;
  };

  void EventLoop();
  /// Counts one submitted request answered; wakes `Shutdown` at zero.
  void FinishInFlight();

  void HandleAcceptable();
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  void HandleRequest(const std::shared_ptr<Conn>& conn, HttpRequest request);
  void HandleInfer(const std::shared_ptr<Conn>& conn,
                   const HttpRequest& request);
  std::string MetricsBody();
  std::string HealthzBody(int* http_status);

  /// Reserves the next in-order response slot on `conn`; returns its seq.
  uint64_t ReserveSlot(const std::shared_ptr<Conn>& conn);
  /// Serializes a `code` response into slot `seq` of `conn` and flushes
  /// the connection's ready in-order prefix, counting 4xx/5xx as HTTP
  /// errors. Safe from any thread; a dead connection drops the bytes.
  void Respond(const std::shared_ptr<Conn>& conn, uint64_t seq, int code,
               const std::string& body,
               std::string_view content_type = "application/json");
  /// Writes the ready prefix of `conn->slots` without blocking; hangs the
  /// connection up when its socket buffer is full or the peer is gone.
  void FlushConn(const std::shared_ptr<Conn>& conn);
  /// Closes and forgets a connection; `torn` feeds the healthz streak.
  void CloseConn(const std::shared_ptr<Conn>& conn, bool torn);

  serve::BatchingServer* const server_;
  const HttpFrontDoorConfig config_;
  obs::Tracer* const tracer_;
  common::FaultInjector* const faults_;
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* const registry_;

  /// Requests submitted to the server whose callback has not finished.
  struct InFlight {
    common::Mutex mu;
    std::condition_variable_any cv;
    int64_t count SGNN_GUARDED_BY(mu) = 0;
  };
  InFlight in_flight_;

  OwnedFd listen_fd_;
  OwnedFd epoll_fd_;
  uint16_t port_ = 0;

  /// Open connections, keyed by epoll user data. Only the event-loop
  /// thread touches it (and `Shutdown`, after joining that thread);
  /// completion callbacks hold their connection directly.
  // sgnn-lint: allow(lock/unannotated-field): event-loop thread only.
  std::map<uint64_t, std::shared_ptr<Conn>> conns_;
  std::atomic<uint64_t> next_conn_id_{0};

  std::atomic<uint64_t> accepts_{0};
  std::atomic<int> torn_streak_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};

  obs::Counter* accepted_total_;
  obs::Counter* accept_faults_total_;
  obs::Counter* requests_total_;
  obs::Counter* responses_total_;
  obs::Counter* http_errors_total_;
  obs::Counter* admitted_total_;
  obs::Counter* admitted_stale_total_;
  obs::Counter* shed_rejected_total_;
  obs::Counter* quota_rejected_total_;
  obs::Counter* torn_reads_total_;
  obs::Counter* dispatches_total_;
  obs::Gauge* open_connections_;
  obs::Gauge* shed_tier_;

  // sgnn-lint: allow(lock/unannotated-field): started in Start() before
  // any concurrent access, joined in Shutdown(); not touched in between.
  std::thread event_thread_;
};

}  // namespace sgnn::net

#endif  // SGNN_NET_SERVER_H_
