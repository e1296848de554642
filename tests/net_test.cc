#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/run_context.h"
#include "net/client.h"
#include "net/http.h"
#include "net/json.h"
#include "net/server.h"
#include "nn/mlp.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/batching_server.h"
#include "serve/frozen_model.h"
#include "tensor/matrix.h"

namespace sgnn::net {
namespace {

using common::Status;
using common::StatusCode;
using graph::NodeId;
using serve::AdmissionConfig;
using serve::AdmissionQueue;
using serve::BatchingServer;
using serve::FrozenModel;
using serve::InferenceRequest;
using serve::InferenceResponse;
using serve::PendingRequest;
using serve::ServeConfig;
using serve::ShedPolicy;
using serve::ShedTier;
using serve::TenantQuota;

// ----------------------------------------------------------- HTTP parsing

TEST(HttpRequestParserTest, ParsesSimpleGetAndPostWithBody) {
  HttpRequestParser parser;
  ASSERT_TRUE(parser
                  .Feed("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                        "POST /v1/infer HTTP/1.1\r\nContent-Length: 10\r\n"
                        "\r\n{\"node\":1}")
                  .ok());
  HttpRequest request;
  ASSERT_TRUE(parser.TakeRequest(&request));
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/healthz");
  EXPECT_EQ(request.version, "HTTP/1.1");
  ASSERT_TRUE(parser.TakeRequest(&request));
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.body, "{\"node\":1}");
  EXPECT_FALSE(parser.TakeRequest(&request));
  EXPECT_TRUE(parser.at_boundary());
  EXPECT_TRUE(parser.OnEof().ok());
}

TEST(HttpRequestParserTest, TruncatedRequestLineIsTornAtEof) {
  HttpRequestParser parser;
  ASSERT_TRUE(parser.Feed("GET /v1/inf").ok());  // No CRLF yet: incomplete.
  HttpRequest request;
  EXPECT_FALSE(parser.TakeRequest(&request));
  EXPECT_FALSE(parser.at_boundary());
  // A peer dying here tore the stream mid-message: kDataLoss, the same
  // taxonomy dist/frame.h applies to torn length-prefixed frames.
  EXPECT_EQ(parser.OnEof().code(), StatusCode::kDataLoss);
}

TEST(HttpRequestParserTest, OversizedStartLineIsResourceExhausted) {
  HttpLimits limits;
  limits.max_start_line_bytes = 32;
  HttpRequestParser parser(limits);
  // The limit must be policed while the line is still forming — a peer
  // that never sends CRLF cannot balloon the buffer.
  const std::string long_target(128, 'a');
  EXPECT_EQ(parser.Feed("GET /" + long_target).code(),
            StatusCode::kResourceExhausted);
  // Sticky: the framing is unrecoverable.
  EXPECT_EQ(parser.Feed("\r\n\r\n").code(), StatusCode::kResourceExhausted);
}

TEST(HttpRequestParserTest, OversizedHeaderBlockIsResourceExhausted) {
  HttpLimits limits;
  limits.max_header_bytes = 64;
  HttpRequestParser parser(limits);
  const std::string big_header = "X-Padding: " + std::string(128, 'p');
  EXPECT_EQ(parser.Feed("GET / HTTP/1.1\r\n" + big_header).code(),
            StatusCode::kResourceExhausted);
}

TEST(HttpRequestParserTest, OversizedBodyIsResourceExhausted) {
  HttpLimits limits;
  limits.max_body_bytes = 8;
  HttpRequestParser parser(limits);
  EXPECT_EQ(
      parser.Feed("POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n").code(),
      StatusCode::kResourceExhausted);
}

TEST(HttpRequestParserTest, PipelinedRequestsSplitAcrossFeeds) {
  HttpRequestParser parser;
  // Three pipelined requests, fed in fragments that split mid-line and
  // mid-body — the incremental parser must reassemble all of them.
  const std::string wire =
      "POST /v1/infer HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"node\":1}"
      "POST /v1/infer HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"node\":2}"
      "GET /metrics HTTP/1.1\r\n\r\n";
  for (size_t i = 0; i < wire.size(); i += 7) {
    ASSERT_TRUE(parser.Feed(wire.substr(i, 7)).ok());
  }
  HttpRequest request;
  ASSERT_TRUE(parser.TakeRequest(&request));
  EXPECT_EQ(request.body, "{\"node\":1}");
  ASSERT_TRUE(parser.TakeRequest(&request));
  EXPECT_EQ(request.body, "{\"node\":2}");
  ASSERT_TRUE(parser.TakeRequest(&request));
  EXPECT_EQ(request.target, "/metrics");
  EXPECT_FALSE(parser.TakeRequest(&request));
  EXPECT_TRUE(parser.OnEof().ok());
}

TEST(HttpRequestParserTest, MidBodyEofIsDataLoss) {
  HttpRequestParser parser;
  ASSERT_TRUE(
      parser.Feed("POST /v1/infer HTTP/1.1\r\nContent-Length: 10\r\n\r\n12345")
          .ok());
  HttpRequest request;
  EXPECT_FALSE(parser.TakeRequest(&request));  // Body still short 5 bytes.
  EXPECT_EQ(parser.OnEof().code(), StatusCode::kDataLoss);
}

TEST(HttpRequestParserTest, MalformedStartLineIsInvalidArgumentAndSticky) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Feed("BOGUS\r\n\r\n").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(parser.Feed("GET / HTTP/1.1\r\n\r\n").code(),
            StatusCode::kInvalidArgument);
}

TEST(HttpRequestParserTest, ChunkedTransferCodingIsRejected) {
  HttpRequestParser parser;
  EXPECT_EQ(
      parser
          .Feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(HttpResponseParserTest, EofTaxonomyMatchesRequestSide) {
  HttpResponseParser clean;
  ASSERT_TRUE(
      clean.Feed("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok").ok());
  HttpResponse response;
  ASSERT_TRUE(clean.TakeResponse(&response));
  EXPECT_EQ(response.status_code, 200);
  EXPECT_EQ(response.body, "ok");
  EXPECT_TRUE(clean.OnEof().ok());  // Closed at a boundary: clean goodbye.

  HttpResponseParser torn;
  ASSERT_TRUE(torn.Feed("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhal").ok());
  EXPECT_EQ(torn.OnEof().code(), StatusCode::kDataLoss);
}

// ------------------------------------------------------------------- JSON

TEST(JsonTest, ParsesInferRequestWithAllFields) {
  auto body = ParseInferRequest(
      R"({"node": 7, "tenant": "team-a", "deadline_micros": 5000})");
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(body.value().node, 7);
  EXPECT_EQ(body.value().tenant, "team-a");
  EXPECT_EQ(body.value().deadline_micros, 5000);
}

TEST(JsonTest, RejectsUnknownKeysMissingNodeAndBadValues) {
  EXPECT_EQ(ParseInferRequest(R"({"node":1,"nodez":2})").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInferRequest(R"({"tenant":"x"})").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ParseInferRequest(R"({"node":1,"deadline_micros":-5})").status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInferRequest("not json").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(JsonTest, RenderedResponsesAreByteStable) {
  InferenceResponse ok;
  ok.status = Status::OK();
  ok.node = 7;
  ok.tenant_id = "t";
  ok.predicted_class = 1;
  ok.cache_hit = true;
  ok.degraded = false;
  ok.logits = {0.5f, 0.25f};
  ok.latency_ticks = 123;  // Deliberately excluded from the rendering.
  EXPECT_EQ(RenderInferResponse(ok),
            "{\"status\":\"ok\",\"node\":7,\"tenant\":\"t\","
            "\"predicted_class\":1,\"cache_hit\":true,\"degraded\":false,"
            "\"logits\":[0.5,0.25]}");

  InferenceResponse failed;
  failed.status = Status::Unavailable("embedder down");
  failed.node = 3;
  EXPECT_EQ(RenderInferResponse(failed),
            "{\"status\":\"unavailable\",\"node\":3,"
            "\"error\":\"embedder down\"}");
}

// -------------------------------------------------------------- admission

TEST(ShedPolicyTest, TierWalksExactStaleReject) {
  ShedPolicy policy;
  policy.reject_fill = 0.5;
  using BreakerState = common::CircuitBreaker::State;
  // Closed breaker: always exact, regardless of fill.
  EXPECT_EQ(policy.Decide(BreakerState::kClosed, 0.0), ShedTier::kExact);
  EXPECT_EQ(policy.Decide(BreakerState::kClosed, 1.0), ShedTier::kExact);
  // Open breaker: stale while the queues have room, reject once full.
  EXPECT_EQ(policy.Decide(BreakerState::kOpen, 0.0), ShedTier::kStale);
  EXPECT_EQ(policy.Decide(BreakerState::kOpen, 0.49), ShedTier::kStale);
  EXPECT_EQ(policy.Decide(BreakerState::kOpen, 0.5), ShedTier::kReject);
  EXPECT_EQ(policy.Decide(BreakerState::kOpen, 1.0), ShedTier::kReject);
  // Half-open (probing): keep serving stale, never reject outright.
  EXPECT_EQ(policy.Decide(BreakerState::kHalfOpen, 1.0), ShedTier::kStale);
}

/// A queued request for `node` billed to `tenant`, with no completion.
PendingRequest Pending(NodeId node, const std::string& tenant = "") {
  PendingRequest pending;
  pending.request.node = node;
  pending.request.tenant_id = tenant;
  return pending;
}

TEST(AdmissionQueueTest, DwrrDispatchSharesMatchWeightsExactly) {
  AdmissionConfig config;
  config.tenants["a"] = TenantQuota{1.0, 1e18, 0.0};
  config.tenants["b"] = TenantQuota{2.0, 1e18, 0.0};
  config.tenants["c"] = TenantQuota{4.0, 1e18, 0.0};
  config.record_dispatch_log = true;
  AdmissionQueue queue(config);

  queue.Pause();  // Saturate: offers queue, nothing drains.
  constexpr int kPerTenant = 20;
  for (const std::string tenant : {"a", "b", "c"}) {
    for (int i = 0; i < kPerTenant; ++i) {
      ASSERT_TRUE(queue.Offer(Pending(static_cast<NodeId>(i), tenant)).ok());
    }
  }
  ASSERT_EQ(queue.TotalQueued(), 3u * kPerTenant);
  queue.Resume();

  PendingRequest popped;
  for (int i = 0; i < 3 * kPerTenant; ++i) {
    ASSERT_TRUE(queue.Pop(&popped, /*timeout_micros=*/0));
  }
  // While every tenant is backlogged, DWRR with quantum 1 serves exactly
  // weight-many requests per cycle: 5 cycles of (1 a, 2 b, 4 c) cover the
  // first 35 dispatches. Counting-based, so the shares are exact, not
  // statistical.
  const std::vector<std::string> log = queue.DispatchLog();
  ASSERT_EQ(log.size(), 3u * kPerTenant);
  std::map<std::string, int> first35;
  for (int i = 0; i < 35; ++i) ++first35[log[static_cast<size_t>(i)]];
  EXPECT_EQ(first35["a"], 5);
  EXPECT_EQ(first35["b"], 10);
  EXPECT_EQ(first35["c"], 20);
}

TEST(AdmissionQueueTest, TokenBucketRejectsWhenEmptyAndRefillsPerDispatch) {
  AdmissionConfig config;
  config.tenants["capped"] = TenantQuota{1.0, /*bucket_capacity=*/2.0,
                                         /*refill_per_dispatch=*/1.0};
  AdmissionQueue queue(config);

  auto offer = [&] { return queue.Offer(Pending(0, "capped")); };
  EXPECT_TRUE(offer().ok());
  EXPECT_TRUE(offer().ok());
  EXPECT_EQ(offer().code(), StatusCode::kResourceExhausted);

  // One dispatch event grants refill_per_dispatch tokens back — the
  // bucket clock counts dispatches, not wall time.
  PendingRequest popped;
  ASSERT_TRUE(queue.Pop(&popped, 0));
  EXPECT_TRUE(offer().ok());
  EXPECT_EQ(offer().code(), StatusCode::kResourceExhausted);
}

TEST(AdmissionQueueTest, PerTenantQueueBoundIsolatesNeighbours) {
  AdmissionConfig config;
  config.per_tenant_capacity = 2;
  AdmissionQueue queue(config);
  queue.Pause();

  auto offer = [&](const std::string& tenant) {
    return queue.Offer(Pending(0, tenant));
  };
  EXPECT_TRUE(offer("flood").ok());
  EXPECT_TRUE(offer("flood").ok());
  // The flooding tenant fills its own bounded FIFO...
  EXPECT_EQ(offer("flood").code(), StatusCode::kUnavailable);
  // ...without consuming its neighbour's admission capacity.
  EXPECT_TRUE(offer("quiet").ok());
}

TEST(AdmissionQueueTest, TotalBoundCapsAllTenantsTogether) {
  AdmissionConfig config;
  config.per_tenant_capacity = 4;
  AdmissionQueue queue(config, /*total_capacity=*/3);
  queue.Pause();
  EXPECT_TRUE(queue.Offer(Pending(0, "a")).ok());
  EXPECT_TRUE(queue.Offer(Pending(0, "a")).ok());
  EXPECT_TRUE(queue.Offer(Pending(0, "b")).ok());
  // Both tenants are under their own bound, but the queue is full.
  EXPECT_EQ(queue.Offer(Pending(0, "b")).code(), StatusCode::kUnavailable);
  EXPECT_DOUBLE_EQ(queue.FillFraction(), 1.0);  // Against the total bound.
  queue.Resume();
  PendingRequest popped;
  ASSERT_TRUE(queue.Pop(&popped, 0));
  EXPECT_TRUE(queue.Offer(Pending(0, "b")).ok());
}

TEST(AdmissionQueueTest, ConfigureIsRefusedOnceARequestWasOffered) {
  AdmissionQueue queue(AdmissionConfig{});
  AdmissionConfig capped;
  capped.tenants["capped"] = TenantQuota{1.0, /*bucket_capacity=*/1.0, 0.0};
  ASSERT_TRUE(queue.Configure(capped).ok());
  ASSERT_TRUE(queue.Offer(Pending(0, "capped")).ok());
  EXPECT_EQ(queue.Offer(Pending(0, "capped")).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(queue.Configure(AdmissionConfig{}).code(),
            StatusCode::kFailedPrecondition);
}

TEST(AdmissionQueueTest, PopTimesOutWhenEmpty) {
  AdmissionQueue queue(AdmissionConfig{});
  PendingRequest popped;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(queue.Pop(&popped, /*timeout_micros=*/5000));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::microseconds(5000));
  EXPECT_FALSE(queue.Drained());  // Timed out; not closed.
}

TEST(AdmissionQueueTest, StaleTierMarksRequestsAndRejectTierRefuses) {
  AdmissionConfig config;
  config.per_tenant_capacity = 4;
  config.shed.reject_fill = 0.5;
  AdmissionQueue queue(config);
  queue.Pause();

  // The front door's tier step, then the queue.
  auto offer = [&](common::CircuitBreaker::State breaker)
      -> common::StatusOr<ShedTier> {
    PendingRequest pending = Pending(1);
    auto tier =
        config.shed.Apply(breaker, queue.FillFraction(), &pending.request);
    if (!tier.ok()) return tier;
    SGNN_RETURN_IF_ERROR(queue.Offer(std::move(pending)));
    return tier;
  };
  // Open breaker, empty queues: stale tier.
  auto stale = offer(common::CircuitBreaker::State::kOpen);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale.value(), ShedTier::kStale);
  ASSERT_TRUE(offer(common::CircuitBreaker::State::kOpen).ok());
  // Fill is now 2/4 = reject_fill: an open breaker escalates to reject.
  EXPECT_EQ(offer(common::CircuitBreaker::State::kOpen).status().code(),
            StatusCode::kUnavailable);
  // A closed breaker at the same fill still admits exactly.
  auto exact = offer(common::CircuitBreaker::State::kClosed);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact.value(), ShedTier::kExact);

  queue.Resume();
  PendingRequest popped;
  ASSERT_TRUE(queue.Pop(&popped, 0));
  EXPECT_TRUE(popped.request.stale_only);  // The stale tier marked it.
}

TEST(AdmissionQueueTest, CloseDrainsQueuedRequestsThenStops) {
  AdmissionQueue queue(AdmissionConfig{});
  ASSERT_TRUE(queue.Offer(Pending(1)).ok());
  ASSERT_TRUE(queue.Offer(Pending(2)).ok());
  queue.Close();
  EXPECT_EQ(queue.Offer(Pending(3)).code(), StatusCode::kFailedPrecondition);
  PendingRequest popped;
  ASSERT_TRUE(queue.Pop(&popped, 0));
  EXPECT_EQ(popped.request.node, 1u);
  ASSERT_TRUE(queue.Pop(&popped, 0));
  EXPECT_EQ(popped.request.node, 2u);
  EXPECT_FALSE(queue.Pop(&popped, 0));
  EXPECT_TRUE(queue.Drained());
}

TEST(AdmissionQueueTest, CloseEndsAPause) {
  AdmissionQueue queue(AdmissionConfig{});
  ASSERT_TRUE(queue.Offer(Pending(1)).ok());
  queue.Pause();
  PendingRequest popped;
  EXPECT_FALSE(queue.Pop(&popped, 0));  // Paused: nothing drains.
  // A closed queue always drains, so a server's Shutdown cannot hang on
  // a queue a test left paused.
  queue.Close();
  ASSERT_TRUE(queue.Pop(&popped, 0));
  EXPECT_EQ(popped.request.node, 1u);
}

// ------------------------------------------------------- loopback harness

constexpr int64_t kEmbedDim = 8;
constexpr int kClasses = 3;
constexpr NodeId kNodes = 64;

FrozenModel TestModel() {
  common::Rng rng(17);
  nn::Mlp mlp({kEmbedDim, kClasses}, /*dropout=*/0.0, &rng);
  return FrozenModel::FromMlp(mlp);
}

void FillEmbedding(NodeId node, std::span<float> out) {
  for (size_t j = 0; j < out.size(); ++j) {
    out[j] = 0.01f * static_cast<float>(node) + static_cast<float>(j);
  }
}

ServeConfig QuickServeConfig() {
  ServeConfig config;
  config.max_batch = 1;
  config.max_delay_micros = 0;
  config.queue_capacity = 1024;
  config.num_workers = 1;
  return config;
}

std::string InferBody(NodeId node, const std::string& tenant = "") {
  std::string body = "{\"node\":" + std::to_string(node);
  if (!tenant.empty()) body += ",\"tenant\":\"" + tenant + "\"";
  return body + "}";
}

HttpClient Dial(uint16_t port) {
  auto client = HttpClient::Connect("127.0.0.1", port);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

/// Polls `predicate` for up to ~2 seconds.
bool WaitFor(const std::function<bool()>& predicate) {
  for (int i = 0; i < 2000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

/// Ids of this process's threads, as the kernel lists them.
std::set<std::string> ThreadIds() {
  std::set<std::string> tids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    tids.insert(entry.path().filename().string());
  }
  return tids;
}

/// True when thread `tid` has terminated. `pthread_join` returns once the
/// kernel clears the thread's tid, which happens inside its exit path but
/// before the task is released, so a joined thread may still be listed
/// for a moment. It is then gone, a zombie or dead (state Z/X), or still
/// running its exit path with PF_EXITING (0x4) set in its flags; a live
/// thread is none of these.
bool ThreadExited(const std::string& tid) {
  std::ifstream in("/proc/self/task/" + tid + "/stat");
  std::string stat;
  if (!std::getline(in, stat)) return true;  // Released.
  // Fields after the parenthesised command name: state, ppid, pgrp, sid,
  // tty_nr, tpgid, flags.
  std::istringstream fields(stat.substr(stat.rfind(')') + 1));
  std::string state;
  uint64_t ppid, pgrp, sid, tty, tpgid, flags;
  fields >> state >> ppid >> pgrp >> sid >> tty >> tpgid >> flags;
  return state == "Z" || state == "X" || (flags & 0x4u) != 0;
}

// --------------------------------------------------------- front door e2e

TEST(HttpFrontDoorTest, ServesInferMetricsHealthzAndErrors) {
  BatchingServer server(
      TestModel(),
      [](NodeId node, std::span<float> out) {
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig());
  HttpFrontDoor door(&server, HttpFrontDoorConfig{});
  ASSERT_TRUE(door.Start().ok());
  HttpClient client = Dial(door.port());

  auto infer = client.Post("/v1/infer", InferBody(3));
  ASSERT_TRUE(infer.ok()) << infer.status().ToString();
  EXPECT_EQ(infer.value().status_code, 200);
  EXPECT_NE(infer.value().body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(infer.value().body.find("\"node\":3"), std::string::npos);
  EXPECT_NE(infer.value().body.find("\"logits\":["), std::string::npos);

  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().status_code, 200);
  EXPECT_NE(metrics.value().body.find("sgnn_net_http_requests_total"),
            std::string::npos);
  EXPECT_NE(metrics.value().body.find("sgnn_net_infer_admitted_total 1"),
            std::string::npos);

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status_code, 200);
  EXPECT_EQ(health.value().body, "ok\n");

  auto missing = client.Get("/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status_code, 404);
  auto wrong_method = client.Post("/healthz", "{}");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method.value().status_code, 405);
  auto bad_json = client.Post("/v1/infer", "{\"node\":");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_EQ(bad_json.value().status_code, 400);
  auto bad_node = client.Post("/v1/infer", InferBody(kNodes + 100));
  ASSERT_TRUE(bad_node.ok());
  EXPECT_EQ(bad_node.value().status_code, 400);  // Out of the id universe.
  EXPECT_NE(bad_node.value().body.find("invalid_argument"),
            std::string::npos);
  // A bad request is not load shedding: the shed tier stays exact.
  auto after = client.Get("/metrics");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after.value().body.find("\nsgnn_net_shed_tier 0\n"),
            std::string::npos);
}

TEST(HttpFrontDoorTest, PipelinedInferResponsesArriveInRequestOrder) {
  BatchingServer server(
      TestModel(),
      [](NodeId node, std::span<float> out) {
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig());
  HttpFrontDoor door(&server, HttpFrontDoorConfig{});
  ASSERT_TRUE(door.Start().ok());
  HttpClient client = Dial(door.port());

  const std::vector<NodeId> nodes = {5, 1, 9, 1, 5};
  for (NodeId node : nodes) {
    ASSERT_TRUE(client
                    .SendRequest("POST", "/v1/infer", InferBody(node),
                                 "application/json")
                    .ok());
  }
  for (NodeId node : nodes) {
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status_code, 200);
    EXPECT_NE(response.value().body.find(
                  "\"node\":" + std::to_string(node) + ","),
              std::string::npos);
  }
}

TEST(HttpFrontDoorTest, ResponsesBitIdenticalToInProcessSubmit) {
  // Two identical servers (same seed, same embedder): one serves
  // in-process futures, the other sits behind the front door. The same
  // request stream must produce byte-identical JSON bodies, including
  // cache_hit transitions — the shared renderer excludes only latency.
  auto embed = [](NodeId node, std::span<float> out) {
    FillEmbedding(node, out);
    return Status::OK();
  };
  BatchingServer in_process(TestModel(), embed, kNodes, QuickServeConfig());
  BatchingServer behind_http(TestModel(), embed, kNodes, QuickServeConfig());
  HttpFrontDoor door(&behind_http, HttpFrontDoorConfig{});
  ASSERT_TRUE(door.Start().ok());
  HttpClient client = Dial(door.port());

  const std::vector<NodeId> stream = {0, 7, 13, 0, 7, 13, 13, 0};
  for (NodeId node : stream) {
    auto future = in_process.Submit(InferenceRequest(node));
    ASSERT_TRUE(future.ok());
    const std::string expected =
        RenderInferResponse(std::move(future).value().get());

    auto response = client.Post("/v1/infer", InferBody(node));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status_code, 200);
    EXPECT_EQ(response.value().body, expected) << "node " << node;
  }
}

TEST(HttpFrontDoorTest, WeightedFairSharesUnderSaturation) {
  BatchingServer server(
      TestModel(),
      [](NodeId node, std::span<float> out) {
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig());

  HttpFrontDoorConfig config;
  config.admission.tenants["a"] = TenantQuota{1.0, 1e18, 0.0};
  config.admission.tenants["b"] = TenantQuota{2.0, 1e18, 0.0};
  config.admission.tenants["c"] = TenantQuota{4.0, 1e18, 0.0};
  config.admission.record_dispatch_log = true;
  HttpFrontDoor door(&server, config);
  ASSERT_TRUE(door.Start().ok());

  // Saturate: pause dispatch, then pipeline 40 requests per tenant over
  // three real loopback connections.
  server.admission().Pause();
  constexpr int kPerTenant = 40;
  std::map<std::string, HttpClient> clients;
  for (const std::string tenant : {"a", "b", "c"}) {
    clients.emplace(tenant, Dial(door.port()));
    for (int i = 0; i < kPerTenant; ++i) {
      ASSERT_TRUE(clients.at(tenant)
                      .SendRequest("POST", "/v1/infer",
                                   InferBody(static_cast<NodeId>(i % kNodes),
                                             tenant),
                                   "application/json")
                      .ok());
    }
  }
  ASSERT_TRUE(WaitFor(
      [&] { return server.admission().TotalQueued() == 3u * kPerTenant; }))
      << "only " << server.admission().TotalQueued() << " requests queued";
  server.admission().Resume();

  for (auto& [tenant, client] : clients) {
    for (int i = 0; i < kPerTenant; ++i) {
      auto response = client.ReadResponse();
      ASSERT_TRUE(response.ok())
          << tenant << "#" << i << ": " << response.status().ToString();
      EXPECT_EQ(response.value().status_code, 200);
      EXPECT_NE(response.value().body.find("\"tenant\":\"" + tenant + "\""),
                std::string::npos);
    }
  }

  // While all three tenants were backlogged (the first 10 DWRR cycles =
  // 70 dispatches), the dequeue shares must match the 1:2:4 weights. The
  // schedule is counting-based, so the shares are exact — well inside the
  // 10% acceptance band.
  const std::vector<std::string> log = server.admission().DispatchLog();
  ASSERT_EQ(log.size(), 3u * kPerTenant);
  std::map<std::string, int> prefix;
  for (int i = 0; i < 70; ++i) ++prefix[log[static_cast<size_t>(i)]];
  EXPECT_EQ(prefix["a"], 10);
  EXPECT_EQ(prefix["b"], 20);
  EXPECT_EQ(prefix["c"], 40);
}

TEST(HttpFrontDoorTest, ShedTiersDegradeExactToStaleToReject) {
  // An embedder with a kill switch: healthy first (to trip nothing and
  // warm the cache), then permanently down (to trip the breaker).
  std::atomic<bool> embedder_down{false};
  ServeConfig serve_config = QuickServeConfig();
  serve_config.breaker.failure_threshold = 2;
  serve_config.embed_retry.max_attempts = 1;
  serve_config.degraded_serving = false;  // Failures must trip, not degrade.
  // Rows go stale after one batch, so a stale-tier serve of a cached row
  // is observably degraded rather than a fresh hit.
  serve_config.max_staleness = 0;
  BatchingServer server(
      TestModel(),
      [&embedder_down](NodeId node, std::span<float> out) {
        if (embedder_down.load()) return Status::Unavailable("embedder down");
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, serve_config);

  HttpFrontDoorConfig config;
  config.admission.per_tenant_capacity = 4;
  config.admission.shed.reject_fill = 0.5;
  HttpFrontDoor door(&server, config);
  ASSERT_TRUE(door.Start().ok());
  HttpClient client = Dial(door.port());

  // Tier 1 — exact: healthy serve, caches node 1's row.
  auto exact = client.Post("/v1/infer", InferBody(1));
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact.value().status_code, 200);
  EXPECT_NE(exact.value().body.find("\"degraded\":false"), std::string::npos);
  EXPECT_TRUE(door.Healthy());

  // Kill the embedder; two uncached nodes trip the breaker.
  embedder_down.store(true);
  for (NodeId node : {NodeId{2}, NodeId{3}}) {
    auto failed = client.Post("/v1/infer", InferBody(node));
    ASSERT_TRUE(failed.ok());
    EXPECT_EQ(failed.value().status_code, 503);
    EXPECT_NE(failed.value().body.find("unavailable"), std::string::npos);
  }
  ASSERT_EQ(server.breaker_state(), common::CircuitBreaker::State::kOpen);

  // Tier 2 — stale: the open breaker degrades admission to stale-only;
  // node 1's cached row still serves, flagged degraded.
  auto stale = client.Post("/v1/infer", InferBody(1));
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale.value().status_code, 200);
  EXPECT_NE(stale.value().body.find("\"degraded\":true"), std::string::npos);
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status_code, 503);
  EXPECT_NE(health.value().body.find("shed_tier=stale"), std::string::npos);

  // Tier 3 — reject: open breaker + queues at reject_fill turn requests
  // away at the door. Pause dispatch so the fill holds still. The probe
  // uses its own connection: responses are written in request order per
  // connection, so anything pipelined behind the two held requests would
  // (correctly) wait for them.
  server.admission().Pause();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client
                    .SendRequest("POST", "/v1/infer", InferBody(1),
                                 "application/json")
                    .ok());
  }
  ASSERT_TRUE(WaitFor([&] { return server.admission().TotalQueued() == 2; }));
  HttpClient probe = Dial(door.port());
  auto rejected = probe.Post("/v1/infer", InferBody(1));
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected.value().status_code, 503);
  EXPECT_NE(rejected.value().body.find("load shed"), std::string::npos);
  auto health_reject = probe.Get("/healthz");
  ASSERT_TRUE(health_reject.ok());
  EXPECT_EQ(health_reject.value().status_code, 503);
  EXPECT_NE(health_reject.value().body.find("shed_tier=reject"),
            std::string::npos);

  // Draining the backlog de-escalates reject back to stale.
  server.admission().Resume();
  for (int i = 0; i < 2; ++i) {
    auto drained = client.ReadResponse();
    ASSERT_TRUE(drained.ok());
    EXPECT_EQ(drained.value().status_code, 200);
    EXPECT_NE(drained.value().body.find("\"degraded\":true"),
              std::string::npos);
  }
}

TEST(HttpFrontDoorTest, BreakerRecoversOverHttpOnceTheEmbedderHeals) {
  std::atomic<bool> embedder_down{true};
  ServeConfig serve_config = QuickServeConfig();
  serve_config.breaker.failure_threshold = 2;
  serve_config.embed_retry.max_attempts = 1;
  serve_config.degraded_serving = false;
  BatchingServer server(
      TestModel(),
      [&embedder_down](NodeId node, std::span<float> out) {
        if (embedder_down.load()) return Status::Unavailable("embedder down");
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, serve_config);
  HttpFrontDoor door(&server, HttpFrontDoorConfig{});
  ASSERT_TRUE(door.Start().ok());
  HttpClient client = Dial(door.port());

  // Trip the breaker over HTTP; from here on every infer is shed to the
  // stale tier.
  for (NodeId node : {NodeId{2}, NodeId{3}}) {
    auto failed = client.Post("/v1/infer", InferBody(node));
    ASSERT_TRUE(failed.ok());
    EXPECT_EQ(failed.value().status_code, 503);
  }
  ASSERT_EQ(server.breaker_state(), common::CircuitBreaker::State::kOpen);

  // Heal the embedder. Stale-tier requests for uncached nodes still go
  // through the breaker, so within probe_interval of them one is the
  // half-open probe; its success closes the breaker.
  embedder_down.store(false);
  const int probes = serve_config.breaker.probe_interval + 1;
  for (int i = 0; i < probes; ++i) {
    auto response =
        client.Post("/v1/infer", InferBody(static_cast<NodeId>(10 + i)));
    ASSERT_TRUE(response.ok());
  }
  EXPECT_EQ(server.breaker_state(), common::CircuitBreaker::State::kClosed);
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status_code, 200) << health.value().body;
  for (NodeId node : {NodeId{40}, NodeId{41}}) {
    auto served = client.Post("/v1/infer", InferBody(node));
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(served.value().status_code, 200);
    EXPECT_NE(served.value().body.find("\"degraded\":false"),
              std::string::npos);
  }
}

TEST(HttpFrontDoorTest, DeadlineCountsTimeSpentInAdmission) {
  BatchingServer server(
      TestModel(),
      [](NodeId node, std::span<float> out) {
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig());
  HttpFrontDoor door(&server, HttpFrontDoorConfig{});
  ASSERT_TRUE(door.Start().ok());
  HttpClient client = Dial(door.port());

  // Hold a request with a 2 ms budget in admission for 50 ms.
  const uint64_t batches_before = server.Metrics().batches;
  server.admission().Pause();
  ASSERT_TRUE(client
                  .SendRequest("POST", "/v1/infer",
                               "{\"node\":5,\"deadline_micros\":2000}",
                               "application/json")
                  .ok());
  ASSERT_TRUE(WaitFor([&] { return server.admission().TotalQueued() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.admission().Resume();

  auto expired = client.ReadResponse();
  ASSERT_TRUE(expired.ok()) << expired.status().ToString();
  EXPECT_EQ(expired.value().status_code, 504);
  EXPECT_NE(expired.value().body.find("deadline_exceeded"), std::string::npos);
  // Answered by the batcher before it formed a batch around it.
  EXPECT_EQ(server.Metrics().batches, batches_before);
}

TEST(HttpFrontDoorTest, TenantQuotaRejects429) {
  BatchingServer server(
      TestModel(),
      [](NodeId node, std::span<float> out) {
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig());
  HttpFrontDoorConfig config;
  config.admission.tenants["capped"] =
      TenantQuota{1.0, /*bucket_capacity=*/1.0, /*refill_per_dispatch=*/0.0};
  HttpFrontDoor door(&server, config);
  ASSERT_TRUE(door.Start().ok());
  HttpClient client = Dial(door.port());

  auto first = client.Post("/v1/infer", InferBody(1, "capped"));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().status_code, 200);
  auto second = client.Post("/v1/infer", InferBody(2, "capped"));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().status_code, 429);
  EXPECT_NE(second.value().body.find("resource_exhausted"),
            std::string::npos);
  // The anonymous tenant is not billed against "capped"'s bucket.
  auto other = client.Post("/v1/infer", InferBody(3));
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other.value().status_code, 200);
}

TEST(HttpFrontDoorTest, HealthzFlipsOnInjectedTornReadsAndRecovers) {
  common::FaultInjector faults(7);
  // Tear connection 1's first read mid-message.
  faults.ArmAt(kSiteReadTrunc,
               static_cast<int64_t>(ReadToken(/*conn_id=*/1, /*read_seq=*/0)));
  core::RunContext ctx;
  ctx.faults = &faults;

  BatchingServer server(
      TestModel(),
      [](NodeId node, std::span<float> out) {
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig());
  HttpFrontDoorConfig config;
  config.torn_read_threshold = 1;
  HttpFrontDoor door(&server, config, ctx);
  ASSERT_TRUE(door.Start().ok());

  HttpClient probe = Dial(door.port());  // conn 0
  auto healthy = probe.Get("/healthz");
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy.value().status_code, 200);

  // conn 1: its first read is torn by the injector; the server closes the
  // connection without answering (clean close from the client's side — it
  // had no response bytes in flight).
  HttpClient victim = Dial(door.port());
  ASSERT_TRUE(
      victim.SendRequest("POST", "/v1/infer", InferBody(1), "application/json")
          .ok());
  auto torn = victim.ReadResponse();
  EXPECT_FALSE(torn.ok());

  // The torn stream flips /healthz; probes are observers and do not reset
  // the streak, so the 503 stays visible across consecutive probes.
  ASSERT_TRUE(WaitFor([&] { return !door.Healthy(); }));
  for (int i = 0; i < 2; ++i) {
    auto unhealthy = probe.Get("/healthz");
    ASSERT_TRUE(unhealthy.ok());
    EXPECT_EQ(unhealthy.value().status_code, 503);
    EXPECT_NE(unhealthy.value().body.find("torn_streak=1"),
              std::string::npos);
  }

  // Any successfully parsed request proves the stream is healthy again.
  auto good = probe.Post("/v1/infer", InferBody(1));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().status_code, 200);
  auto recovered = probe.Get("/healthz");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().status_code, 200);
}

TEST(HttpFrontDoorTest, InjectedAcceptFaultDropsOneConnection) {
  common::FaultInjector faults(7);
  faults.ArmAt(kSiteAcceptFail, 1);  // Drop the second accepted connection.
  core::RunContext ctx;
  ctx.faults = &faults;

  BatchingServer server(
      TestModel(),
      [](NodeId node, std::span<float> out) {
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig());
  HttpFrontDoor door(&server, HttpFrontDoorConfig{}, ctx);
  ASSERT_TRUE(door.Start().ok());

  HttpClient first = Dial(door.port());
  ASSERT_TRUE(first.Get("/healthz").ok());

  // The dropped connection establishes at the TCP level (the kernel
  // completed the handshake) but the front door closes it immediately.
  HttpClient dropped = Dial(door.port());
  ASSERT_TRUE(dropped
                  .SendRequest("GET", "/healthz", "", "application/json")
                  .ok());
  EXPECT_FALSE(dropped.ReadResponse().ok());

  // The listener keeps accepting, and accept faults do not mark the
  // service unhealthy — no stream was torn mid-message.
  HttpClient third = Dial(door.port());
  auto health = third.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status_code, 200);
}

TEST(HttpFrontDoorTest, SharedRegistryExposesNetAndServeSeries) {
  obs::MetricsRegistry registry;
  core::RunContext ctx;
  ctx.metrics = &registry;

  BatchingServer server(
      TestModel(),
      [](NodeId node, std::span<float> out) {
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig(), ctx);
  HttpFrontDoor door(&server, HttpFrontDoorConfig{}, ctx);
  ASSERT_TRUE(door.Start().ok());
  HttpClient client = Dial(door.port());

  ASSERT_TRUE(client.Post("/v1/infer", InferBody(4)).ok());
  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  const std::string& body = metrics.value().body;
  // One registry, one scrape: the net series and the serve series the
  // front door fronts arrive in the same exposition.
  EXPECT_NE(body.find("sgnn_net_accepted_total"), std::string::npos);
  EXPECT_NE(body.find("sgnn_net_dispatches_total 1"), std::string::npos);
  EXPECT_NE(body.find("sgnn_serve_requests_served_total"),
            std::string::npos);
  EXPECT_NE(body.find("sgnn_serve_latency_ticks"), std::string::npos);
}

TEST(HttpFrontDoorTest, StartAddsExactlyTheEventLoopThread) {
  BatchingServer server(
      TestModel(),
      [](NodeId node, std::span<float> out) {
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig());
  // Tid sets, not counts: a thread joined by an earlier test can still be
  // listed in `before` and vanish at any moment.
  const std::set<std::string> before = ThreadIds();
  HttpFrontDoor door(&server, HttpFrontDoorConfig{});
  ASSERT_TRUE(door.Start().ok());
  // The epoll thread submits straight into the server's queue, and
  // completions run on the server's threads, so the door owns only the
  // epoll thread.
  std::vector<std::string> started;
  for (const std::string& tid : ThreadIds()) {
    if (!before.contains(tid)) started.push_back(tid);
  }
  EXPECT_EQ(started.size(), 1u);
  HttpClient client = Dial(door.port());
  auto infer = client.Post("/v1/infer", InferBody(3));
  ASSERT_TRUE(infer.ok()) << infer.status().ToString();
  EXPECT_EQ(infer.value().status_code, 200);
  door.Shutdown();
  // Shutdown joined the epoll thread, and no thread leaked: every thread
  // not present before has exited.
  for (const std::string& tid : ThreadIds()) {
    if (!before.contains(tid)) {
      EXPECT_TRUE(ThreadExited(tid)) << "tid " << tid;
    }
  }
}

TEST(HttpFrontDoorTest, ClientThatStopsReadingDoesNotStallOtherConnections) {
  BatchingServer server(
      TestModel(),
      [](NodeId node, std::span<float> out) {
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig());
  HttpFrontDoor door(&server, HttpFrontDoorConfig{});
  ASSERT_TRUE(door.Start().ok());

  // A client pipelines more /metrics responses (~2 KB each) than the
  // loopback socket buffers can hold (tcp_wmem tops out at 4 MB by
  // default), and never reads one. The door must hang it up rather than
  // block the thread that writes its responses.
  constexpr int kPipelined = 4000;
  std::string burst;
  for (int i = 0; i < kPipelined; ++i) {
    burst += SerializeRequest("GET", "/metrics", "", "");
  }
  auto raw = ConnectTcp("127.0.0.1", door.port());
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  OwnedFd stalled = std::move(raw).value();
  // Sent from a helper thread: if the door stops reading, the burst's
  // tail can block, and the hang-up below must still reach it.
  Status sent;
  std::thread sender(
      [&] { sent = SendAll(stalled.fd(), burst.data(), burst.size()); });

  // Give the door time to hit the full buffer, then probe on a second
  // connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  HttpClient probe = Dial(door.port());
  auto answered = std::async(std::launch::async,
                             [&probe] { return probe.Get("/healthz"); });
  const bool in_time = answered.wait_for(std::chrono::seconds(2)) ==
                       std::future_status::ready;
  // Unblock the sender, then close: the reset frees a door thread stuck
  // writing to this client, so the test ends even when the check fails.
  Hangup(stalled.fd());
  sender.join();
  stalled.Close();
  // The tail of the burst may meet the door's hang-up.
  EXPECT_TRUE(sent.ok() || sent.code() == StatusCode::kUnavailable)
      << sent.ToString();
  EXPECT_TRUE(in_time) << "/healthz unanswered while a client stalls";
  auto health = answered.get();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().status_code, 200);
}

TEST(HttpFrontDoorTest, ShutdownAnswersRequestsHeldInsideTheServer) {
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> embedding{0};
  obs::MetricsRegistry registry;
  core::RunContext ctx;
  ctx.metrics = &registry;
  BatchingServer server(
      TestModel(),
      [opened, &embedding](NodeId node, std::span<float> out) {
        embedding.fetch_add(1);
        opened.wait();  // Hold every request until the test opens the gate.
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig(), ctx);
  auto door = std::make_unique<HttpFrontDoor>(&server, HttpFrontDoorConfig{},
                                              ctx);
  ASSERT_TRUE(door->Start().ok());
  HttpClient client = Dial(door->port());

  const std::vector<NodeId> nodes = {11, 2, 30, 7};
  for (NodeId node : nodes) {
    ASSERT_TRUE(client
                    .SendRequest("POST", "/v1/infer", InferBody(node),
                                 "application/json")
                    .ok());
  }
  obs::Counter* admitted = registry.GetCounter(
      "sgnn_net_infer_admitted_total", "", {}, obs::kVolatile);
  const bool held = WaitFor([&] {
    return admitted->value() == nodes.size() && embedding.load() >= 1;
  });
  if (!held) gate.set_value();  // Let the server's destructor finish.
  ASSERT_TRUE(held);

  std::atomic<bool> shut_down{false};
  std::thread shutter([&] {
    door->Shutdown();
    shut_down.store(true);
  });
  // Shutdown must wait for the held requests, not drop them.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(shut_down.load());
  gate.set_value();
  shutter.join();
  door.reset();  // The door goes first; the server outlives it.

  // The connection is closed now, so every response below was written
  // before Shutdown returned.
  for (NodeId node : nodes) {
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status_code, 200);
    EXPECT_NE(response.value().body.find(
                  "\"node\":" + std::to_string(node) + ","),
              std::string::npos);
  }
}

}  // namespace
}  // namespace sgnn::net
