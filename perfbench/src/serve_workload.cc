// serve-zipf: a trained SGC pipeline handed to `serve::ServePipeline` and
// fronted by `net::HttpFrontDoor`, driven over loopback by an open-loop
// generator (one process, two threads, four keep-alive connections with
// one default-quota tenant each) sending a seeded Zipf(1.1) node stream at
// seeded Poisson arrival times. The timed phase alternates a run of the
// training pipeline with a serving step, so the workload reports the
// training metrics of the model it serves next to the serving cost.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "models/decoupled.h"
#include "net/http.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "par/par.h"
#include "serve/batching_server.h"
#include "serve/frozen_model.h"
#include "serve/handoff.h"
#include "serve/khop_embedder.h"
#include "support.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sgnn::core::Dataset;
using sgnn::graph::NodeId;
using sgnn::serve::BatchingServer;
using sgnn::tensor::Matrix;

constexpr int kHops = 2;
constexpr int kConnections = 4;
constexpr double kZipfExponent = 1.1;
/// p99 latency limit a ladder rate must meet to count towards
/// `max_rate_rps`. Host (hypervisor) stalls of tens of milliseconds are
/// routine on small shared VMs; a limit well above them makes the ladder
/// find where the server's own backlog starts, not where the host
/// hiccuped. A one-second rung 10 % over capacity already queues past it.
constexpr double kLatencyLimitUs = 100000.0;
/// A step whose generator sent its p99 request later than this after its
/// due time is invalid: the generator, not the server, would have shaped
/// its tail. Latency counts from the due time, so lateness below the bound
/// is still charged to the server.
constexpr double kLateBoundUs = 10000.0;
/// Ladder rates step up geometrically from the `hi` rate: coarsely to
/// bracket the limit, then finely inside the bracket.
constexpr double kCoarseFactor = 1.5;
constexpr int kCoarseRungs = 8;
constexpr double kFineFactor = 1.08;
/// Attempts of a step that fell behind schedule.
constexpr int kAttempts = 2;
/// Responses still missing this long after the last send count as failed.
constexpr double kDrainSeconds = 5.0;

struct Rates {
  double lo, mid, hi;
};

Rates FixedRates(const Options& options) {
  return options.smoke() ? Rates{100, 200, 400} : Rates{500, 1000, 1500};
}

/// Deterministic 64-bit mix (splitmix64 finaliser).
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double Uniform01(std::mt19937_64* rng) {
  return static_cast<double>((*rng)() >> 11) * 0x1.0p-53;
}

/// The seeded request stream: a warm-up prefix replayed untimed before
/// every step, then the timed node sequence every step draws from.
struct Stream {
  std::vector<NodeId> prefix;
  std::vector<NodeId> timed;
};

Stream MakeStream(NodeId num_nodes, size_t prefix_len, size_t timed_len,
                  uint64_t seed) {
  std::mt19937_64 rng(Mix(seed ^ 0x5A17F00Dull));
  // Zipf rank -> node through a seeded permutation, so hot nodes are
  // spread over the graph instead of clustered at low ids.
  std::vector<NodeId> node_of_rank(static_cast<size_t>(num_nodes));
  for (size_t i = 0; i < node_of_rank.size(); ++i) {
    node_of_rank[i] = static_cast<NodeId>(i);
  }
  for (size_t i = node_of_rank.size(); i > 1; --i) {
    std::swap(node_of_rank[i - 1], node_of_rank[rng() % i]);
  }
  std::vector<double> cdf(node_of_rank.size());
  double total = 0.0;
  for (size_t r = 0; r < cdf.size(); ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
    cdf[r] = total;
  }
  auto draw = [&] {
    const double u = Uniform01(&rng) * total;
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    return node_of_rank[std::min(rank, cdf.size() - 1)];
  };
  Stream stream;
  for (size_t i = 0; i < prefix_len; ++i) stream.prefix.push_back(draw());
  for (size_t i = 0; i < timed_len; ++i) stream.timed.push_back(draw());
  return stream;
}

/// Seeded Poisson arrival offsets (seconds from step start) at `rate`
/// over `duration`.
std::vector<double> Arrivals(double rate, double duration, uint64_t seed) {
  std::mt19937_64 rng(Mix(seed ^ Mix(static_cast<uint64_t>(rate * 1000))));
  std::vector<double> due;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - Uniform01(&rng)) / rate;
    if (t >= duration) break;
    due.push_back(t);
  }
  return due;
}

// ------------------------------------------------------------ the server

/// One fresh server (model, cache, front door) for one step.
struct Served {
  std::unique_ptr<sgnn::obs::MetricsRegistry> registry;
  std::unique_ptr<BatchingServer> server;
  std::unique_ptr<sgnn::net::HttpFrontDoor> door;
  /// Server metrics right after the warm-up replay.
  sgnn::serve::ServeMetricsSnapshot warm;

  ~Served() {
    if (door) door->Shutdown();
    if (server) server->Shutdown();
  }
};

sgnn::serve::ServeConfig BenchServeConfig() {
  sgnn::serve::ServeConfig config;
  config.queue_capacity = 1 << 16;
  return config;
}

/// Embedding spans of the traced run: `KHopEmbedder::Embed` timed inside
/// an `EmbeddingFn` composed exactly as `ServePipeline` composes it.
struct EmbedTrace {
  SpanRecorder* recorder = nullptr;
  std::atomic<bool> timing{false};
  std::mutex mu;
  std::vector<double> micros;
};

/// Starts a fresh server + front door and replays the warm-up prefix
/// in-process (at most 32 outstanding), so every step starts from the same
/// cache contents.
std::unique_ptr<Served> StartServer(const Dataset& dataset,
                                    const sgnn::core::PipelineReport& report,
                                    const Stream& stream, bool with_door,
                                    EmbedTrace* embed_trace, Result* result) {
  auto served = std::make_unique<Served>();
  sgnn::core::RunContext ctx;
  if (embed_trace != nullptr) {
    served->registry = std::make_unique<sgnn::obs::MetricsRegistry>();
    ctx.metrics = served->registry.get();
    auto embedder = std::make_shared<sgnn::serve::KHopEmbedder>(
        dataset.graph, dataset.features, kHops);
    sgnn::serve::EmbeddingFn embed_fn =
        [embedder, embed_trace](NodeId node, std::span<float> out) {
          if (!embed_trace->timing.load(std::memory_order_relaxed)) {
            embedder->Embed(node, out);
            return sgnn::common::Status::OK();
          }
          const double t0 = Now();
          embedder->Embed(node, out);
          const double t1 = Now();
          embed_trace->recorder->Add("serve.embed", -1,
                                     static_cast<int64_t>(node), t0, t1);
          std::lock_guard<std::mutex> lock(embed_trace->mu);
          embed_trace->micros.push_back((t1 - t0) * 1e6);
          return sgnn::common::Status::OK();
        };
    served->server = std::make_unique<BatchingServer>(
        sgnn::serve::FrozenModel::FromMlp(*report.model.fitted_head),
        std::move(embed_fn), dataset.num_nodes(), BenchServeConfig(), ctx);
  } else {
    auto server = sgnn::serve::ServePipeline(dataset, report, kHops,
                                             BenchServeConfig(), ctx);
    if (!server.ok()) {
      result->Check("serve_pipeline", false, server.status().ToString());
      return nullptr;
    }
    served->server = std::move(server).value();
  }
  if (with_door) {
    sgnn::net::HttpFrontDoorConfig door_config;
    door_config.admission.per_tenant_capacity = 1 << 14;
    served->door = std::make_unique<sgnn::net::HttpFrontDoor>(
        served->server.get(), door_config, ctx);
    const sgnn::common::Status started = served->door->Start();
    if (!started.ok()) {
      result->Check("front_door_start", false, started.ToString());
      return nullptr;
    }
  }
  std::deque<std::future<sgnn::serve::InferenceResponse>> window;
  bool warm_ok = true;
  for (size_t i = 0; i <= stream.prefix.size(); ++i) {
    while (!window.empty() && (window.size() >= 32 || i == stream.prefix.size())) {
      warm_ok = window.front().get().status.ok() && warm_ok;
      window.pop_front();
    }
    if (i == stream.prefix.size()) break;
    auto future = served->server->Submit(
        sgnn::serve::InferenceRequest(stream.prefix[i]));
    if (!future.ok()) {
      warm_ok = false;
      continue;
    }
    window.push_back(std::move(future).value());
  }
  if (!warm_ok) {
    result->Check("warm_up", false, "a warm-up request failed");
    return nullptr;
  }
  served->warm = served->server->Metrics();
  return served;
}

// ----------------------------------------------------- open-loop client

/// Waits until `Now()` reads `t`: sleeps until shortly before, then spins,
/// because waking a sleeping (virtual) CPU can take milliseconds and that
/// would be charged to the server as generator lateness.
void SleepUntil(double t) {
  constexpr double kSpinSeconds = 300e-6;
  if (t - Now() > kSpinSeconds) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(t - kSpinSeconds))));
  }
  while (Now() < t) {
  }
}

int Dial(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool WriteAll(int fd, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

/// What one open-loop step measured. Latency runs from each request's due
/// time to its response; a failed or unanswered request is +infinity.
struct StepResult {
  std::vector<NodeId> nodes;
  std::vector<double> latency_us;
  std::vector<double> late_us;
  /// Response bodies of the seeded sample checked bit for bit.
  std::vector<std::pair<size_t, std::string>> sampled;
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double late_p99_us = 0.0;
  /// CPU seconds the generator's own two threads spent on the step.
  double loadgen_cpu_s = 0.0;
  /// Server CPU per answered request: process CPU over the step minus the
  /// generator's.
  double server_cpu_us_per_req = 0.0;
  bool backlog_growing = false;
  bool valid() const { return late_p99_us <= kLateBoundUs; }
  bool meets_limit() const {
    return valid() && failed == 0 && !backlog_growing &&
           p99_us <= kLatencyLimitUs;
  }
};

void Summarise(StepResult* step) {
  const double inf = std::numeric_limits<double>::infinity();
  step->p50_us = Percentile(step->latency_us, 0.50);
  step->p99_us = Percentile(step->latency_us, 0.99);
  step->late_p99_us = Percentile(step->late_us, 0.99);
  // Backlog grows when the last quarter waits much longer than the first.
  const size_t q = step->latency_us.size() / 4;
  if (q >= 8) {
    std::vector<double> first(step->latency_us.begin(),
                              step->latency_us.begin() + static_cast<int64_t>(q));
    std::vector<double> last(step->latency_us.end() - static_cast<int64_t>(q),
                             step->latency_us.end());
    const double head = Median(first);
    const double tail = Median(last);
    step->backlog_growing =
        tail == inf || tail > 2.0 * head + 0.5 * kLatencyLimitUs;
  }
}

/// The seeded 1-in-16 sample of a step's first 512 requests whose logits
/// are checked bit for bit.
bool Sampled(uint64_t seed, size_t index) {
  return index < 512 && Mix(seed ^ (index * 0x100000001B3ull)) % 16 == 0;
}

/// Sends `nodes[i]` at `due[i]` seconds after the step starts over
/// `kConnections` keep-alive connections (request i on connection
/// i mod 4, tenant "t<conn>"); the calling thread sends, one receiver
/// thread polls all connections and parses responses in order.
StepResult OpenLoopHttp(uint16_t port, const std::vector<NodeId>& nodes,
                        const std::vector<double>& due, uint64_t seed,
                        SpanRecorder* recorder, int64_t parent,
                        int64_t* next_request_id) {
  StepResult step;
  const size_t n = due.size();
  for (size_t i = 0; i < n; ++i) step.nodes.push_back(nodes[i % nodes.size()]);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> sent_at(n, nan), recv_at(n, nan);
  std::vector<int> http_status(n, 0);
  int fds[kConnections];
  for (int c = 0; c < kConnections; ++c) fds[c] = Dial(port);
  std::mutex mu;
  std::deque<size_t> pending[kConnections];
  std::atomic<bool> sending_done{false};
  std::atomic<double> last_send{0.0};

  std::atomic<double> receiver_cpu{0.0};
  std::thread receiver([&] {
    const double cpu0 = ThreadCpuSeconds();
    sgnn::net::HttpResponseParser parsers[kConnections];
    bool open[kConnections];
    pollfd pfds[kConnections];
    for (int c = 0; c < kConnections; ++c) {
      open[c] = fds[c] >= 0;
      pfds[c] = {fds[c], POLLIN, 0};
    }
    size_t received = 0;
    char buf[1 << 16];
    while (received < n) {
      if (sending_done.load() && Now() > last_send.load() + kDrainSeconds) {
        break;
      }
      if (poll(pfds, kConnections, 2) <= 0) continue;
      for (int c = 0; c < kConnections; ++c) {
        if (!open[c] || (pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        const ssize_t got = read(fds[c], buf, sizeof buf);
        if (got <= 0) {
          if (got < 0 && errno == EINTR) continue;
          open[c] = false;
          pfds[c].fd = -1;
          continue;
        }
        const double now = Now();
        if (!parsers[c].Feed(std::string_view(buf, static_cast<size_t>(got))).ok()) {
          open[c] = false;
          pfds[c].fd = -1;
          continue;
        }
        sgnn::net::HttpResponse response;
        while (parsers[c].TakeResponse(&response)) {
          size_t index = 0;
          {
            std::lock_guard<std::mutex> lock(mu);
            if (pending[c].empty()) break;
            index = pending[c].front();
            pending[c].pop_front();
          }
          recv_at[index] = now;
          http_status[index] = response.status_code;
          if (Sampled(seed, index)) {
            step.sampled.emplace_back(index, std::move(response.body));
          }
          ++received;
        }
      }
      if (std::none_of(open, open + kConnections, [](bool o) { return o; })) {
        break;
      }
    }
    receiver_cpu.store(ThreadCpuSeconds() - cpu0);
  });

  const double sender_cpu0 = ThreadCpuSeconds();
  const double start = Now() + 0.005;
  for (size_t i = 0; i < n; ++i) {
    SleepUntil(start + due[i]);
    const int c = static_cast<int>(i % kConnections);
    const std::string body = "{\"node\":" + std::to_string(step.nodes[i]) +
                             ",\"tenant\":\"t" + std::to_string(c) + "\"}";
    {
      std::lock_guard<std::mutex> lock(mu);
      pending[c].push_back(i);
    }
    const bool wrote =
        fds[c] >= 0 &&
        WriteAll(fds[c], sgnn::net::SerializeRequest("POST", "/v1/infer", body,
                                                     "application/json"));
    sent_at[i] = Now();
    if (!wrote) {
      std::lock_guard<std::mutex> lock(mu);
      if (!pending[c].empty() && pending[c].back() == i) pending[c].pop_back();
    }
    last_send.store(sent_at[i]);
  }
  sending_done.store(true);
  const double sender_cpu = ThreadCpuSeconds() - sender_cpu0;
  receiver.join();
  step.loadgen_cpu_s = sender_cpu + receiver_cpu.load();
  for (int c = 0; c < kConnections; ++c) {
    if (fds[c] >= 0) close(fds[c]);
  }

  const double inf = std::numeric_limits<double>::infinity();
  step.sent = static_cast<int64_t>(n);
  for (size_t i = 0; i < n; ++i) {
    const double due_at = start + due[i];
    const bool ok = http_status[i] == 200 && !std::isnan(recv_at[i]);
    step.latency_us.push_back(ok ? (recv_at[i] - due_at) * 1e6 : inf);
    step.late_us.push_back((sent_at[i] - due_at) * 1e6);
    if (ok) {
      ++step.ok;
    } else {
      ++step.failed;
    }
    if (recorder != nullptr) {
      const int64_t id = (*next_request_id)++;
      const double end = ok ? recv_at[i] : sent_at[i];
      const int64_t req =
          recorder->Add("net.request", parent, id, due_at, std::max(due_at, end));
      recorder->Add("loadgen.late", req, id, due_at, std::max(due_at, sent_at[i]));
    }
  }
  Summarise(&step);
  return step;
}

/// The same open loop against `BatchingServer::Submit` in-process: the
/// calling thread submits on schedule, one waiter thread resolves futures
/// in order.
StepResult OpenLoopInProcess(BatchingServer* server,
                             const std::vector<NodeId>& nodes,
                             const std::vector<double>& due) {
  StepResult step;
  const size_t n = due.size();
  for (size_t i = 0; i < n; ++i) step.nodes.push_back(nodes[i % nodes.size()]);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> sent_at(n, nan), done_at(n, nan);
  std::vector<char> ok(n, 0);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<size_t, std::future<sgnn::serve::InferenceResponse>>> queue;
  bool sending_done = false;
  std::thread waiter([&] {
    while (true) {
      std::pair<size_t, std::future<sgnn::serve::InferenceResponse>> item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || sending_done; });
        if (queue.empty()) return;
        item = std::move(queue.front());
        queue.pop_front();
      }
      const bool good = item.second.get().status.ok();
      done_at[item.first] = Now();
      ok[item.first] = good ? 1 : 0;
    }
  });
  const double start = Now() + 0.005;
  for (size_t i = 0; i < n; ++i) {
    SleepUntil(start + due[i]);
    auto future = server->Submit(sgnn::serve::InferenceRequest(step.nodes[i]));
    sent_at[i] = Now();
    if (!future.ok()) continue;
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.emplace_back(i, std::move(future).value());
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    sending_done = true;
  }
  cv.notify_one();
  waiter.join();
  const double inf = std::numeric_limits<double>::infinity();
  step.sent = static_cast<int64_t>(n);
  for (size_t i = 0; i < n; ++i) {
    const double due_at = start + due[i];
    step.latency_us.push_back(ok[i] ? (done_at[i] - due_at) * 1e6 : inf);
    step.late_us.push_back((sent_at[i] - due_at) * 1e6);
    if (ok[i]) {
      ++step.ok;
    } else {
      ++step.failed;
    }
  }
  Summarise(&step);
  return step;
}

// ------------------------------------------------------------- checking

/// Parses the `"logits":[...]` array of a success body.
bool ParseLogits(const std::string& body, std::vector<float>* logits) {
  const size_t at = body.find("\"logits\":[");
  if (body.rfind("{\"status\":\"ok\"", 0) != 0 || at == std::string::npos) {
    return false;
  }
  const char* p = body.c_str() + at + 10;
  while (*p != ']') {
    char* end = nullptr;
    logits->push_back(std::strtof(p, &end));
    if (end == p) return false;
    p = end;
    if (*p == ',') ++p;
  }
  return true;
}

/// Output checks of every step, summed over the run.
struct StepChecks {
  int64_t logits_checked = 0;
  int64_t logits_mismatched = 0;
  int64_t unaccounted = 0;

  void Report(Result* result) const {
    result->Check("logits_bit_identical",
                  logits_checked > 0 && logits_mismatched == 0,
                  std::to_string(logits_checked - logits_mismatched) + "/" +
                      std::to_string(logits_checked) +
                      " sampled responses match");
    result->Check("requests_accounted", unaccounted == 0,
                  std::to_string(unaccounted) +
                      " requests neither answered nor counted as failed");
  }
};

/// The sampled responses' logits must equal, bit for bit, an in-process
/// `FrozenModel::Forward` over `KHopEmbedder::Embed` for the same node.
void CheckLogits(const StepResult& step, const sgnn::serve::FrozenModel& model,
                 const sgnn::serve::KHopEmbedder& embedder,
                 StepChecks* checks) {
  int64_t mismatches = 0;
  for (const auto& [index, body] : step.sampled) {
    std::vector<float> got;
    Matrix row(1, embedder.dim());
    embedder.Embed(step.nodes[index],
                   std::span<float>(row.data(), static_cast<size_t>(embedder.dim())));
    Matrix want;
    model.Forward(row, &want);
    const bool same =
        ParseLogits(body, &got) &&
        static_cast<int64_t>(got.size()) == want.cols() &&
        std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0;
    if (!same) ++mismatches;
  }
  checks->logits_checked += static_cast<int64_t>(step.sampled.size());
  checks->logits_mismatched += mismatches;
}

/// Every request sent is either answered (200) or counted as failed.
void Account(const StepResult& step, Result* result, StepChecks* checks) {
  result->attempted += step.sent;
  result->failed += step.failed;
  checks->unaccounted += step.sent - step.ok - step.failed;
}

/// One ladder over fixed rates, each on a fresh server: a coarse pass
/// kCoarseFactor apart above `hi` brackets the first rate that misses the
/// limit, then a fine pass kFineFactor apart climbs from the last coarse
/// rate that met it. A rung misses when it exceeds the p99 limit, fails a
/// request, grows a backlog or falls behind schedule; a rung that misses is
/// re-run once and counts if either run passes. Returns the limit crossing,
/// interpolated in log-latency between the highest rung that met the limit
/// and the lowest that missed it (the passing rate itself when the miss had
/// no finite p99 above the limit).
template <typename RunStep>
double LadderMaxRate(double hi, const RunStep& run_step, Result* result) {
  double pass_rate = hi;
  double pass_p99 = 0.0;
  double fail_rate = 0.0;
  double fail_p99 = 0.0;
  auto try_rate = [&](double rate) {
    StepResult rung = run_step(rate);
    // A miss is re-run once; a rung that only fell behind schedule gets a
    // second re-run, because generator stalls come from the host.
    for (int attempt = 1; attempt < 3 && !rung.meets_limit(); ++attempt) {
      if (attempt == 2 && rung.valid()) break;
      StepResult again = run_step(rate);
      if (again.meets_limit() || !rung.valid() || again.p99_us < rung.p99_us) {
        rung = std::move(again);
      }
    }
    result->Note("ladder_rate", rate);
    result->Note("ladder_p99_us", rung.p99_us);
    if (rung.meets_limit()) {
      pass_rate = rate;
      pass_p99 = rung.p99_us;
      return true;
    }
    fail_rate = rate;
    const bool measurable = std::isfinite(rung.p99_us) && rung.valid() &&
                            rung.failed == 0 &&
                            rung.p99_us > kLatencyLimitUs;
    fail_p99 = measurable ? rung.p99_us : 0.0;
    return false;
  };
  for (int k = 1; k <= kCoarseRungs && try_rate(hi * std::pow(kCoarseFactor, k));
       ++k) {
  }
  if (fail_rate == 0.0) return pass_rate;  // Never missed: capped.
  const double coarse_fail = fail_rate;
  const double coarse_fail_p99 = fail_p99;
  for (double rate = pass_rate * kFineFactor; rate < coarse_fail * 0.999;
       rate *= kFineFactor) {
    if (!try_rate(rate)) break;
  }
  if (fail_rate == coarse_fail) fail_p99 = coarse_fail_p99;
  if (pass_p99 <= 0.0 || fail_p99 <= 0.0) return pass_rate;
  const double f = (std::log(kLatencyLimitUs) - std::log(pass_p99)) /
                   (std::log(fail_p99) - std::log(pass_p99));
  return pass_rate + (fail_rate - pass_rate) * std::clamp(f, 0.0, 1.0);
}

/// Where the traced run puts the span of the SGC training call; a null
/// recorder (untraced runs) records nothing.
struct ModelTrace {
  SpanRecorder* recorder = nullptr;
  int64_t parent = -1;
};

}  // namespace

void RunServeZipf(const Options& options, Result* result) {
  // ---- setup: dataset, training, handoff.
  double gen_s = 0.0;
  const Dataset dataset =
      MakeDatasetTimed(options, options.trace ? 1 : 3, &gen_s);
  const sgnn::nn::TrainConfig config = BaseTrainConfig(options);
  double model_s = 0.0;
  ModelTrace model_trace;
  sgnn::core::Pipeline pipeline;
  pipeline.SetModel("sgc", [&model_s, &model_trace](
                               const sgnn::graph::CsrGraph& g, const Matrix& x,
                               std::span<const int> labels,
                               const sgnn::models::NodeSplits& splits,
                               const sgnn::nn::TrainConfig& cfg) {
    ScopedSpan span(model_trace.recorder, "models.sgc", model_trace.parent);
    const double t0 = Now();
    sgnn::models::ModelResult model =
        sgnn::models::TrainSgc(g, x, labels, splits, cfg);
    model_s = Now() - t0;
    return model;
  });
  auto run_pipeline = [&](sgnn::core::PipelineReport* out) {
    const double t0 = Now();
    *out = pipeline.Run(dataset, config);
    return Now() - t0;
  };
  // The warm-up run trains the model every step serves; later runs must
  // reproduce it bit for bit.
  sgnn::core::PipelineReport report;
  const double train_s = run_pipeline(&report);
  ObserveReport(report, result);
  result->attempted++;
  result->Check("fitted_head", report.model.fitted_head != nullptr);
  if (!result->ok()) {
    result->failed++;
    return;
  }
  std::printf("  setup: dataset %.4f s (median of %d), train %.4f s\n", gen_s,
              options.trace ? 1 : 3, train_s);

  const Rates rates = FixedRates(options);
  const double fixed_s = std::max(0.3, 0.1 * options.seconds);
  const double rung_s = std::max(0.3, 0.025 * options.seconds);
  const double max_rate = rates.hi * std::pow(kCoarseFactor, kCoarseRungs);
  const size_t prefix_len = options.smoke() ? 300 : 1000;
  const Stream stream =
      MakeStream(dataset.num_nodes(), prefix_len,
                 static_cast<size_t>(std::max(max_rate * rung_s,
                                              rates.hi * fixed_s) * 1.2) + 64,
                 options.seed);
  const sgnn::serve::FrozenModel model =
      sgnn::serve::FrozenModel::FromMlp(*report.model.fitted_head);
  const sgnn::serve::KHopEmbedder embedder(dataset.graph, dataset.features, kHops);

  std::vector<double> start_s;
  int64_t request_ids = 0;
  StepChecks checks;
  // One step: fresh server, warm-up replay, open loop at `rate`.
  auto run_step = [&](double rate, double duration, EmbedTrace* embed_trace,
                      SpanRecorder* recorder, int64_t parent,
                      std::unique_ptr<Served>* keep) -> StepResult {
    const double t0 = Now();
    std::unique_ptr<Served> served;
    {
      ScopedSpan span(recorder, "serve.setup", parent);
      served = StartServer(dataset, report, stream, true, embed_trace, result);
    }
    if (served == nullptr) return StepResult();
    start_s.push_back(Now() - t0);
    const std::vector<double> due = Arrivals(rate, duration, options.seed);
    if (embed_trace != nullptr) embed_trace->timing.store(true);
    StepResult step;
    {
      ScopedSpan span(recorder, "loadgen.step", parent);
      const double cpu0 = ProcessCpuSeconds();
      step = OpenLoopHttp(served->door->port(), stream.timed, due,
                          options.seed, recorder, span.id(), &request_ids);
      step.server_cpu_us_per_req =
          (ProcessCpuSeconds() - cpu0 - step.loadgen_cpu_s) * 1e6 /
          static_cast<double>(std::max<int64_t>(1, step.ok));
    }
    if (embed_trace != nullptr) embed_trace->timing.store(false);
    Account(step, result, &checks);
    CheckLogits(step, model, embedder, &checks);
    std::printf("  step %8.1f req/s: sent %lld ok %lld p50 %.1f us p99 %.1f us "
                "late p50/p90/p99 %.1f/%.1f/%.1f us, start %.3f s%s%s\n",
                rate, static_cast<long long>(step.sent),
                static_cast<long long>(step.ok), step.p50_us, step.p99_us,
                Percentile(step.late_us, 0.5), Percentile(step.late_us, 0.9),
                step.late_p99_us, start_s.back(), step.valid() ? "" : " INVALID",
                step.backlog_growing ? " BACKLOG" : "");
    if (keep != nullptr) *keep = std::move(served);
    return step;
  };
  // A fixed step that fell behind schedule is re-run on a fresh server,
  // up to kAttempts times; if every attempt fell behind, the least late
  // one is kept and marked invalid in the notes.
  auto fixed_step = [&](const std::string& name, double rate,
                        EmbedTrace* embed_trace, SpanRecorder* recorder,
                        int64_t parent, std::unique_ptr<Served>* keep) {
    StepResult step = run_step(rate, fixed_s, embed_trace, recorder, parent, keep);
    for (int attempt = 1; attempt < kAttempts && !step.valid(); ++attempt) {
      std::unique_ptr<Served> again_server;
      StepResult again = run_step(rate, fixed_s, embed_trace, recorder, parent,
                                  keep != nullptr ? &again_server : nullptr);
      if (again.late_p99_us < step.late_p99_us) {
        step = std::move(again);
        if (keep != nullptr) *keep = std::move(again_server);
      }
    }
    result->Note("late_p99_us." + name, step.late_p99_us);
    result->Note("invalid_step." + name, step.valid() ? 0.0 : 1.0);
    return step;
  };

  if (!options.trace) {
    // Alternates a training run and a step at the `hi` rate until another
    // pair would end past `options.seconds` (at least three pairs).
    std::vector<double> walls, throughput, cpu_us, pair_s;
    int64_t served_total = 0;
    const double train_rows = static_cast<double>(dataset.splits.train.size());
    const double start = Now();
    while (walls.size() < 3 ||
           Now() - start + Median(pair_s) <= options.seconds) {
      const double t0 = Now();
      sgnn::core::PipelineReport again;
      walls.push_back(run_pipeline(&again));
      CheckReport(again, report, result);
      throughput.push_back(again.model.report.epochs_run * train_rows / model_s);
      const StepResult step =
          fixed_step("hi", rates.hi, nullptr, nullptr, -1, nullptr);
      cpu_us.push_back(step.server_cpu_us_per_req);
      served_total += step.ok;
      pair_s.push_back(Now() - t0);
    }
    const auto n = static_cast<int64_t>(walls.size());
    result->Metric("setup_s", gen_s + Median(walls) + Median(start_s), "s",
                   static_cast<int64_t>(start_s.size()));
    result->Metric("pipeline_s", Median(walls), "s", n);
    result->Metric("train_samples_per_s", Median(throughput), "1/s", n);
    result->Metric("test_acc", report.model.report.test_accuracy, "fraction");
    result->Metric("peak_rss_mb", PeakRssMb(), "MB");
    result->Metric("cpu_us_per_item", Median(cpu_us), "us", served_total);
    checks.Report(result);
    return;
  }

  // ---- traced run.
  SpanRecorder recorder;
  EmbedTrace embed_trace;
  embed_trace.recorder = &recorder;
  // Untraced steps first: the tail latencies and the HTTP side of
  // `net.hop_p50_us` come from these.
  const StepResult plain_lo = fixed_step("lo_untraced", rates.lo, nullptr,
                                         nullptr, -1, nullptr);
  const StepResult plain_mid = fixed_step("mid_untraced", rates.mid, nullptr,
                                          nullptr, -1, nullptr);
  const StepResult plain_hi = fixed_step("hi_untraced", rates.hi, nullptr,
                                         nullptr, -1, nullptr);
  result->Metric("p50_us.lo", plain_lo.p50_us, "us", plain_lo.sent);
  result->Metric("p50_us.mid", plain_mid.p50_us, "us", plain_mid.sent);
  result->Metric("p50_us.hi", plain_hi.p50_us, "us", plain_hi.sent);
  result->Metric("p99_us.lo", plain_lo.p99_us, "us", plain_lo.sent);
  result->Metric("p99_us.mid", plain_mid.p99_us, "us", plain_mid.sent);
  result->Metric("p99_us.hi", plain_hi.p99_us, "us", plain_hi.sent);
  // In-process Submit round trip on the same stream at the lo rate.
  StepResult submit;
  {
    std::unique_ptr<Served> served =
        StartServer(dataset, report, stream, false, nullptr, result);
    if (served == nullptr) return;
    submit = OpenLoopInProcess(served->server.get(), stream.timed,
                               Arrivals(rates.lo, fixed_s, options.seed));
    Account(submit, result, &checks);
  }

  const sgnn::par::ParStats par0 = sgnn::par::Stats();
  const sgnn::common::OpCounters ops0 = sgnn::common::AggregateThreadCounters();
  const double cpu0 = ProcessCpuSeconds();
  uint64_t hits = 0, misses = 0, batches = 0, served_requests = 0;
  uint64_t max_depth = 0;
  double dispatches = 0, shed = 0, http_errors = 0, late_p99 = 0;
  double traced_lo_p50 = 0.0;
  int64_t root_id = -1;
  double root_wall = 0.0;
  {
    ScopedSpan root(&recorder, "serve.traced_run", -1);
    root_id = root.id();
    const double root_start = Now();
    {
      ScopedSpan run_span(&recorder, "core.pipeline_run", root_id);
      model_trace = {&recorder, run_span.id()};
      sgnn::core::PipelineReport again;
      run_pipeline(&again);
      model_trace = {};
      CheckReport(again, report, result);
    }
    const std::pair<const char*, double> steps[] = {
        {"lo", rates.lo}, {"mid", rates.mid}, {"hi", rates.hi}};
    for (const auto& [name, rate] : steps) {
      std::unique_ptr<Served> served;
      const StepResult step = fixed_step(std::string("traced_") + name, rate,
                                         &embed_trace, &recorder, root_id,
                                         &served);
      if (served == nullptr) return;
      if (std::string(name) == "lo") traced_lo_p50 = step.p50_us;
      late_p99 = std::max(late_p99, step.late_p99_us);
      const sgnn::serve::ServeMetricsSnapshot m = served->server->Metrics();
      // The warm-up prefix is part of every server's history; subtract it.
      hits += m.cache_hits - served->warm.cache_hits;
      misses += m.cache_misses - served->warm.cache_misses;
      batches += m.batches - served->warm.batches;
      served_requests += m.requests_served - served->warm.requests_served;
      max_depth = std::max<uint64_t>(max_depth, m.max_queue_depth);
      auto counter = [&](const char* metric) {
        return static_cast<double>(
            served->registry
                ->GetCounter(metric, "", {}, sgnn::obs::kVolatile)
                ->value());
      };
      dispatches += counter("sgnn_net_dispatches_total");
      shed += counter("sgnn_net_infer_shed_total");
      http_errors += counter("sgnn_net_http_errors_total");
    }
    root_wall = Now() - root_start;
  }
  const sgnn::par::ParStats par1 = sgnn::par::Stats();
  const sgnn::common::OpCounters ops = CountersSince(ops0);
  const double cpu_per_wall = (ProcessCpuSeconds() - cpu0) / root_wall;
  const double coverage = recorder.ChildTotal(root_id) / root_wall;

  std::vector<double> embed_us;
  {
    std::lock_guard<std::mutex> lock(embed_trace.mu);
    embed_us = embed_trace.micros;
  }
  const auto n_embeds = static_cast<int64_t>(embed_us.size());
  result->Metric("serve.cache_hit_ratio",
                 static_cast<double>(hits) / static_cast<double>(hits + misses),
                 "fraction", static_cast<int64_t>(hits + misses));
  result->Metric("serve.embed_p50_us", Percentile(embed_us, 0.50), "us", n_embeds);
  result->Metric("serve.embed_p99_us", Percentile(embed_us, 0.99), "us", n_embeds);
  result->Metric("serve.embeds", static_cast<double>(n_embeds), "count");
  result->Metric("serve.mean_batch",
                 static_cast<double>(served_requests) /
                     static_cast<double>(std::max<uint64_t>(1, batches)),
                 "requests", static_cast<int64_t>(batches));
  result->Metric("serve.max_queue_depth", static_cast<double>(max_depth), "count");
  result->Metric("serve.submit_p50_us", submit.p50_us, "us", submit.sent);
  result->Metric("net.hop_p50_us", plain_lo.p50_us - submit.p50_us, "us",
                 plain_lo.sent);
  result->Metric("net.dispatches", dispatches, "count");
  result->Metric("net.shed_rejected", shed, "count");
  result->Metric("net.http_errors", http_errors, "count");
  result->Metric("loadgen.late_p99_us", late_p99, "us");
  result->Metric("models.train_s", recorder.Total("models.sgc", 0), "s");
  result->Metric("graph.edges_touched", static_cast<double>(ops.edges_touched),
                 "count");
  result->Metric("graph.bytes_per_edge",
                 static_cast<double>(ops.bytes_read + ops.bytes_written) /
                     static_cast<double>(ops.edges_touched),
                 "B/edge");
  result->Metric("par.cpu_per_wall", cpu_per_wall, "ratio");
  result->Metric("par.sections", static_cast<double>(par1.sections - par0.sections),
                 "count");
  result->Metric("par.shards", static_cast<double>(par1.shards - par0.shards),
                 "count");
  result->Metric("trace.overhead_ratio", traced_lo_p50 / plain_lo.p50_us, "ratio");
  result->Metric("trace.self_time_share", coverage, "fraction");
  // The ladder, after the traced steps. It repeats for half of `--seconds`
  // (at least twice). Host stalls only ever make a rung miss, never pass,
  // so `max_rate_rps` is the highest ladder result: the least disturbed.
  std::vector<double> found;
  const double ladder_start = Now();
  while (found.size() < 2 || Now() - ladder_start < 0.5 * options.seconds) {
    found.push_back(LadderMaxRate(
        rates.hi,
        [&](double rate) {
          return run_step(rate, rung_s, nullptr, nullptr, -1, nullptr);
        },
        result));
    std::printf("  ladder %zu: max rate %.1f req/s\n", found.size(),
                found.back());
  }
  result->Metric("max_rate_rps", *std::max_element(found.begin(), found.end()),
                 "1/s", static_cast<int64_t>(found.size()));
  checks.Report(result);
  result->Check("trace_coverage", coverage >= 0.9,
                "top-level spans cover " + Num(coverage) + " of the traced run");
  const std::string trace_path = options.out_dir + "/trace-" + options.workload +
                                 "-" + std::to_string(options.seed) + ".json";
  result->Check("trace_written", recorder.WriteChromeTrace(trace_path), trace_path);
  std::printf("per-layer self time (traced run):\n%s",
              recorder.SelfTimeTable().c_str());
}

}  // namespace perfbench
