// E17 — Online serving: micro-batching + historical embedding cache over
// a frozen decoupled head. Larger micro-batches amortise the MLP forward
// and the workers' queue wakeups, and a warm cache skips k-hop propagation
// entirely, so throughput rises superlinearly with batch size until the
// staleness bound (or a cold cache) forces recomputation.
// Series: req/s, p50/p95/p99 latency, cache hit rate per batch size.

#include <benchmark/benchmark.h>

#include <future>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "models/decoupled.h"
#include "serve/batching_server.h"
#include "serve/frozen_model.h"
#include "serve/khop_embedder.h"

namespace {

using sgnn::core::Dataset;
using sgnn::graph::NodeId;
using sgnn::serve::BatchingServer;
using sgnn::serve::FrozenModel;
using sgnn::serve::InferenceRequest;
using sgnn::serve::InferenceResponse;
using sgnn::serve::KHopEmbedder;
using sgnn::serve::ServeConfig;

constexpr int kHops = 2;

const Dataset& Data() {
  static const Dataset& d =
      *new Dataset(sgnn::bench::MakeBenchDataset(20000, 4, 20.0, 0.85, 9));
  return d;
}

const sgnn::models::ModelResult& Model() {
  static const sgnn::models::ModelResult& m =
      *new sgnn::models::ModelResult(sgnn::models::TrainSgc(
          Data().graph, Data().features, Data().labels, Data().splits,
          sgnn::bench::BenchTrainConfig()));
  return m;
}

void RunServeBench(benchmark::State& state, bool use_cache) {
  ServeConfig config;
  config.max_batch = static_cast<int>(state.range(0));
  config.max_delay_micros = 200;
  config.queue_capacity = 1 << 16;
  config.num_workers = 4;
  config.update_cache = use_cache;

  KHopEmbedder embedder(Data().graph, Data().features, kHops);
  BatchingServer server(
      FrozenModel::FromMlp(*Model().fitted_head),
      [&embedder](NodeId u, std::span<float> out) {
        embedder.Embed(u, out);
        return sgnn::common::Status::OK();
      },
      Data().num_nodes(), config);

  // Requests draw from a hot set (5% of nodes) so a warm cache gets
  // realistic repeat traffic.
  const uint64_t hot_set = static_cast<uint64_t>(Data().num_nodes()) / 20;
  sgnn::common::Rng rng(7);
  constexpr int kRequestsPerIter = 512;
  int64_t served = 0;
  for (auto _ : state) {
    std::vector<std::future<InferenceResponse>> futures;
    futures.reserve(kRequestsPerIter);
    for (int i = 0; i < kRequestsPerIter; ++i) {
      auto future_or = server.Submit(
          InferenceRequest(static_cast<NodeId>(rng.UniformInt(hot_set))));
      if (future_or.ok()) futures.push_back(std::move(future_or).value());
    }
    for (auto& future : futures) future.get();
    served += static_cast<int64_t>(futures.size());
  }
  server.Shutdown();

  const sgnn::serve::ServeMetricsSnapshot snap = server.Metrics();
  state.SetItemsProcessed(served);  // items_per_second == req/s.
  state.counters["p50_ticks"] = snap.p50_ticks;
  state.counters["p95_ticks"] = snap.p95_ticks;
  state.counters["p99_ticks"] = snap.p99_ticks;
  state.counters["cache_hit_rate"] = snap.CacheHitRate();
  state.counters["mean_batch"] = snap.mean_batch_size;
  state.counters["rejected"] = static_cast<double>(snap.requests_rejected);
}

void BM_ServeCached(benchmark::State& state) { RunServeBench(state, true); }
BENCHMARK(BM_ServeCached)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ServeNoCache(benchmark::State& state) { RunServeBench(state, false); }
BENCHMARK(BM_ServeNoCache)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
