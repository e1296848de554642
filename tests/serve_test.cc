#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/dataset.h"
#include "core/pipeline.h"
#include "graph/propagate.h"
#include "models/decoupled.h"
#include "serve/batching_server.h"
#include "serve/frozen_model.h"
#include "serve/handoff.h"
#include "serve/khop_embedder.h"
#include "serve/metrics.h"
#include "tensor/ops.h"

namespace sgnn::serve {
namespace {

using graph::NodeId;
using tensor::Matrix;

core::Dataset SmallSbmDataset(NodeId num_nodes, uint64_t seed) {
  core::SbmDatasetConfig config;
  config.sbm.num_nodes = num_nodes;
  config.sbm.num_classes = 3;
  config.sbm.avg_degree = 8.0;
  config.sbm.homophily = 0.8;
  config.feature_dim = 8;
  return core::MakeSbmDataset(config, seed);
}

nn::TrainConfig QuickTrainConfig() {
  nn::TrainConfig config;
  config.epochs = 30;
  config.hidden_dim = 16;
  config.patience = 10;
  return config;
}

TEST(FrozenModelTest, MatchesMlpInferenceForwardExactly) {
  common::Rng rng(7);
  nn::Mlp mlp({6, 5, 3}, /*dropout=*/0.5, &rng);
  Matrix x = Matrix::Gaussian(11, 6, 0.0f, 1.0f, &rng);

  Matrix reference;
  mlp.Forward(x, /*training=*/false, nullptr, &reference);

  FrozenModel frozen = FrozenModel::FromMlp(mlp);
  EXPECT_EQ(frozen.in_dim(), 6);
  EXPECT_EQ(frozen.out_dim(), 3);
  EXPECT_EQ(frozen.num_layers(), 2);
  Matrix logits;
  frozen.Forward(x, &logits);
  // Same GEMM/bias/ReLU kernels and inference dropout is the identity, so
  // the snapshot reproduces the Mlp bit-for-bit.
  EXPECT_TRUE(logits.Equals(reference));
}

TEST(FrozenModelTest, SnapshotUnaffectedByLaterTraining) {
  common::Rng rng(3);
  nn::Mlp mlp({4, 3}, 0.0, &rng);
  Matrix x = Matrix::Gaussian(5, 4, 0.0f, 1.0f, &rng);
  FrozenModel frozen = FrozenModel::FromMlp(mlp);
  Matrix before;
  frozen.Forward(x, &before);

  // Mutate the live model (a gradient step of all-ones).
  Matrix logits;
  mlp.Forward(x, /*training=*/true, &rng, &logits);
  Matrix dlogits(logits.rows(), logits.cols(), 1.0f);
  mlp.Backward(dlogits, nullptr);
  for (nn::ParamRef p : mlp.Params()) {
    tensor::Axpy(-0.1f, *p.grad, p.value);
  }

  Matrix after;
  frozen.Forward(x, &after);
  EXPECT_TRUE(after.Equals(before));
  Matrix live;
  mlp.Forward(x, /*training=*/false, nullptr, &live);
  EXPECT_FALSE(live.Equals(before));
}

TEST(KHopEmbedderTest, MatchesGlobalPropagation) {
  core::Dataset dataset = SmallSbmDataset(120, 5);
  const int hops = 2;
  graph::Propagator prop(dataset.graph, graph::Normalization::kSymmetric,
                         /*add_self_loops=*/true);
  Matrix global = graph::PropagateKHops(prop, dataset.features, hops);

  KHopEmbedder embedder(dataset.graph, dataset.features, hops);
  std::vector<float> row(static_cast<size_t>(embedder.dim()));
  for (NodeId u = 0; u < dataset.num_nodes(); u += 7) {
    embedder.Embed(u, row);
    auto expected = global.Row(static_cast<int64_t>(u));
    for (int64_t j = 0; j < embedder.dim(); ++j) {
      EXPECT_NEAR(row[static_cast<size_t>(j)], expected[j], 1e-4)
          << "node " << u << " col " << j;
    }
  }
}

/// FNV-1a-64 over the bit patterns of `rows`.
uint64_t Fnv1a64(std::span<const float> rows) {
  uint64_t h = 1469598103934665603ull;
  for (const float f : rows) {
    const auto bits = std::bit_cast<uint32_t>(f);
    for (int b = 0; b < 4; ++b) {
      h = (h ^ ((bits >> (8 * b)) & 0xffu)) * 1099511628211ull;
    }
  }
  return h;
}

TEST(KHopEmbedderTest, OutputBitsArePinned) {
  // The near-equality test above cannot see a moved bit; these hashes pin
  // the exact rows at 2 hops and 128 columns, with and without a budget.
  core::SbmDatasetConfig config;
  config.sbm.num_nodes = 400;
  config.sbm.num_classes = 4;
  config.sbm.avg_degree = 10.0;
  config.sbm.homophily = 0.7;
  config.feature_dim = 128;
  const core::Dataset dataset = core::MakeSbmDataset(config, 17);
  const std::vector<NodeId> centers = {0, 3, 77, 256, 399};
  auto hash_rows = [&](int64_t node_budget) {
    KHopEmbedder embedder(dataset.graph, dataset.features, /*hops=*/2,
                          node_budget);
    std::vector<float> rows(centers.size() *
                            static_cast<size_t>(embedder.dim()));
    for (size_t i = 0; i < centers.size(); ++i) {
      embedder.Embed(centers[i],
                     std::span(rows).subspan(
                         i * static_cast<size_t>(embedder.dim()),
                         static_cast<size_t>(embedder.dim())));
    }
    return Fnv1a64(rows);
  };
  EXPECT_EQ(hash_rows(0), 8115924953268901468ull);
  EXPECT_EQ(hash_rows(40), 12863307601583298422ull);
}

/// The serving-latency ladder now lives in `obs::Histogram`
/// (`ExponentialBuckets(1.0, 1.07, 256)`, the registry series
/// `sgnn_serve_latency_ticks`); this pins the percentile behaviour the
/// old `LatencyHistogram` guaranteed.
TEST(LatencyHistogramTest, PercentilesOrderedAndApproximate) {
  obs::MetricsRegistry registry;
  obs::Histogram* hist = registry.GetHistogram(
      "latency_micros", "test ladder",
      obs::ExponentialBuckets(1.0, 1.07, 256));
  EXPECT_EQ(hist->Percentile(0.5), 0.0);  // Empty.
  for (int i = 1; i <= 100; ++i) {
    hist->Record(1000.0 * i);  // 1ms .. 100ms.
  }
  const obs::HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.min, 1000.0);
  EXPECT_DOUBLE_EQ(snap.max, 100000.0);
  const double p50 = snap.Percentile(0.50);
  const double p95 = snap.Percentile(0.95);
  const double p99 = snap.Percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // ~7% geometric buckets: generous windows around the exact quantiles.
  EXPECT_NEAR(p50, 50000.0, 10000.0);
  EXPECT_NEAR(p99, 99000.0, 15000.0);
}

/// End-to-end: N client threads against a server built via the
/// Pipeline::Run -> ServePipeline handoff; every response must match the
/// single-threaded FrozenModel/Mlp forward on the globally propagated
/// embeddings.
TEST(BatchingServerTest, ConcurrentClientsMatchSingleThreadedReference) {
  core::Dataset dataset = SmallSbmDataset(200, 11);
  const int hops = 2;

  core::Pipeline pipeline;
  pipeline.SetModel(
      "sgc", [](const graph::CsrGraph& g, const Matrix& x,
                std::span<const int> labels,
                const models::NodeSplits& splits,
                const nn::TrainConfig& config) {
        return models::TrainSgc(g, x, labels, splits, config);
      });
  core::PipelineReport report = pipeline.Run(dataset, QuickTrainConfig());
  ASSERT_NE(report.model.fitted_head, nullptr);

  // Single-threaded reference: frozen head over global S^K X.
  FrozenModel frozen = FrozenModel::FromMlp(*report.model.fitted_head);
  graph::Propagator prop(dataset.graph, graph::Normalization::kSymmetric,
                         true);
  Matrix embeddings = graph::PropagateKHops(prop, dataset.features, hops);
  Matrix reference;
  frozen.Forward(embeddings, &reference);

  ServeConfig config;
  config.max_batch = 8;
  config.max_delay_micros = 200;
  config.queue_capacity = 4096;
  config.num_workers = 3;
  auto server_or = ServePipeline(dataset, report, hops, config);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  std::unique_ptr<BatchingServer> server = std::move(server_or).value();

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 50;
  std::atomic<int> mismatches{0};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      common::Rng rng(100 + static_cast<uint64_t>(c));
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const NodeId node = static_cast<NodeId>(
            rng.UniformInt(dataset.num_nodes()));
        auto future_or = server->Submit(InferenceRequest(node));
        ASSERT_TRUE(future_or.ok()) << future_or.status().ToString();
        InferenceResponse response = std::move(future_or).value().get();
        served.fetch_add(1);
        EXPECT_EQ(response.node, node);
        auto expected = reference.Row(static_cast<int64_t>(node));
        ASSERT_EQ(response.logits.size(), expected.size());
        for (size_t j = 0; j < expected.size(); ++j) {
          if (std::abs(response.logits[j] - expected[j]) > 1e-3) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  server->Shutdown();

  EXPECT_EQ(served.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(mismatches.load(), 0);
  ServeMetricsSnapshot snap = server->Metrics();
  EXPECT_EQ(snap.requests_served,
            static_cast<uint64_t>(kClients * kRequestsPerClient));
  // Repeated nodes (200 ids, 200 requests) must have produced cache hits,
  // and misses must have moved features through the ego-net kernels.
  EXPECT_GT(snap.CacheHitRate(), 0.0);
  EXPECT_GT(snap.ops.edges_touched, 0u);
  EXPECT_GT(snap.ops.floats_moved, 0u);
}

TEST(BatchingServerTest, BackpressureRejectsWithUnavailable) {
  common::Rng rng(9);
  nn::Mlp mlp({4, 3}, 0.0, &rng);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();

  ServeConfig config;
  config.max_batch = 1;
  config.max_delay_micros = 0;
  config.queue_capacity = 2;
  config.num_workers = 1;
  BatchingServer server(
      FrozenModel::FromMlp(mlp),
      [opened](NodeId node, std::span<float> out) {
        opened.wait();  // Stall the worker until the test releases it.
        for (size_t j = 0; j < out.size(); ++j) {
          out[j] = static_cast<float>(node);
        }
        return common::Status::OK();
      },
      /*num_nodes=*/16, config);

  EXPECT_EQ(server.Submit(InferenceRequest(99)).status().code(),
            common::StatusCode::kInvalidArgument);

  std::vector<std::future<InferenceResponse>> accepted;
  int rejected = 0;
  auto submit_some = [&](int count) {
    for (int i = 0; i < count; ++i) {
      auto future_or =
          server.Submit(InferenceRequest(static_cast<NodeId>(i % 16)));
      if (future_or.ok()) {
        accepted.push_back(std::move(future_or).value());
      } else {
        // Full queue: a clean kUnavailable, never a block or a crash.
        EXPECT_EQ(future_or.status().code(),
                  common::StatusCode::kUnavailable);
        ++rejected;
      }
    }
  };
  submit_some(5);
  // Let the server reach its steady blocked state: one batch executing
  // (stalled in the gate), queue full behind.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  submit_some(10);
  EXPECT_GE(rejected, 1);

  gate.set_value();  // Release the worker; everything admitted completes.
  for (auto& future : accepted) {
    InferenceResponse response = future.get();
    EXPECT_EQ(response.logits.size(), 3u);
  }
  server.Shutdown();
  ServeMetricsSnapshot snap = server.Metrics();
  EXPECT_EQ(snap.requests_served, accepted.size());
  EXPECT_EQ(snap.requests_rejected, static_cast<uint64_t>(rejected));
  EXPECT_EQ(snap.requests_served + snap.requests_rejected, 15u);
}

TEST(BatchingServerTest, BackpressureBoundIsQueuePlusInFlightBatches) {
  common::Rng rng(9);
  nn::Mlp mlp({4, 3}, 0.0, &rng);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<bool> entered{false};

  ServeConfig config;
  config.max_batch = 1;
  config.max_delay_micros = 0;
  config.queue_capacity = 2;
  config.num_workers = 1;
  BatchingServer server(
      FrozenModel::FromMlp(mlp),
      [opened, &entered](NodeId node, std::span<float> out) {
        entered.store(true);
        opened.wait();  // Stall the worker until the test releases it.
        for (size_t j = 0; j < out.size(); ++j) {
          out[j] = static_cast<float>(node);
        }
        return common::Status::OK();
      },
      /*num_nodes=*/16, config);

  std::vector<std::future<InferenceResponse>> accepted;
  auto first = server.Submit(InferenceRequest(0));
  ASSERT_TRUE(first.ok());
  accepted.push_back(std::move(first).value());
  while (!entered.load()) std::this_thread::yield();
  // The one worker is stalled inside its batch. Paced submissions give any
  // buffer between the queue and the workers time to take a request; the
  // bound must hold anyway.
  int rejected = 0;
  for (NodeId i = 1; i < 10; ++i) {
    auto future_or = server.Submit(InferenceRequest(i));
    if (future_or.ok()) {
      accepted.push_back(std::move(future_or).value());
    } else {
      EXPECT_EQ(future_or.status().code(), common::StatusCode::kUnavailable);
      ++rejected;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // num_workers * max_batch in flight plus queue_capacity queued.
  EXPECT_EQ(accepted.size(), 1u + 2u);
  EXPECT_EQ(rejected, 7);

  gate.set_value();
  for (auto& future : accepted) {
    EXPECT_TRUE(future.get().status.ok());
  }
  server.Shutdown();
}

TEST(BatchingServerTest, MetricsPercentilesAndWarmupHitRate) {
  core::Dataset dataset = SmallSbmDataset(120, 21);
  const int hops = 2;
  models::ModelResult result =
      models::TrainSgc(dataset.graph, dataset.features, dataset.labels,
                       dataset.splits, QuickTrainConfig());
  ASSERT_NE(result.fitted_head, nullptr);

  KHopEmbedder embedder(dataset.graph, dataset.features, hops);
  ServeConfig config;
  config.max_batch = 16;
  config.max_delay_micros = 100;
  config.queue_capacity = 1024;
  config.num_workers = 2;
  BatchingServer server(
      FrozenModel::FromMlp(*result.fitted_head),
      [&embedder](NodeId node, std::span<float> out) {
        embedder.Embed(node, out);
        return common::Status::OK();
      },
      dataset.num_nodes(), config);

  auto run_pass = [&server](NodeId count) {
    std::vector<std::future<InferenceResponse>> futures;
    for (NodeId u = 0; u < count; ++u) {
      auto future_or = server.Submit(InferenceRequest(u));
      ASSERT_TRUE(future_or.ok());
      futures.push_back(std::move(future_or).value());
    }
    for (auto& future : futures) future.get();
  };
  run_pass(100);  // Warmup: all misses, fills the cache.
  run_pass(100);  // Same nodes again: hits that skip propagation.
  server.Shutdown();

  ServeMetricsSnapshot snap = server.Metrics();
  EXPECT_EQ(snap.requests_served, 200u);
  EXPECT_LE(snap.p50_ticks, snap.p95_ticks);
  EXPECT_LE(snap.p95_ticks, snap.p99_ticks);
  EXPECT_GT(snap.p50_ticks, 0.0);
  EXPECT_GT(snap.CacheHitRate(), 0.0);   // Acceptance: hits after warmup.
  EXPECT_GE(snap.CacheHitRate(), 0.4);   // Second pass is all hits.
  EXPECT_GE(snap.batches, 1u);
  EXPECT_LE(snap.mean_batch_size, static_cast<double>(config.max_batch));
  EXPECT_LE(snap.max_batch_size, static_cast<uint64_t>(config.max_batch));
}

TEST(ServePipelineTest, RejectsModelWithoutFittedHead) {
  core::Dataset dataset = SmallSbmDataset(60, 2);
  core::PipelineReport report;
  report.model.name = "label_prop";  // No MLP head.
  auto server_or = ServePipeline(dataset, report, 2, ServeConfig());
  EXPECT_FALSE(server_or.ok());
  EXPECT_EQ(server_or.status().code(),
            common::StatusCode::kFailedPrecondition);
}

TEST(BatchingServerTest, WarmCacheServesHitsImmediately) {
  core::Dataset dataset = SmallSbmDataset(80, 31);
  models::ModelResult result =
      models::TrainSgc(dataset.graph, dataset.features, dataset.labels,
                       dataset.splits, QuickTrainConfig());
  graph::Propagator prop(dataset.graph, graph::Normalization::kSymmetric,
                         true);
  Matrix embeddings = graph::PropagateKHops(prop, dataset.features, 2);

  ServeConfig config;
  config.max_batch = 4;
  config.num_workers = 1;
  std::atomic<int> embed_calls{0};
  BatchingServer server(
      FrozenModel::FromMlp(*result.fitted_head),
      [&embed_calls](NodeId, std::span<float> out) {
        embed_calls.fetch_add(1);
        for (float& v : out) v = 0.0f;
        return common::Status::OK();
      },
      dataset.num_nodes(), config);
  server.WarmCache(embeddings);

  std::vector<std::future<InferenceResponse>> futures;
  for (NodeId u = 0; u < dataset.num_nodes(); ++u) {
    auto future_or = server.Submit(InferenceRequest(u));
    ASSERT_TRUE(future_or.ok());
    futures.push_back(std::move(future_or).value());
  }
  FrozenModel frozen = FrozenModel::FromMlp(*result.fitted_head);
  Matrix reference;
  frozen.Forward(embeddings, &reference);
  for (auto& future : futures) {
    InferenceResponse response = future.get();
    EXPECT_TRUE(response.cache_hit);
    auto expected = reference.Row(static_cast<int64_t>(response.node));
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_NEAR(response.logits[j], expected[j], 1e-5);
    }
  }
  EXPECT_EQ(embed_calls.load(), 0);  // Warm cache: propagation fully skipped.
  server.Shutdown();
  EXPECT_DOUBLE_EQ(server.Metrics().CacheHitRate(), 1.0);
}

TEST(BatchingServerTest, CallbackSubmitAnswersEachAdmittedRequestOnce) {
  common::Rng rng(5);
  nn::Mlp mlp({4, 3}, 0.0, &rng);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();

  ServeConfig config;
  config.max_batch = 2;
  config.max_delay_micros = 0;
  config.queue_capacity = 64;
  config.num_workers = 1;
  BatchingServer server(
      FrozenModel::FromMlp(mlp),
      [opened](NodeId node, std::span<float> out) {
        opened.wait();  // Hold the worker so requests pile up in the queue.
        for (float& v : out) v = static_cast<float>(node);
        return common::Status::OK();
      },
      /*num_nodes=*/16, config);

  constexpr int kRequests = 12;
  std::vector<std::atomic<int>> calls(kRequests);
  std::atomic<int> wrong_node{0};
  std::atomic<int> stray{0};  // Callbacks of rejected submits.
  auto count_stray = [&stray](InferenceResponse) { stray.fetch_add(1); };

  EXPECT_EQ(server.Submit(InferenceRequest(99), count_stray).code(),
            common::StatusCode::kInvalidArgument);
  for (int i = 0; i < kRequests; ++i) {
    const NodeId node = static_cast<NodeId>(i % 16);
    ASSERT_TRUE(server
                    .Submit(InferenceRequest(node),
                            [&calls, &wrong_node, i,
                             node](InferenceResponse response) {
                              if (!response.status.ok() ||
                                  response.node != node) {
                                wrong_node.fetch_add(1);
                              }
                              calls[static_cast<size_t>(i)].fetch_add(1);
                            })
                    .ok());
  }

  // Shut down with most requests still queued behind the held worker:
  // Shutdown must drain them, each to exactly one callback.
  std::thread shutter([&server] { server.Shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.set_value();
  shutter.join();

  EXPECT_EQ(server.Submit(InferenceRequest(1), count_stray).code(),
            common::StatusCode::kFailedPrecondition);
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(calls[static_cast<size_t>(i)].load(), 1) << "request " << i;
  }
  EXPECT_EQ(wrong_node.load(), 0);
  EXPECT_EQ(stray.load(), 0);
  EXPECT_EQ(server.Metrics().requests_served,
            static_cast<uint64_t>(kRequests));
}

}  // namespace
}  // namespace sgnn::serve
