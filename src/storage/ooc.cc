#include "storage/ooc.h"

#include <queue>
#include <utility>

#include "common/check.h"
#include "common/counters.h"
#include "par/par.h"
#include "sampling/assembly.h"

namespace sgnn::storage {

using common::Status;
using common::StatusOr;
using graph::NodeId;
using graph::Normalization;

namespace {

/// Same destination grain as the in-memory sampler.
constexpr int64_t kDstGrain = 256;

}  // namespace

StatusOr<OocPropagator> OocPropagator::Create(ShardedGraph* graph,
                                              Normalization norm,
                                              bool add_self_loops) {
  SGNN_CHECK(graph != nullptr);
  OocPropagator prop;
  prop.graph_ = graph;
  prop.norm_ = norm;
  const NodeId n = graph->num_nodes();
  prop.degree_.assign(n, 0.0);
  // One streaming pass builds the degree table the per-edge coefficients
  // need (kColumn/kSymmetric read degree[v] for neighbours in *other*
  // shards, so the table must cover all nodes — O(n) doubles resident).
  for (int s = 0; s < graph->num_shards(); ++s) {
    auto pin_or = graph->PinShard(s);
    if (!pin_or.ok()) return pin_or.status();
    const PinnedShard& pin = pin_or.value();
    par::ParallelFor(
        "storage.prop.degrees", graph::RowShards(pin.local_offsets()),
        [&](int, par::Range range) {
          for (int64_t r = range.begin; r < range.end; ++r) {
            // Float weights accumulate into a double in adjacency order —
            // the exact `CsrGraph::WeightedDegree` arithmetic.
            double acc = 0.0;
            for (float w : pin.WeightsLocal(r)) acc += w;
            prop.degree_[pin.rows()[static_cast<size_t>(r)]] =
                acc + (add_self_loops ? 1.0 : 0.0);
          }
        });
  }
  if (add_self_loops) {
    prop.self_loop_coeff_.resize(n);
    for (NodeId u = 0; u < n; ++u) {
      prop.self_loop_coeff_[u] =
          graph::NormalizeSelfLoop(norm, prop.degree_[u]);
    }
  }
  return prop;
}

Status OocPropagator::Apply(const tensor::Matrix& x,
                            tensor::Matrix* out) const {
  SGNN_CHECK(out != nullptr);
  SGNN_CHECK(graph_ != nullptr);
  SGNN_CHECK_EQ(x.rows(), static_cast<int64_t>(graph_->num_nodes()));
  *out = tensor::Matrix(x.rows(), x.cols());
  // The pinned shard's float coefficients, reused across shards.
  std::vector<float> coeffs;
  for (int s = 0; s < graph_->num_shards(); ++s) {
    auto pin_or = graph_->PinShard(s);
    if (!pin_or.ok()) return pin_or.status();
    const PinnedShard& pin = pin_or.value();
    const std::span<const int64_t> offsets = pin.local_offsets();
    coeffs.resize(static_cast<size_t>(offsets.back()));
    // Each par shard normalises its rows' coefficients with the in-memory
    // constructor's expressions (`graph::NormalizeRow`), then runs them
    // through the shared row kernel; equal coefficient bits make the
    // result byte-identical to `Propagator::Apply` at any budget.
    const graph::SpmmRows rows{offsets, pin.local_neighbors(), coeffs,
                               pin.rows(), self_loop_coeff_};
    par::ParallelFor(
        "storage.prop.apply", graph::RowShards(offsets),
        [&](int, par::Range range) {
          for (int64_t r = range.begin; r < range.end; ++r) {
            graph::NormalizeRow(norm_, degree_,
                                pin.rows()[static_cast<size_t>(r)],
                                pin.NeighborsLocal(r), pin.WeightsLocal(r),
                                coeffs.data() + offsets[r]);
          }
          rows.ApplyRange(x, out, range);
        });
  }
  return Status::OK();
}

StatusOr<ppr::PushResult> ForwardPush(ShardedGraph* graph, NodeId source,
                                      double alpha, double r_max) {
  SGNN_CHECK(graph != nullptr);
  SGNN_CHECK(alpha > 0.0 && alpha < 1.0);
  SGNN_CHECK_GT(r_max, 0.0);
  SGNN_CHECK_LT(source, graph->num_nodes());

  std::vector<double> p(graph->num_nodes(), 0.0);
  std::vector<double> r(graph->num_nodes(), 0.0);
  std::vector<bool> queued(graph->num_nodes(), false);
  std::queue<NodeId> active;

  r[source] = 1.0;
  active.push(source);
  queued[source] = true;

  ppr::PushResult result;
  while (!active.empty()) {
    const NodeId u = active.front();
    active.pop();
    queued[u] = false;
    const auto deg = graph->OutDegree(u);
    if (deg == 0) {
      // Dangling node: all residual mass settles here.
      p[u] += r[u];
      r[u] = 0.0;
      continue;
    }
    if (r[u] <= r_max * static_cast<double>(deg)) continue;
    const double ru = r[u];
    p[u] += alpha * ru;
    r[u] = 0.0;
    ++result.pushes;
    result.edges_touched += deg;
    // The shard is pinned only for actual pushes — threshold checks read
    // the resident degree index — so faults track pushes, not queue churn.
    auto pin_or = graph->Pin(u);
    if (!pin_or.ok()) return pin_or.status();
    const PinnedShard& pin = pin_or.value();
    const double w_deg = pin.WeightedDegree(u);
    const double spread = (1.0 - alpha) * ru / w_deg;
    auto nbrs = pin.Neighbors(u);
    auto ws = pin.Weights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId v = nbrs[i];
      r[v] += spread * ws[i];
      if (!queued[v] &&
          r[v] > r_max * static_cast<double>(graph->OutDegree(v))) {
        active.push(v);
        queued[v] = true;
      }
    }
  }

  for (NodeId v = 0; v < graph->num_nodes(); ++v) {
    if (p[v] > 0.0) result.estimate.emplace_back(v, p[v]);
  }
  common::GlobalCounters().edges_touched +=
      static_cast<uint64_t>(result.edges_touched);
  return result;
}

StatusOr<std::vector<ppr::PushResult>> PushBatch(
    ShardedGraph* graph, std::span<const NodeId> seeds, double alpha,
    double r_max) {
  std::vector<ppr::PushResult> results(seeds.size());
  // Sequential seeds: each push is a pure function of its seed (so the
  // values match the in-memory parallel batch exactly), and serialising
  // the cache access makes the load/eviction sequence — the thing the
  // budget meters — deterministic too.
  for (size_t i = 0; i < seeds.size(); ++i) {
    auto result_or = ForwardPush(graph, seeds[i], alpha, r_max);
    if (!result_or.ok()) return result_or.status();
    results[i] = std::move(result_or).value();
  }
  return results;
}

StatusOr<sampling::MiniBatch> SampleNodeWise(ShardedGraph* graph,
                                             std::span<const NodeId> seeds,
                                             std::span<const int> fanouts,
                                             common::Rng* rng) {
  SGNN_CHECK(graph != nullptr);
  SGNN_CHECK(rng != nullptr);
  SGNN_CHECK_GE(fanouts.size(), 1u);
  SGNN_CHECK(!seeds.empty());

  std::vector<sampling::LayerSample> outer_first;
  std::vector<NodeId> frontier(seeds.begin(), seeds.end());
  for (size_t l = 0; l < fanouts.size(); ++l) {
    const int fanout = fanouts[l];
    SGNN_CHECK_GE(fanout, 1);
    const std::vector<NodeId>& dst = frontier;
    // One caller-side engine draw per layer, then keyed per-destination
    // streams — the in-memory sampler's scheme, so the draws (and the
    // assembled block) do not depend on the shard grouping below.
    const uint64_t layer_base = rng->engine()();
    std::vector<std::vector<std::pair<NodeId, float>>> edges(dst.size());
    std::vector<std::vector<int64_t>> by_shard(
        static_cast<size_t>(graph->num_shards()));
    for (size_t i = 0; i < dst.size(); ++i) {
      by_shard[static_cast<size_t>(graph->shard_of(dst[i]))].push_back(
          static_cast<int64_t>(i));
    }
    for (int s = 0; s < graph->num_shards(); ++s) {
      const std::vector<int64_t>& bucket = by_shard[static_cast<size_t>(s)];
      if (bucket.empty()) continue;
      auto pin_or = graph->PinShard(s);
      if (!pin_or.ok()) return pin_or.status();
      const PinnedShard& pin = pin_or.value();
      const int64_t m = static_cast<int64_t>(bucket.size());
      const auto ranges = par::SplitUniform(m, par::ShardsFor(m, kDstGrain));
      par::ParallelFor(
          "storage.sample.node_wise", ranges, [&](int, par::Range range) {
            uint64_t scanned = 0;
            for (int64_t b = range.begin; b < range.end; ++b) {
              const size_t i = static_cast<size_t>(bucket[b]);
              auto nbrs = pin.Neighbors(dst[i]);
              auto& out = edges[i];
              if (nbrs.empty()) continue;
              if (static_cast<int>(nbrs.size()) <= fanout) {
                const float w = 1.0f / static_cast<float>(nbrs.size());
                for (NodeId v : nbrs) out.emplace_back(v, w);
              } else {
                common::KeyedStream local(layer_base, dst[i]);
                auto picks = local.SampleWithoutReplacement(
                    nbrs.size(), static_cast<uint64_t>(fanout));
                const float w = 1.0f / static_cast<float>(fanout);
                for (uint64_t pick : picks) out.emplace_back(nbrs[pick], w);
              }
              scanned += out.size();
            }
            // The in-memory sampler's bill: adjacency entries read.
            common::GlobalCounters().edges_touched += scanned;
          });
    }
    sampling::LayerSample layer =
        sampling::AssembleLayer(graph->num_nodes(), dst, edges);
    frontier = layer.src;
    outer_first.push_back(std::move(layer));
  }
  sampling::MiniBatch batch;
  batch.layers.assign(std::make_move_iterator(outer_first.rbegin()),
                      std::make_move_iterator(outer_first.rend()));
  return batch;
}

}  // namespace sgnn::storage
