#include "storage/ooc.h"

#include <utility>

#include "common/check.h"
#include "par/par.h"
#include "sampling/assembly.h"

namespace sgnn::storage {

using common::Status;
using common::StatusOr;
using graph::NodeId;
using graph::Normalization;

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
            prop.degree_[pin.rows()[static_cast<size_t>(r)]] =
                graph::WeightSum(pin.WeightsLocal(r)) +
                (add_self_loops ? 1.0 : 0.0);
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
  // The shard is pinned only for actual pushes — threshold checks read the
  // resident degree index — so faults track pushes, not queue churn.
  return ppr::RunForwardPush(
      graph->num_nodes(), source, alpha, r_max,
      [graph](NodeId u) { return graph->OutDegree(u); },
      [graph](NodeId u, auto&& spread) -> Status {
        auto pin_or = graph->Pin(u);
        if (!pin_or.ok()) return pin_or.status();
        spread(pin_or.value().Neighbors(u), pin_or.value().Weights(u));
        return Status::OK();
      });
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
  std::vector<std::vector<size_t>> by_shard(
      static_cast<size_t>(graph->num_shards()));
  return sampling::BuildBatch(
      seeds, static_cast<int>(fanouts.size()),
      [&](int l, std::span<const NodeId> dst,
          sampling::LayerSample* layer) -> Status {
        const int fanout = fanouts[static_cast<size_t>(l)];
        SGNN_CHECK_GE(fanout, 1);
        // The in-memory sampler's engine draw and keyed per-destination
        // draw, so the block does not depend on the shard grouping below.
        const uint64_t layer_base = rng->engine()();
        std::vector<sampling::DstEdges> edges(dst.size());
        for (auto& bucket : by_shard) bucket.clear();
        for (size_t i = 0; i < dst.size(); ++i) {
          by_shard[static_cast<size_t>(graph->shard_of(dst[i]))].push_back(i);
        }
        // Shards in ascending order from this thread: a reproducible
        // load/eviction sequence; draws fan out inside the pinned shard.
        for (int s = 0; s < graph->num_shards(); ++s) {
          const std::vector<size_t>& bucket = by_shard[static_cast<size_t>(s)];
          if (bucket.empty()) continue;
          auto pin_or = graph->PinShard(s);
          if (!pin_or.ok()) return pin_or.status();
          const PinnedShard& pin = pin_or.value();
          sampling::FanOutDraws(
              "storage.sample.node_wise", bucket.size(), [&](int64_t b) {
                const size_t i = bucket[static_cast<size_t>(b)];
                return sampling::DrawNodeWise(pin.Neighbors(dst[i]), dst[i],
                                              fanout, layer_base, &edges[i]);
              });
        }
        *layer = sampling::AssembleLayer(graph->num_nodes(), dst, edges);
        return Status::OK();
      });
}

}  // namespace sgnn::storage
