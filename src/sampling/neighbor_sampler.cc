#include "sampling/neighbor_sampler.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"
#include "sampling/assembly.h"

namespace sgnn::sampling {

using graph::CsrGraph;
using graph::NodeId;

LayerSample AssembleLayer(NodeId num_nodes, std::span<const NodeId> dst,
                          const std::vector<DstEdges>& edges) {
  SGNN_CHECK_EQ(dst.size(), edges.size());
  LayerSample layer;
  layer.dst.assign(dst.begin(), dst.end());
  layer.src = layer.dst;
  // Dense global -> local index; the first appearance of a node wins.
  constexpr uint32_t kUnseen = ~uint32_t{0};
  std::vector<uint32_t> local(num_nodes, kUnseen);
  for (size_t i = 0; i < dst.size(); ++i) {
    SGNN_CHECK_LT(dst[i], num_nodes);
    if (local[dst[i]] == kUnseen) local[dst[i]] = static_cast<uint32_t>(i);
  }
  layer.offsets.push_back(0);
  for (size_t i = 0; i < dst.size(); ++i) {
    for (const auto& [v, w] : edges[i]) {
      SGNN_DCHECK_LT(v, num_nodes);
      uint32_t& slot = local[v];
      if (slot == kUnseen) {
        slot = static_cast<uint32_t>(layer.src.size());
        layer.src.push_back(v);
      }
      layer.src_local.push_back(slot);
      layer.weights.push_back(w);
    }
    layer.offsets.push_back(static_cast<graph::EdgeIndex>(layer.src_local.size()));
  }
  return layer;
}

uint64_t DrawNodeWise(std::span<const NodeId> nbrs, NodeId node, int fanout,
                      uint64_t layer_base, DstEdges* out) {
  if (nbrs.empty()) return 0;
  if (static_cast<int>(nbrs.size()) <= fanout) {
    const float w = 1.0f / static_cast<float>(nbrs.size());
    for (NodeId v : nbrs) out->emplace_back(v, w);
    return nbrs.size();
  }
  common::KeyedStream local(layer_base, node);
  const auto picks = local.SampleWithoutReplacement(
      nbrs.size(), static_cast<uint64_t>(fanout));
  const float w = 1.0f / static_cast<float>(fanout);
  for (uint64_t p : picks) out->emplace_back(nbrs[p], w);
  return picks.size();
}

namespace {

/// The in-memory samplers' shared body: for each layer l (seeds inward),
/// `layer_draw(l)` makes the layer's caller-side draws and returns its
/// per-destination body `draw(node, nbrs, &edges)`, which returns the
/// adjacency entries it read. `FanOutDraws` runs the body for every
/// destination, then the block is assembled.
template <typename LayerDrawFn>
MiniBatch SampleLayers(const char* section, const CsrGraph& graph,
                       std::span<const NodeId> seeds, size_t num_layers,
                       LayerDrawFn&& layer_draw) {
  return BuildBatch(
             seeds, static_cast<int>(num_layers),
             [&](int l, std::span<const NodeId> dst, LayerSample* layer) {
               auto draw = layer_draw(static_cast<size_t>(l));
               std::vector<DstEdges> edges(dst.size());
               FanOutDraws(section, dst.size(), [&](int64_t i) {
                 const NodeId node = dst[static_cast<size_t>(i)];
                 return draw(node, graph.Neighbors(node),
                             &edges[static_cast<size_t>(i)]);
               });
               *layer = AssembleLayer(graph.num_nodes(), dst, edges);
               return common::Status::OK();
             })
      .value();
}

}  // namespace

MiniBatch SampleNodeWise(const CsrGraph& graph,
                         std::span<const NodeId> seeds,
                         std::span<const int> fanouts, common::Rng* rng) {
  SGNN_CHECK(rng != nullptr);
  return SampleLayers("sample.node_wise", graph, seeds, fanouts.size(),
                      [&](size_t l) {
    const int fanout = fanouts[l];
    SGNN_CHECK_GE(fanout, 1);
    // One caller-side engine draw seeds the layer; each destination then
    // owns the keyed stream (layer_base, node). Which worker runs a
    // destination never affects its draws, so the batch is identical for
    // any SGNN_THREADS.
    const uint64_t layer_base = rng->engine()();
    return [fanout, layer_base](NodeId node, std::span<const NodeId> nbrs,
                                DstEdges* out) {
      return DrawNodeWise(nbrs, node, fanout, layer_base, out);
    };
  });
}

MiniBatch SampleLabor(const CsrGraph& graph, std::span<const NodeId> seeds,
                      std::span<const int> fanouts, common::Rng* rng) {
  SGNN_CHECK(rng != nullptr);
  return SampleLayers("sample.labor", graph, seeds, fanouts.size(),
                      [&](size_t l) {
    const int fanout = fanouts[l];
    SGNN_CHECK_GE(fanout, 1);
    // One uniform variate per candidate source vertex, shared by every
    // destination in this layer: the LABOR trick. The variate is a pure
    // hash of (layer_base, vertex) — no memo table, so destinations can
    // fan out in parallel and still agree on every shared vertex.
    const uint64_t layer_base = rng->engine()();
    return [fanout, layer_base](NodeId, std::span<const NodeId> nbrs,
                                DstEdges* out) {
      if (nbrs.empty()) return size_t{0};
      const double degree = static_cast<double>(nbrs.size());
      const double p = std::min(1.0, static_cast<double>(fanout) / degree);
      const float w = static_cast<float>(1.0 / (degree * p));
      for (NodeId v : nbrs) {
        if (common::KeyedUniform(layer_base, v) < p) out->emplace_back(v, w);
      }
      return nbrs.size();
    };
  });
}

MiniBatch SampleLayerWise(const CsrGraph& graph,
                          std::span<const NodeId> seeds,
                          std::span<const int> layer_sizes, common::Rng* rng) {
  SGNN_CHECK(rng != nullptr);
  // Degree-proportional proposal over all nodes (FastGCN's q).
  const double total_degree = static_cast<double>(graph.num_edges());
  SGNN_CHECK_GT(total_degree, 0.0);
  // Cumulative degree array for O(log n) inverse-CDF sampling.
  std::vector<double> cdf(graph.num_nodes());
  double acc = 0.0;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    acc += static_cast<double>(graph.OutDegree(u));
    cdf[u] = acc;
  }
  return SampleLayers("sample.layer_wise", graph, seeds, layer_sizes.size(),
                      [&](size_t l) {
    const int m = layer_sizes[l];
    SGNN_CHECK_GE(m, 1);
    // Sample m nodes with replacement from q(v) = deg(v) / 2|E|.
    std::unordered_map<NodeId, int> counts;
    for (int s = 0; s < m; ++s) {
      const double r = rng->Uniform() * total_degree;
      const auto it = std::lower_bound(cdf.begin(), cdf.end(), r);
      counts[static_cast<NodeId>(it - cdf.begin())]++;
    }
    // The m global draws above stay on the caller's stream; only the
    // per-destination edge assembly (which merely reads `counts`) fans out
    // across workers.
    return [&graph, total_degree, m, counts = std::move(counts)](
               NodeId, std::span<const NodeId> nbrs, DstEdges* out) {
      if (nbrs.empty()) return size_t{0};
      const double inv_deg = 1.0 / static_cast<double>(nbrs.size());
      for (NodeId v : nbrs) {
        auto it = counts.find(v);
        if (it == counts.end()) continue;
        const double q =
            static_cast<double>(graph.OutDegree(v)) / total_degree;
        const double w = static_cast<double>(it->second) / (m * q) * inv_deg;
        out->emplace_back(v, static_cast<float>(w));
      }
      return nbrs.size();
    };
  });
}

MiniBatch FullNeighborhood(const CsrGraph& graph,
                           std::span<const NodeId> seeds, int num_layers) {
  return SampleLayers("sample.full", graph, seeds,
                      static_cast<size_t>(num_layers), [](size_t) {
    return [](NodeId, std::span<const NodeId> nbrs, DstEdges* out) {
      if (nbrs.empty()) return size_t{0};
      const float w = 1.0f / static_cast<float>(nbrs.size());
      for (NodeId v : nbrs) out->emplace_back(v, w);
      return nbrs.size();
    };
  });
}

}  // namespace sgnn::sampling
