#include "serve/khop_embedder.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/counters.h"
#include "graph/propagate.h"
#include "subgraph/khop.h"

namespace sgnn::serve {

using graph::NodeId;
using tensor::Matrix;

KHopEmbedder::KHopEmbedder(const graph::CsrGraph& graph,
                           const tensor::Matrix& features, int hops,
                           int64_t node_budget)
    : graph_(graph),
      features_(features),
      hops_(hops),
      node_budget_(node_budget) {
  SGNN_CHECK_GE(hops, 0);
  SGNN_CHECK_GE(node_budget, 0);
  SGNN_CHECK_EQ(features.rows(), static_cast<int64_t>(graph.num_nodes()));
  inv_sqrt_degree_.resize(graph.num_nodes());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    // Renormalisation-trick degree: weighted degree of A plus the self loop.
    const double d = graph.WeightedDegree(u) + 1.0;
    inv_sqrt_degree_[u] = static_cast<float>(1.0 / std::sqrt(d));
  }
}

void KHopEmbedder::Embed(NodeId center, std::span<float> out) const {
  SGNN_CHECK_EQ(static_cast<int64_t>(out.size()), dim());
  const subgraph::EgoNet ego =
      subgraph::ExtractKHop(graph_, center, hops_, node_budget_);
  const int64_t k = static_cast<int64_t>(ego.nodes.size());
  const int64_t cols = dim();

  // Gather the ball's raw features (the request's feature-movement cost).
  Matrix cur(k, cols);
  for (int64_t i = 0; i < k; ++i) {
    auto src = features_.Row(static_cast<int64_t>(ego.nodes[i]));
    std::copy(src.begin(), src.end(), cur.Row(i).begin());
  }
  auto& counters = common::GlobalCounters();
  counters.floats_moved += static_cast<uint64_t>(k * cols);
  counters.Acquire(static_cast<uint64_t>(2 * k * cols));

  // Local S^K over the ball with global-degree coefficients, computed once
  // per request (the float expression `w * inv_u * inv_v`) and then run
  // through the shared row kernel each hop. Only the center row is read
  // out, so boundary inexactness never surfaces (see header comment).
  const graph::CsrGraph& sub = ego.subgraph;
  std::vector<float> coeffs(static_cast<size_t>(sub.num_edges()));
  std::vector<float> self_loop(static_cast<size_t>(k));
  for (int64_t u = 0; u < k; ++u) {
    const float inv_u = inv_sqrt_degree_[ego.nodes[u]];
    auto nbrs = sub.Neighbors(static_cast<NodeId>(u));
    auto ws = sub.Weights(static_cast<NodeId>(u));
    float* cs = coeffs.data() + sub.OffsetOf(static_cast<NodeId>(u));
    for (size_t i = 0; i < nbrs.size(); ++i) {
      cs[i] = ws[i] * inv_u * inv_sqrt_degree_[ego.nodes[nbrs[i]]];
    }
    self_loop[static_cast<size_t>(u)] = inv_u * inv_u;
  }
  const graph::SpmmRows rows{sub.offsets(), sub.neighbors(), coeffs, {},
                             self_loop};
  Matrix next(k, cols);
  for (int step = 0; step < hops_; ++step) {
    next.Zero();
    rows.Apply(cur, &next);
    std::swap(cur, next);
  }

  auto center_row = cur.Row(0);  // ego.nodes[0] == center by construction.
  std::copy(center_row.begin(), center_row.end(), out.begin());
  counters.Release(static_cast<uint64_t>(2 * k * cols));
}

}  // namespace sgnn::serve
