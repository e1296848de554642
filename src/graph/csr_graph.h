#ifndef SGNN_GRAPH_CSR_GRAPH_H_
#define SGNN_GRAPH_CSR_GRAPH_H_

#include <span>
#include <vector>

#include "common/check.h"
#include "graph/coo.h"
#include "graph/types.h"

namespace sgnn::graph {

/// Weighted degree of one adjacency row: its float weights accumulated
/// into a double in adjacency order. The one definition of that sum, so
/// every degree table (in-memory, out-of-core, PPR push) rounds alike.
inline double WeightSum(std::span<const float> weights) {
  double acc = 0.0;
  for (float w : weights) acc += w;
  return acc;
}

/// Immutable compressed-sparse-row graph: the frozen adjacency every other
/// module consumes. Adjacency lists are sorted by destination id, enabling
/// O(log d) `HasEdge` and deterministic iteration.
///
/// Edge counts are *directed*: an undirected graph built via
/// `EdgeListBuilder::Symmetrize()` reports twice its undirected edge count.
class CsrGraph {
 public:
  /// Empty graph with `num_nodes` isolated nodes.
  explicit CsrGraph(NodeId num_nodes = 0);

  /// Freezes a builder. De-duplicates first; builder edge order does not
  /// affect the result.
  static CsrGraph FromBuilder(EdgeListBuilder builder);

  /// Builds directly from (already clean) sorted-by-src edges.
  static CsrGraph FromEdges(NodeId num_nodes, std::vector<Edge> edges);

  NodeId num_nodes() const { return static_cast<NodeId>(offsets_.size() - 1); }
  EdgeIndex num_edges() const { return static_cast<EdgeIndex>(neighbors_.size()); }

  EdgeIndex OutDegree(NodeId u) const {
    SGNN_DCHECK(u < num_nodes());
    return offsets_[u + 1] - offsets_[u];
  }

  /// Sorted neighbour ids of u.
  std::span<const NodeId> Neighbors(NodeId u) const {
    SGNN_DCHECK(u < num_nodes());
    return {neighbors_.data() + offsets_[u],
            static_cast<size_t>(offsets_[u + 1] - offsets_[u])};
  }

  /// Edge weights aligned with `Neighbors(u)`.
  std::span<const float> Weights(NodeId u) const {
    SGNN_DCHECK(u < num_nodes());
    return {weights_.data() + offsets_[u],
            static_cast<size_t>(offsets_[u + 1] - offsets_[u])};
  }

  /// Offset of u's adjacency block in the flat arrays.
  EdgeIndex OffsetOf(NodeId u) const { return offsets_[u]; }

  /// Binary search over the sorted adjacency list.
  bool HasEdge(NodeId u, NodeId v) const;

  /// Weight of edge (u, v), or 0 if absent.
  float EdgeWeight(NodeId u, NodeId v) const;

  /// Sum of weights of u's out-edges (`WeightSum` of the row).
  double WeightedDegree(NodeId u) const { return WeightSum(Weights(u)); }

  /// All edges in (src-major, dst-minor) order; for round-tripping and
  /// edit pipelines.
  std::vector<Edge> ToEdges() const;

  /// Induced subgraph on `nodes` (ids relabelled 0..k-1 in the given order).
  /// Also returns nothing extra: callers keep the `nodes` vector as the
  /// local->global mapping.
  CsrGraph InducedSubgraph(std::span<const NodeId> nodes) const;

  const std::vector<EdgeIndex>& offsets() const { return offsets_; }
  const std::vector<NodeId>& neighbors() const { return neighbors_; }
  const std::vector<float>& weights() const { return weights_; }

 private:
  std::vector<EdgeIndex> offsets_;   // size num_nodes + 1
  std::vector<NodeId> neighbors_;    // size num_edges, sorted per node
  std::vector<float> weights_;       // aligned with neighbors_
};

}  // namespace sgnn::graph

#endif  // SGNN_GRAPH_CSR_GRAPH_H_
