#ifndef SGNN_GRAPH_PROPAGATE_H_
#define SGNN_GRAPH_PROPAGATE_H_

#include <span>
#include <vector>

#include "common/check.h"
#include "graph/csr_graph.h"
#include "par/par.h"
#include "tensor/matrix.h"

namespace sgnn::graph {

/// Adjacency normalisation used by graph propagation.
enum class Normalization {
  kNone,       ///< A
  kRow,        ///< D^-1 A            (random-walk / row-stochastic)
  kColumn,     ///< A D^-1            (PPR transition transpose)
  kSymmetric,  ///< D^-1/2 A D^-1/2   (GCN convolution)
};

/// Writes the normalised float coefficient of each edge of row `u`
/// (neighbours `nbrs`, weights `weights`) to `out`: the weight times the
/// normalisation's degree factors, evaluated in double and rounded once
/// to float. `degree` is the per-node weighted degree (+1 with self
/// loops); a zero degree contributes a zero factor. The single definition
/// of the coefficients, so every propagator rounds identically.
void NormalizeRow(Normalization norm, std::span<const double> degree,
                  NodeId u, std::span<const NodeId> nbrs,
                  std::span<const float> weights, float* out);

/// Self-loop coefficient of a node of (self-loop-inclusive) degree `d`:
/// 1 unnormalised, else 1/d (row, column and 1/sqrt(d)^2 symmetric).
float NormalizeSelfLoop(Normalization norm, double d);

/// Edge-balanced row shards over CSR `offsets` for the propagation
/// kernels. Geometry depends only on the offsets, so shard-local work is
/// identical for any worker count (the par determinism contract).
std::vector<par::Range> RowShards(std::span<const int64_t> offsets);

/// The one SpMM row kernel: `out[id] += c * x[col]` over the edges of each
/// CSR row, then `out[id] += self_loop[id] * x[id]`, where `id` is the
/// row's output row. In-memory, out-of-core, distributed and k-hop
/// serving propagation all describe their rows with this view and call
/// `ApplyRange`/`Apply`, so the schedule, the simd row and the byte bill
/// exist once.
///
/// Bit-identity: per output element, terms are added in ascending edge
/// order with the self-loop term last, each by one unfused `simd` axpy
/// lane (simd contract #1), skipping zero coefficients. Above 128 columns rows run
/// in edge-budgeted panels × 64-column blocks so a panel's gathered hub
/// slices stay cached; that is loop blocking only and changes no bit. Any
/// two row views with equal coefficient bits therefore produce equal
/// output bits, whatever their row partition or worker count.
struct SpmmRows {
  /// num_rows() + 1 entries; row r's edges are [offsets[r], offsets[r+1]).
  std::span<const int64_t> offsets;
  std::span<const NodeId> cols;   ///< The x row each edge gathers.
  std::span<const float> coeffs;  ///< Each edge's coefficient.
  /// Output (and self-loop x) row of row r; empty means r itself.
  std::span<const NodeId> row_ids;
  /// Self-loop coefficient per output row; empty means no self loops.
  std::span<const float> self_loop;

  int64_t num_rows() const { return static_cast<int64_t>(offsets.size()) - 1; }

  /// Accumulates rows [range) into `out` (same columns as `x`) and bills
  /// them to `common::GlobalCounters()`. Rows of different ranges write
  /// disjoint output rows, so ranges may run as parallel shards.
  void ApplyRange(const tensor::Matrix& x, tensor::Matrix* out,
                  par::Range range) const;

  /// Every row, serially on the calling thread (no `par` section, so a
  /// forked worker process may call it).
  void Apply(const tensor::Matrix& x, tensor::Matrix* out) const {
    ApplyRange(x, out, {0, num_rows()});
  }
};

/// Precomputed normalised sparse operator \hat{A}; the message-passing /
/// propagation kernel shared by all GNN models and decoupled methods.
///
/// With `add_self_loops`, the operator is built on A + I with degrees
/// incremented accordingly (the GCN "renormalisation trick"). Construction
/// normalises by *weighted* degree; zero-degree nodes propagate nothing.
class Propagator {
 public:
  Propagator(const CsrGraph& graph, Normalization norm, bool add_self_loops);

  /// out = \hat{A} x, dense feature version. `out` is overwritten.
  /// Instruments `common::GlobalCounters()` with edges touched and floats
  /// moved.
  void Apply(const tensor::Matrix& x, tensor::Matrix* out) const;

  /// Double-precision vector version (used by PPR / spectral iteration).
  void ApplyVector(const std::vector<double>& x, std::vector<double>* out) const;

  /// Applies the transpose operator \hat{A}^T (needed for backward passes
  /// on non-symmetric normalisations).
  void ApplyTranspose(const tensor::Matrix& x, tensor::Matrix* out) const;

  NodeId num_nodes() const { return graph_.num_nodes(); }
  EdgeIndex num_edges() const { return graph_.num_edges(); }
  Normalization normalization() const { return norm_; }
  bool self_loops() const { return self_loop_coeff_.size() > 0; }

  /// Normalised coefficient for the i-th stored edge of node u (aligned
  /// with `graph().Neighbors(u)`).
  std::span<const float> Coefficients(NodeId u) const {
    SGNN_DCHECK_LT(u, graph_.num_nodes());
    return {coeff_.data() + graph_.OffsetOf(u),
            static_cast<size_t>(graph_.OutDegree(u))};
  }

  /// Self-loop coefficient of node u (0 when self loops are disabled).
  float SelfLoopCoefficient(NodeId u) const {
    SGNN_DCHECK_LT(u, graph_.num_nodes());
    return self_loop_coeff_.empty() ? 0.0f : self_loop_coeff_[u];
  }

  const CsrGraph& graph() const { return graph_; }

 private:
  const CsrGraph& graph_;  // Not owned; must outlive the propagator.
  Normalization norm_;
  std::vector<float> coeff_;            // Per stored edge.
  std::vector<float> self_loop_coeff_;  // Per node; empty if no self loops.
};

/// Convenience: returns \hat{A}^k x by repeated application.
tensor::Matrix PropagateKHops(const Propagator& prop, const tensor::Matrix& x,
                              int hops);

}  // namespace sgnn::graph

#endif  // SGNN_GRAPH_PROPAGATE_H_
