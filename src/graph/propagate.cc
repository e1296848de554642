#include "graph/propagate.h"

#include <algorithm>
#include <cmath>

#include "common/counters.h"
#include "par/par.h"
#include "simd/simd.h"

namespace sgnn::graph {

namespace {

/// Edge traversals per shard below which a section stays single-shard.
constexpr int64_t kEdgeGrain = 32 * 1024;

/// Cache-blocked CSR schedule for wide-feature SpMM. Skewed degree
/// distributions make the x-row gather the bottleneck: a hub neighbour's
/// row is re-fetched from memory once per referencing output row when the
/// full row (cols * 4 bytes) no longer fits alongside the working set. The
/// blocked schedule walks output rows in panels of ~kSpmmPanelEdges edges
/// and feature columns in blocks of kSpmmColBlock floats, so each gathered
/// x-row *slice* is a few cache lines and the panel's hub slices stay
/// resident across the rows that share them. Engaged only above
/// kSpmmColBlockEngage columns; narrow rows already fit and the re-scanned
/// coefficient stream would be pure overhead.
constexpr int64_t kSpmmColBlock = 64;        ///< Floats per column block.
constexpr int64_t kSpmmColBlockEngage = 128; ///< Engage when cols exceed.
constexpr int64_t kSpmmPanelEdges = 4096;    ///< Edge budget per row panel.

double Inv(double d) { return d > 0.0 ? 1.0 / d : 0.0; }
double InvSqrt(double d) { return d > 0.0 ? 1.0 / std::sqrt(d) : 0.0; }

/// The SpMM bill: `edges` stored edges scanned (coefficient + index
/// streams) and `applied` axpy rows of `cols` floats, each reading the
/// gathered x slice and the output row and writing the output row.
/// Shared by `SpmmRows` and the transpose scatter.
void BillSpmm(uint64_t edges, uint64_t applied, int64_t cols) {
  const uint64_t row_bytes = static_cast<uint64_t>(cols) * sizeof(float);
  auto& counters = common::GlobalCounters();
  counters.edges_touched += edges;
  counters.floats_moved += edges * static_cast<uint64_t>(cols);
  counters.BillBytes(
      edges * (sizeof(float) + sizeof(NodeId)) + applied * 2u * row_bytes,
      applied * row_bytes);
}

}  // namespace

void NormalizeRow(Normalization norm, std::span<const double> degree,
                  NodeId u, std::span<const NodeId> nbrs,
                  std::span<const float> weights, float* out) {
  for (size_t i = 0; i < nbrs.size(); ++i) {
    double c = weights[i];
    switch (norm) {
      case Normalization::kNone:
        break;
      case Normalization::kRow:
        c *= Inv(degree[u]);
        break;
      case Normalization::kColumn:
        c *= Inv(degree[nbrs[i]]);
        break;
      case Normalization::kSymmetric:
        c *= InvSqrt(degree[u]) * InvSqrt(degree[nbrs[i]]);
        break;
    }
    out[i] = static_cast<float>(c);
  }
}

float NormalizeSelfLoop(Normalization norm, double d) {
  return static_cast<float>(norm == Normalization::kNone ? 1.0 : Inv(d));
}

std::vector<par::Range> RowShards(std::span<const int64_t> offsets) {
  return par::RowRanges(offsets, par::ShardsFor(offsets.back(), kEdgeGrain));
}

void SpmmRows::ApplyRange(const tensor::Matrix& x, tensor::Matrix* out,
                          par::Range range) const {
  SGNN_CHECK(out != nullptr);
  SGNN_CHECK_EQ(out->cols(), x.cols());
  SGNN_DCHECK_EQ(cols.size(), coeffs.size());
  SGNN_DCHECK(range.begin >= 0 && range.end <= num_rows());
  const int64_t ncols = x.cols();
  const int64_t* off = offsets.data();
  const NodeId* col = cols.data();
  const float* coeff = coeffs.data();
  const float* xs = x.data();
  float* os = out->data();
  const simd::KernelTable& kt = simd::Active();
  // Applied axpy row slices (nonzero edge coefficients + engaged self
  // loops): the data-movement term of the byte bill.
  uint64_t applied = 0;
  auto row_block = [&](int64_t r, int64_t j0, int64_t bw) {
    const int64_t id = row_ids.empty() ? r : row_ids[static_cast<size_t>(r)];
    float* orow = os + id * ncols + j0;
    for (int64_t e = off[r]; e < off[r + 1]; ++e) {
      const float c = coeff[e];
      if (c == 0.0f) continue;
      ++applied;
      kt.axpy(c, xs + static_cast<int64_t>(col[e]) * ncols + j0, orow, bw);
    }
    if (!self_loop.empty() && self_loop[static_cast<size_t>(id)] != 0.0f) {
      ++applied;
      kt.axpy(self_loop[static_cast<size_t>(id)], xs + id * ncols + j0, orow,
              bw);
    }
  };
  if (ncols > kSpmmColBlockEngage) {
    for (int64_t p0 = range.begin; p0 < range.end;) {
      // Grow the panel until its edge mass reaches the budget (always at
      // least one row, so a hub row becomes its own panel).
      int64_t p1 = p0 + 1;
      while (p1 < range.end && off[p1] - off[p0] < kSpmmPanelEdges) ++p1;
      for (int64_t j0 = 0; j0 < ncols; j0 += kSpmmColBlock) {
        const int64_t bw = std::min(kSpmmColBlock, ncols - j0);
        for (int64_t r = p0; r < p1; ++r) row_block(r, j0, bw);
      }
      p0 = p1;
    }
    // Each (row, edge) pair was applied once per column block; the bill
    // wants whole rows.
    applied /= static_cast<uint64_t>((ncols + kSpmmColBlock - 1) /
                                     kSpmmColBlock);
  } else {
    for (int64_t r = range.begin; r < range.end; ++r) row_block(r, 0, ncols);
  }
  BillSpmm(static_cast<uint64_t>(off[range.end] - off[range.begin]), applied,
           ncols);
}

Propagator::Propagator(const CsrGraph& graph, Normalization norm,
                       bool add_self_loops)
    : graph_(graph), norm_(norm) {
  const NodeId n = graph.num_nodes();
  const auto shards = RowShards(graph.offsets());
  std::vector<double> degree(n, 0.0);
  par::ParallelFor("prop.degrees", shards, [&](int, par::Range range) {
    for (int64_t u = range.begin; u < range.end; ++u) {
      degree[u] = graph.WeightedDegree(static_cast<NodeId>(u)) +
                  (add_self_loops ? 1.0 : 0.0);
    }
  });
  coeff_.resize(static_cast<size_t>(graph.num_edges()));
  par::ParallelFor("prop.coeffs", shards, [&](int, par::Range range) {
    for (int64_t uu = range.begin; uu < range.end; ++uu) {
      const NodeId u = static_cast<NodeId>(uu);
      NormalizeRow(norm_, degree, u, graph.Neighbors(u), graph.Weights(u),
                   coeff_.data() + graph.OffsetOf(u));
    }
  });
  if (add_self_loops) {
    self_loop_coeff_.resize(n);
    for (NodeId u = 0; u < n; ++u) {
      self_loop_coeff_[u] = NormalizeSelfLoop(norm_, degree[u]);
    }
  }
}

void Propagator::Apply(const tensor::Matrix& x, tensor::Matrix* out) const {
  SGNN_CHECK(out != nullptr);
  SGNN_CHECK_EQ(x.rows(), static_cast<int64_t>(graph_.num_nodes()));
  *out = tensor::Matrix(x.rows(), x.cols());
  // Row-partitioned SpMM: each shard owns a contiguous block of output
  // rows, so no write is shared and no atomics are needed.
  const SpmmRows rows{graph_.offsets(), graph_.neighbors(), coeff_, {},
                      self_loop_coeff_};
  par::ParallelFor("prop.apply", RowShards(graph_.offsets()),
                   [&](int, par::Range range) {
                     rows.ApplyRange(x, out, range);
                   });
}

void Propagator::ApplyVector(const std::vector<double>& x,
                             std::vector<double>* out) const {
  SGNN_CHECK(out != nullptr);
  SGNN_CHECK_EQ(x.size(), static_cast<size_t>(graph_.num_nodes()));
  SGNN_DCHECK_EQ(coeff_.size(), static_cast<size_t>(graph_.num_edges()));
  out->assign(x.size(), 0.0);
  par::ParallelFor(
      "prop.apply_vec", RowShards(graph_.offsets()),
      [&](int, par::Range range) {
        for (int64_t uu = range.begin; uu < range.end; ++uu) {
          const NodeId u = static_cast<NodeId>(uu);
          auto nbrs = graph_.Neighbors(u);
          const float* cs = coeff_.data() + graph_.OffsetOf(u);
          double acc = 0.0;
          for (size_t i = 0; i < nbrs.size(); ++i) acc += cs[i] * x[nbrs[i]];
          if (!self_loop_coeff_.empty()) acc += self_loop_coeff_[u] * x[u];
          (*out)[u] = acc;
        }
        common::GlobalCounters().edges_touched += static_cast<uint64_t>(
            graph_.OffsetOf(static_cast<NodeId>(range.end)) -
            graph_.OffsetOf(static_cast<NodeId>(range.begin)));
      });
}

void Propagator::ApplyTranspose(const tensor::Matrix& x,
                                tensor::Matrix* out) const {
  // Deliberately serial: the transpose scatters into rows indexed by the
  // *neighbour* ids, so row partitioning does not give disjoint writes.
  // Making this parallel would need a transposed CSR or atomics (which
  // break bit-determinism); the kernel is off the hot path.
  SGNN_CHECK(out != nullptr);
  SGNN_CHECK_EQ(x.rows(), static_cast<int64_t>(graph_.num_nodes()));
  SGNN_DCHECK_EQ(coeff_.size(), static_cast<size_t>(graph_.num_edges()));
  const int64_t cols = x.cols();
  *out = tensor::Matrix(x.rows(), cols);
  const simd::KernelTable& kt = simd::Active();
  uint64_t applied = 0;
  for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
    auto nbrs = graph_.Neighbors(u);
    const float* cs = coeff_.data() + graph_.OffsetOf(u);
    const float* xrow = x.data() + static_cast<int64_t>(u) * cols;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const float c = cs[i];
      if (c == 0.0f) continue;
      ++applied;
      kt.axpy(c, xrow, out->data() + static_cast<int64_t>(nbrs[i]) * cols,
              cols);
    }
    if (!self_loop_coeff_.empty() && self_loop_coeff_[u] != 0.0f) {
      ++applied;
      kt.axpy(self_loop_coeff_[u], xrow,
              out->data() + static_cast<int64_t>(u) * cols, cols);
    }
  }
  BillSpmm(static_cast<uint64_t>(graph_.num_edges()), applied, cols);
}

tensor::Matrix PropagateKHops(const Propagator& prop, const tensor::Matrix& x,
                              int hops) {
  SGNN_CHECK_GE(hops, 0);
  tensor::Matrix cur = x;
  tensor::Matrix next;
  for (int k = 0; k < hops; ++k) {
    prop.Apply(cur, &next);
    cur = std::move(next);
  }
  return cur;
}

}  // namespace sgnn::graph
