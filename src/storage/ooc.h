#ifndef SGNN_STORAGE_OOC_H_
#define SGNN_STORAGE_OOC_H_

#include <span>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/propagate.h"
#include "ppr/ppr.h"
#include "sampling/block.h"
#include "storage/sharded_graph.h"
#include "tensor/matrix.h"

namespace sgnn::storage {

/// Out-of-core counterparts of the in-memory kernels, streaming shards
/// through the `ShardedGraph` cache instead of holding the adjacency
/// resident.
///
/// Bit-identity contract: each kernel reproduces its in-memory
/// counterpart's arithmetic exactly — same per-row accumulation order,
/// same double->float coefficient rounding, same keyed RNG draws — and a
/// shard holds whole rows, so for any shard plan, any budget, and any
/// `SGNN_THREADS` the outputs are byte-identical to the in-memory kernel
/// on the same graph. Only the shard-fault/eviction counters change with
/// the budget. Kernels orchestrate cache access from the calling thread
/// (parallelism fans out *inside* a pinned shard), which also makes the
/// load/eviction sequence deterministic.

/// Out-of-core `graph::Propagator`: the O(num_edges) coefficient array is
/// never materialised — each pinned shard's coefficients are computed
/// into one buffer reused across shards, from a resident O(num_nodes)
/// degree table with the in-memory constructor's own helper
/// (`graph::NormalizeRow`), so the rounded float applied per edge is
/// bit-identical. Rows run through the shared `graph::SpmmRows` kernel.
class OocPropagator {
 public:
  /// Builds the resident degree/self-loop tables with one streaming pass
  /// over the shards (ascending order). Fails with the cache's status when
  /// a shard cannot be loaded. `graph` must outlive the propagator.
  static common::StatusOr<OocPropagator> Create(ShardedGraph* graph,
                                                graph::Normalization norm,
                                                bool add_self_loops);

  /// out = \hat{A} x, bit-identical to `Propagator::Apply`. Streams shards
  /// in ascending order; rows within the pinned shard fan out over
  /// `sgnn::par`. Bills edges, floats and bytes to
  /// `common::GlobalCounters` exactly like the in-memory kernel.
  SGNN_NODISCARD common::Status Apply(const tensor::Matrix& x, tensor::Matrix* out) const;

  graph::Normalization normalization() const { return norm_; }
  bool self_loops() const { return !self_loop_coeff_.empty(); }

  /// Public only for `StatusOr`; a default-constructed propagator is inert.
  OocPropagator() = default;

 private:
  ShardedGraph* graph_ = nullptr;
  graph::Normalization norm_ = graph::Normalization::kNone;
  std::vector<double> degree_;          // Weighted degree (+1 w/ self loops).
  std::vector<float> self_loop_coeff_;  // Per node; empty if no self loops.
};

/// Out-of-core `ppr::ForwardPush`: identical queue traversal (and thus
/// identical result and push/edge counts); neighbour reads pin the owning
/// shard per push, degrees come from the resident index.
SGNN_NODISCARD common::StatusOr<ppr::PushResult> ForwardPush(ShardedGraph* graph,
                                              graph::NodeId source,
                                              double alpha, double r_max);

/// Out-of-core `ppr::PushBatch`. Seeds run *sequentially* (unlike the
/// in-memory batch) so the eviction sequence is reproducible; per-seed
/// results are bit-identical to both `ppr::PushBatch` and per-seed
/// `ForwardPush`.
SGNN_NODISCARD common::StatusOr<std::vector<ppr::PushResult>> PushBatch(
    ShardedGraph* graph, std::span<const graph::NodeId> seeds, double alpha,
    double r_max);

/// Out-of-core `sampling::SampleNodeWise`: same per-layer engine draw and
/// per-destination keyed streams, so the batch is byte-identical to the
/// in-memory sampler with an equal-state `rng`. Destinations are grouped
/// by shard and shards visited in ascending order; the keyed draws make
/// the grouping invisible in the output. Bills `edges_touched` exactly as
/// the in-memory sampler does.
SGNN_NODISCARD common::StatusOr<sampling::MiniBatch> SampleNodeWise(
    ShardedGraph* graph, std::span<const graph::NodeId> seeds,
    std::span<const int> fanouts, common::Rng* rng);

}  // namespace sgnn::storage

#endif  // SGNN_STORAGE_OOC_H_
