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

/// Out-of-core adapters over the in-memory kernels, streaming shards
/// through the `ShardedGraph` cache instead of holding the adjacency
/// resident. None reimplements its kernel: propagation runs the shared
/// `graph::SpmmRows`, push the shared `ppr::RunForwardPush` loop, and
/// sampling the shared `sampling` layer frame, fan-out and node-wise draw.
/// An adapter only decides which shard to pin and when.
///
/// Bit-identity contract: same code on the same inputs. A shard holds
/// whole rows with the in-memory adjacency order, so for any shard plan,
/// any budget, and any `SGNN_THREADS` the outputs and op counters are
/// byte-identical to the in-memory kernel on the same graph. Only the
/// shard-fault/eviction counters change with the budget. Adapters pin
/// from the calling thread (parallelism fans out *inside* a pinned
/// shard), which also makes the load/eviction sequence deterministic.

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

/// Out-of-core `ppr::ForwardPush`: the same `ppr::RunForwardPush` loop,
/// whose row visit pins the owning shard once per actual push; threshold
/// tests read the resident degree index. A failed pin ends the push with
/// its status.
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

/// Out-of-core `sampling::SampleNodeWise`: the same layer frame, per-layer
/// engine draw, `sampling::DrawNodeWise` and `sampling::FanOutDraws`, so
/// the batch and its `edges_touched` bill are byte-identical to the
/// in-memory sampler with an equal-state `rng`. Destinations are grouped
/// by shard and shards pinned in ascending order; the keyed draws make the
/// grouping invisible in the output.
SGNN_NODISCARD common::StatusOr<sampling::MiniBatch> SampleNodeWise(
    ShardedGraph* graph, std::span<const graph::NodeId> seeds,
    std::span<const int> fanouts, common::Rng* rng);

}  // namespace sgnn::storage

#endif  // SGNN_STORAGE_OOC_H_
