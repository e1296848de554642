#ifndef SGNN_SAMPLING_ASSEMBLY_H_
#define SGNN_SAMPLING_ASSEMBLY_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/counters.h"
#include "common/status.h"
#include "graph/types.h"
#include "par/par.h"
#include "sampling/block.h"

namespace sgnn::sampling {

/// The pieces of a sampled mini-batch that the in-memory samplers and the
/// out-of-core sampler in `sgnn::storage` share: the layer frame, the
/// destination fan-out with its bill, the node-wise draw and the block
/// assembly. Both run this code, so equal adjacency and an equal-state
/// `rng` give byte-identical batches and equal counters.

/// One destination's sampled (neighbour, weight) list.
using DstEdges = std::vector<std::pair<graph::NodeId, float>>;

/// Seeds -> frontier -> innermost-first `MiniBatch`: calls
/// `sample_layer(l, dst, &layer)` for l = 0 (the seeds) inward, each
/// layer's `src` becoming the next layer's `dst`, and returns the first
/// non-OK status it gets.
template <typename SampleLayerFn>
common::StatusOr<MiniBatch> BuildBatch(std::span<const graph::NodeId> seeds,
                                       int num_layers,
                                       SampleLayerFn&& sample_layer) {
  SGNN_CHECK_GE(num_layers, 1);
  SGNN_CHECK(!seeds.empty());
  MiniBatch batch;
  batch.layers.resize(static_cast<size_t>(num_layers));
  std::span<const graph::NodeId> frontier = seeds;
  for (int l = 0; l < num_layers; ++l) {
    LayerSample& layer = batch.layers[static_cast<size_t>(num_layers - 1 - l)];
    SGNN_RETURN_IF_ERROR(sample_layer(l, frontier, &layer));
    frontier = layer.src;
  }
  return batch;
}

/// Destinations per par shard below which a fan-out stays one shard.
inline constexpr int64_t kDstGrain = 256;

/// Runs `draw(i)` for every i in [0, count) over the `sgnn::par` pool, in
/// `par::ShardsFor(count, kDstGrain)` near-equal shards: a geometry fixed
/// by `count` alone. `draw` returns the adjacency entries it read; each
/// shard bills their sum to `edges_touched`. Draws must not depend on
/// which worker runs them.
template <typename DrawFn>
void FanOutDraws(const char* section, size_t count, DrawFn&& draw) {
  const int64_t n = static_cast<int64_t>(count);
  par::ParallelFor(section, par::SplitUniform(n, par::ShardsFor(n, kDstGrain)),
                   [&](int, par::Range range) {
                     uint64_t scanned = 0;
                     for (int64_t i = range.begin; i < range.end; ++i) {
                       scanned += draw(i);
                     }
                     common::GlobalCounters().edges_touched += scanned;
                   });
}

/// The node-wise draw of destination `node` with adjacency `nbrs`: every
/// neighbour at weight 1/d when d <= `fanout`, else `fanout` picks without
/// replacement from the keyed stream (`layer_base`, `node`) at weight
/// 1/fanout. Appends to `out`; returns the entries read, which are the
/// entries kept.
uint64_t DrawNodeWise(std::span<const graph::NodeId> nbrs,
                      graph::NodeId node, int fanout, uint64_t layer_base,
                      DstEdges* out);

/// Assembles a `LayerSample` from per-destination sampled
/// (neighbour, weight) lists: `src` = dst (prefix, same order) followed by
/// newly seen neighbours in first-appearance order, `src_local`/`weights`
/// flattened in destination order. Pure assembly — no draws.
/// Global ids map to local ones through a dense `num_nodes`-sized index
/// (every id must be below `num_nodes`); a repeated destination keeps its
/// first position.
LayerSample AssembleLayer(graph::NodeId num_nodes,
                          std::span<const graph::NodeId> dst,
                          const std::vector<DstEdges>& edges);

}  // namespace sgnn::sampling

#endif  // SGNN_SAMPLING_ASSEMBLY_H_
