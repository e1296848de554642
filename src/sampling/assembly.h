#ifndef SGNN_SAMPLING_ASSEMBLY_H_
#define SGNN_SAMPLING_ASSEMBLY_H_

#include <span>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "sampling/block.h"

namespace sgnn::sampling {

/// Assembles a `LayerSample` from per-destination sampled
/// (neighbour, weight) lists: `src` = dst (prefix, same order) followed by
/// newly seen neighbours in first-appearance order, `src_local`/`weights`
/// flattened in destination order. Pure assembly — no draws — shared by
/// the in-memory samplers and the out-of-core sampler in `sgnn::storage`,
/// so both produce byte-identical blocks from identical edge lists.
/// Global ids map to local ones through a dense `num_nodes`-sized index
/// (every id must be below `num_nodes`); a repeated destination keeps its
/// first position.
LayerSample AssembleLayer(
    graph::NodeId num_nodes, std::span<const graph::NodeId> dst,
    const std::vector<std::vector<std::pair<graph::NodeId, float>>>& edges);

}  // namespace sgnn::sampling

#endif  // SGNN_SAMPLING_ASSEMBLY_H_
