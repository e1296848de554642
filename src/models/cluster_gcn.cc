#include "models/cluster_gcn.h"

#include "graph/propagate.h"
#include "models/gcn.h"
#include "partition/partition.h"

namespace sgnn::models {

using graph::NodeId;
using tensor::Matrix;

ModelResult TrainClusterGcn(const graph::CsrGraph& graph, const Matrix& x,
                            std::span<const int> labels,
                            const NodeSplits& splits,
                            const nn::TrainConfig& config,
                            const ClusterGcnConfig& cluster) {
  const FitMeter meter;
  common::Rng rng(config.seed);

  // One-time partitioning (the preprocessing the method amortises).
  partition::Partition parts =
      cluster.use_multilevel
          ? partition::MultilevelPartition(graph, cluster.num_parts,
                                           partition::MultilevelConfig{},
                                           config.seed)
          : partition::LdgPartition(graph, cluster.num_parts, 1.1,
                                    config.seed);

  Gcn model(x.cols(), config.hidden_dim, NumClasses(labels), config.dropout,
            &rng);
  std::vector<bool> is_train(graph.num_nodes(), false);
  for (NodeId u : splits.train) is_train[u] = true;
  graph::Propagator full_prop(graph, graph::Normalization::kSymmetric, true);

  auto epoch = [&](nn::EpochSteps* steps) {
    auto batches = partition::ClusterBatches(parts, cluster.parts_per_batch,
                                             rng.engine()());
    for (const auto& batch_nodes : batches) {
      const std::vector<NodeId> local_train =
          LocalTrainRows(batch_nodes, is_train);
      if (local_train.empty()) continue;
      StepOnSubgraph(&model, graph.InducedSubgraph(batch_nodes), batch_nodes,
                     local_train, {}, x, labels, steps, &rng);
    }
  };
  auto eval = [&] { return model.Predict(full_prop, x); };
  return meter.Finish("cluster_gcn",
                      nn::Fit(model.Params(), labels, splits.val, splits.test,
                              config, epoch, eval));
}

}  // namespace sgnn::models
