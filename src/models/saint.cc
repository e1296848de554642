#include "models/saint.h"

#include "graph/propagate.h"
#include "models/gcn.h"
#include "sampling/subgraph_sampler.h"

namespace sgnn::models {

using graph::NodeId;
using sampling::SampledSubgraph;
using tensor::Matrix;

ModelResult TrainSaint(const graph::CsrGraph& graph, const Matrix& x,
                       std::span<const int> labels, const NodeSplits& splits,
                       const nn::TrainConfig& config,
                       const SaintConfig& saint) {
  const FitMeter meter;
  common::Rng rng(config.seed);

  // Inclusion-probability estimate for the loss normalisation: weight a
  // node's loss by 1/p(included) so the expected mini-batch gradient
  // matches the full-graph one.
  std::vector<double> inclusion;
  if (saint.norm_trials > 0) {
    common::Rng norm_rng(config.seed ^ 0x5151);
    if (saint.sampler == SaintConfig::Sampler::kNode) {
      inclusion = sampling::EstimateInclusionProbabilities(
          graph, saint.node_budget, saint.norm_trials, &norm_rng);
    } else {
      std::vector<int64_t> hits(graph.num_nodes(), 0);
      for (int t = 0; t < saint.norm_trials; ++t) {
        SampledSubgraph s = sampling::SampleSubgraphWalks(
            graph, saint.walk_roots, saint.walk_length, &norm_rng);
        for (NodeId u : s.nodes) hits[u]++;
      }
      inclusion.resize(graph.num_nodes());
      for (NodeId u = 0; u < graph.num_nodes(); ++u) {
        inclusion[u] = static_cast<double>(hits[u]) / saint.norm_trials;
      }
    }
  }

  Gcn model(x.cols(), config.hidden_dim, NumClasses(labels), config.dropout,
            &rng);
  std::vector<bool> is_train(graph.num_nodes(), false);
  for (NodeId u : splits.train) is_train[u] = true;
  graph::Propagator full_prop(graph, graph::Normalization::kSymmetric, true);

  auto epoch = [&](nn::EpochSteps* steps) {
    for (int b = 0; b < saint.batches_per_epoch; ++b) {
      SampledSubgraph sub =
          saint.sampler == SaintConfig::Sampler::kNode
              ? sampling::SampleSubgraphNodes(graph, saint.node_budget, &rng)
              : sampling::SampleSubgraphWalks(graph, saint.walk_roots,
                                              saint.walk_length, &rng);
      const std::vector<NodeId> local_train =
          LocalTrainRows(sub.nodes, is_train);
      if (local_train.empty()) continue;
      std::vector<float> weights(local_train.size(), 1.0f);
      for (size_t j = 0; j < local_train.size(); ++j) {
        const NodeId global = sub.nodes[local_train[j]];
        if (!inclusion.empty() && inclusion[global] > 0.0) {
          weights[j] = static_cast<float>(1.0 / inclusion[global]);
        }
      }
      StepOnSubgraph(&model, sub.subgraph, sub.nodes, local_train, weights, x,
                     labels, steps, &rng);
    }
  };
  auto eval = [&] { return model.Predict(full_prop, x); };
  return meter.Finish(
      saint.sampler == SaintConfig::Sampler::kWalk ? "saint_walk"
                                                   : "saint_node",
      nn::Fit(model.Params(), labels, splits.val, splits.test, config, epoch,
              eval));
}

}  // namespace sgnn::models
