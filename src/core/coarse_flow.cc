#include "core/coarse_flow.h"

#include "graph/propagate.h"
#include "models/gcn.h"

namespace sgnn::core {

using graph::NodeId;
using tensor::Matrix;

CoarseTrainResult TrainOnCoarseGraph(const Dataset& dataset,
                                     double target_ratio,
                                     const nn::TrainConfig& config) {
  const models::FitMeter meter;
  common::Rng rng(config.seed);

  coarsen::Coarsening coarsening =
      coarsen::HeavyEdgeCoarsen(dataset.graph, target_ratio, config.seed);
  Matrix coarse_x = coarsen::RestrictFeatures(coarsening, dataset.features);
  std::vector<int> coarse_labels = coarsen::RestrictLabels(
      coarsening, dataset.labels, dataset.num_classes);

  // Coarse-side split for early stopping (test side is evaluated on the
  // fine graph, so any coarse test set would be redundant).
  models::NodeSplits coarse_splits =
      models::MakeSplits(coarsening.num_coarse(), 0.7, 0.29, config.seed);

  graph::Propagator coarse_prop(coarsening.coarse,
                                graph::Normalization::kSymmetric, true);
  models::Gcn model(coarse_x.cols(), config.hidden_dim, dataset.num_classes,
                    config.dropout, &rng);
  auto epoch = [&](nn::EpochSteps* steps) {
    model.ZeroGrad();
    steps->Step(model.TrainStep(coarse_prop, coarse_x, coarse_labels,
                                coarse_splits.train, {}, &rng));
  };
  // Lift coarse logits to fine nodes and score on the FINE splits.
  auto eval = [&] {
    return coarsen::LiftFeatures(coarsening,
                                 model.Predict(coarse_prop, coarse_x));
  };

  CoarseTrainResult result;
  result.coarse_nodes = coarsening.num_coarse();
  result.model = meter.Finish(
      "coarse_gcn", nn::Fit(model.Params(), dataset.labels,
                            dataset.splits.val, dataset.splits.test, config,
                            epoch, eval));
  result.spectral_distortion =
      coarsen::SpectralDistortion(dataset.graph, coarsening, 4, config.seed);
  return result;
}

}  // namespace sgnn::core
