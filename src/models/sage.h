#ifndef SGNN_MODELS_SAGE_H_
#define SGNN_MODELS_SAGE_H_

#include <span>

#include "models/api.h"
#include "nn/linear.h"
#include "sampling/block.h"

namespace sgnn::models {

/// GraphSAGE (Hamilton et al.) with mean aggregation: the canonical
/// node-wise-sampled mini-batch GNN of §3.1.2/§3.3.2. Per layer,
///   h'_v = ReLU(W_self h_v + W_nbr mean_{u in sampled N(v)} h_u + b),
/// trained on blocks produced by `sampling::SampleNodeWise` (or any
/// compatible sampler: LABOR works unchanged).
class SageModel {
 public:
  /// `dims` = {in, hidden..., out}: one Sage layer per consecutive pair.
  SageModel(const std::vector<int64_t>& dims, double dropout,
            common::Rng* rng);

  /// Forward + masked-CE backward over one sampled mini-batch whose
  /// `batch.layers.size()` equals the number of Sage layers.
  /// `input_features` are rows for `batch.input_nodes()`, gathered by the
  /// caller; they are read in place and get no gradient (they are not
  /// parameters). Loss is over all seeds. Returns the loss.
  double TrainStep(const sampling::MiniBatch& batch,
                   const tensor::Matrix& input_features,
                   std::span<const int> seed_labels, common::Rng* rng);

  /// Full-graph inference: exact mean aggregation per layer.
  tensor::Matrix Predict(const graph::CsrGraph& graph,
                         const tensor::Matrix& x);

  void ZeroGrad();
  std::vector<nn::ParamRef> Params();
  int num_layers() const { return static_cast<int>(self_.size()); }

 private:
  std::vector<nn::Linear> self_;
  std::vector<nn::Linear> nbr_;
  double dropout_;
};

/// Mini-batch GraphSAGE training with node-wise sampling.
struct SageConfig {
  std::vector<int> fanouts = {10, 10};
  bool use_labor = false;  ///< Swap in the LABOR sampler.
};
ModelResult TrainSage(const graph::CsrGraph& graph, const tensor::Matrix& x,
                      std::span<const int> labels, const NodeSplits& splits,
                      const nn::TrainConfig& config,
                      const SageConfig& sage = SageConfig());

}  // namespace sgnn::models

#endif  // SGNN_MODELS_SAGE_H_
