#include "models/gcn.h"

#include "common/check.h"
#include "nn/loss.h"
#include "tensor/ops.h"

namespace sgnn::models {

using graph::Propagator;
using tensor::Matrix;

Gcn::Gcn(int64_t in_dim, int64_t hidden_dim, int64_t out_dim, double dropout,
         common::Rng* rng)
    : l0_(in_dim, hidden_dim, rng),
      l1_(hidden_dim, out_dim, rng),
      dropout_(dropout) {}

double Gcn::TrainStep(const Propagator& prop, const Matrix& x,
                      std::span<const int> labels,
                      std::span<const graph::NodeId> loss_rows,
                      std::span<const float> loss_weights,
                      common::Rng* rng) {
  // Resident-activation accounting for the E13 memory comparison: a
  // full-batch step materialises hidden and logit activations (and their
  // gradients) for every node of the graph passed in.
  const uint64_t resident =
      2 * static_cast<uint64_t>(x.rows()) *
      static_cast<uint64_t>(l0_.out_dim() + l1_.out_dim());
  common::GlobalCounters().Acquire(resident);
  // Forward: t0 = X W0 + b0; h_pre = S t0; h = dropout(relu(h_pre));
  //          t1 = h W1 + b1; logits = S t1.
  Matrix t0;
  l0_.Forward(x, &t0);
  Matrix h_pre;
  prop.Apply(t0, &h_pre);
  Matrix h = h_pre;
  tensor::Relu(&h);
  Matrix mask;
  nn::DropoutForward(dropout_, /*training=*/true, rng, &h, &mask);
  Matrix t1;
  l1_.Forward(h, &t1);
  Matrix logits;
  prop.Apply(t1, &logits);

  Matrix dlogits;
  const double loss =
      loss_weights.empty()
          ? nn::SoftmaxCrossEntropy(logits, labels, loss_rows, &dlogits)
          : nn::SoftmaxCrossEntropyWeighted(logits, labels, loss_rows,
                                            loss_weights, &dlogits);

  // Backward (S is symmetric, so S^T = S).
  Matrix dt1;
  prop.Apply(dlogits, &dt1);
  Matrix dh;
  l1_.Backward(h, dt1, &dh);
  nn::DropoutBackward(mask, &dh);
  tensor::ReluBackward(h_pre, &dh);
  Matrix dt0;
  prop.Apply(dh, &dt0);
  l0_.Backward(x, dt0, nullptr);
  common::GlobalCounters().Release(resident);
  return loss;
}

Matrix Gcn::Predict(const Propagator& prop, const Matrix& x) {
  Matrix t0;
  l0_.Forward(x, &t0);
  Matrix h;
  prop.Apply(t0, &h);
  tensor::Relu(&h);
  Matrix t1;
  l1_.Forward(h, &t1);
  Matrix logits;
  prop.Apply(t1, &logits);
  return logits;
}

void Gcn::ZeroGrad() {
  l0_.ZeroGrad();
  l1_.ZeroGrad();
}

std::vector<nn::ParamRef> Gcn::Params() {
  std::vector<nn::ParamRef> params = l0_.Params();
  for (const nn::ParamRef& p : l1_.Params()) params.push_back(p);
  return params;
}

std::vector<graph::NodeId> LocalTrainRows(std::span<const graph::NodeId> nodes,
                                          const std::vector<bool>& is_train) {
  std::vector<graph::NodeId> local;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (is_train[nodes[i]]) local.push_back(static_cast<graph::NodeId>(i));
  }
  return local;
}

void StepOnSubgraph(Gcn* model, const graph::CsrGraph& sub,
                    std::span<const graph::NodeId> nodes,
                    std::span<const graph::NodeId> local_train,
                    std::span<const float> loss_weights, const Matrix& x,
                    std::span<const int> labels, nn::EpochSteps* steps,
                    common::Rng* rng) {
  const Propagator sub_prop(sub, graph::Normalization::kSymmetric, true);
  const std::vector<int64_t> gather(nodes.begin(), nodes.end());
  const Matrix sub_x = x.GatherRows(gather);
  // Batch features are resident alongside the activations that
  // `Gcn::TrainStep` accounts for itself.
  const uint64_t resident = static_cast<uint64_t>(sub_x.size());
  common::GlobalCounters().Acquire(resident);
  std::vector<int> sub_labels(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) sub_labels[i] = labels[nodes[i]];
  model->ZeroGrad();
  steps->Step(model->TrainStep(sub_prop, sub_x, sub_labels, local_train,
                               loss_weights, rng));
  common::GlobalCounters().Release(resident);
}

ModelResult TrainGcn(const graph::CsrGraph& graph, const Matrix& x,
                     std::span<const int> labels, const NodeSplits& splits,
                     const nn::TrainConfig& config, const GcnConfig& gcn) {
  const FitMeter meter;
  common::Rng rng(config.seed);
  Propagator prop(graph, graph::Normalization::kSymmetric, gcn.self_loops);
  Gcn model(x.cols(), config.hidden_dim, NumClasses(labels), config.dropout,
            &rng);
  auto epoch = [&](nn::EpochSteps* steps) {
    model.ZeroGrad();
    steps->Step(model.TrainStep(prop, x, labels, splits.train, {}, &rng));
  };
  auto eval = [&] { return model.Predict(prop, x); };
  return meter.Finish("gcn", nn::Fit(model.Params(), labels, splits.val,
                                     splits.test, config, epoch, eval));
}

}  // namespace sgnn::models
