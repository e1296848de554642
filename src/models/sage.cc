#include "models/sage.h"

#include <algorithm>

#include "common/check.h"
#include "common/counters.h"
#include "graph/propagate.h"
#include "nn/loss.h"
#include "sampling/neighbor_sampler.h"
#include "tensor/ops.h"

namespace sgnn::models {

using graph::NodeId;
using sampling::LayerSample;
using sampling::MiniBatch;
using tensor::Matrix;

SageModel::SageModel(const std::vector<int64_t>& dims, double dropout,
                     common::Rng* rng)
    : dropout_(dropout) {
  SGNN_CHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    self_.emplace_back(dims[i], dims[i + 1], rng);
    nbr_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

namespace {

/// Rows 0..n-1 of `m` (dst prefix of a block's src representation).
Matrix Prefix(const Matrix& m, int64_t n) {
  Matrix out(n, m.cols());
  std::copy(m.data(), m.data() + n * m.cols(), out.data());
  return out;
}

/// Weighted aggregation over a block using *local* source representations
/// (rows of `h` are ordered like layer.src), through the one SpMM row
/// kernel. Distinct from `sampling::AggregateThroughLayer`, which reads
/// globally-indexed rows.
Matrix AggregateLocal(const LayerSample& layer, const Matrix& h) {
  Matrix out(static_cast<int64_t>(layer.dst.size()), h.cols());
  graph::SpmmRows{layer.offsets, layer.src_local, layer.weights, {}, {}}
      .Apply(h, &out);
  return out;
}

}  // namespace

double SageModel::TrainStep(const MiniBatch& batch,
                            const Matrix& input_features,
                            std::span<const int> seed_labels,
                            common::Rng* rng) {
  SGNN_CHECK_EQ(batch.layers.size(), self_.size());
  SGNN_CHECK_EQ(input_features.rows(),
                static_cast<int64_t>(batch.input_nodes().size()));
  const size_t num_layers = self_.size();

  // Resident-activation accounting (E13): a sampled step keeps one
  // activation (and one gradient) row per sampled source per layer.
  uint64_t resident = static_cast<uint64_t>(input_features.size());
  for (size_t l = 0; l < num_layers; ++l) {
    resident += 2 * static_cast<uint64_t>(batch.layers[l].src.size()) *
                static_cast<uint64_t>(self_[l].out_dim());
  }
  common::GlobalCounters().Acquire(resident);

  // Forward with caches. Layer 0 reads the caller's features in place;
  // every later layer reads the previous layer's output.
  std::vector<Matrix> h_self;     // dst prefix per layer.
  std::vector<Matrix> agg;        // Aggregated neighbours per layer.
  std::vector<Matrix> pre;        // Pre-activation per non-final layer.
  std::vector<Matrix> masks;      // Dropout masks per non-final layer.
  Matrix out;
  const Matrix* in = &input_features;
  for (size_t l = 0; l < num_layers; ++l) {
    const LayerSample& layer = batch.layers[l];
    SGNN_CHECK_EQ(in->rows(), static_cast<int64_t>(layer.src.size()));
    h_self.push_back(Prefix(*in, static_cast<int64_t>(layer.dst.size())));
    agg.push_back(AggregateLocal(layer, *in));
    Matrix out_self, out_nbr;
    self_[l].Forward(h_self.back(), &out_self);
    nbr_[l].Forward(agg.back(), &out_nbr);
    tensor::Axpy(1.0f, out_nbr, &out_self);
    const bool is_last = (l + 1 == num_layers);
    if (!is_last) {
      pre.push_back(out_self);
      tensor::Relu(&out_self);
      Matrix mask;
      nn::DropoutForward(dropout_, true, rng, &out_self, &mask);
      masks.push_back(std::move(mask));
    }
    out = std::move(out_self);
    in = &out;
  }

  // Loss over all seeds.
  std::vector<NodeId> rows(batch.seeds().size());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<NodeId>(i);
  Matrix dout;
  const double loss = nn::SoftmaxCrossEntropy(out, seed_labels, rows, &dout);

  // Backward. Input features are not parameters, so layer 0 computes only
  // its weight gradients: no d(input), no scatter onto sampled sources.
  for (size_t l = num_layers; l-- > 0;) {
    const LayerSample& layer = batch.layers[l];
    const bool is_last = (l + 1 == num_layers);
    if (!is_last) {
      nn::DropoutBackward(masks[l], &dout);
      tensor::ReluBackward(pre[l], &dout);
    }
    if (l == 0) {
      self_[0].Backward(h_self[0], dout, nullptr);
      nbr_[0].Backward(agg[0], dout, nullptr);
      break;
    }
    Matrix dself, dagg;
    self_[l].Backward(h_self[l], dout, &dself);
    nbr_[l].Backward(agg[l], dout, &dagg);
    // d(input rep): self path hits the dst prefix; aggregation transposes
    // onto sampled sources.
    Matrix dinput(static_cast<int64_t>(layer.src.size()), dself.cols());
    std::copy(dself.data(),
              dself.data() + dself.rows() * dself.cols(), dinput.data());
    const int64_t cols = dagg.cols();
    for (size_t i = 0; i < layer.dst.size(); ++i) {
      const float* grow = dagg.data() + static_cast<int64_t>(i) * cols;
      for (graph::EdgeIndex e = layer.offsets[i]; e < layer.offsets[i + 1];
           ++e) {
        float* drow = dinput.data() +
                      static_cast<int64_t>(layer.src_local[static_cast<size_t>(e)]) * cols;
        const float w = layer.weights[static_cast<size_t>(e)];
        for (int64_t c = 0; c < cols; ++c) drow[c] += w * grow[c];
      }
    }
    common::GlobalCounters().edges_touched +=
        static_cast<uint64_t>(layer.num_edges());
    dout = std::move(dinput);
  }
  common::GlobalCounters().Release(resident);
  return loss;
}

Matrix SageModel::Predict(const graph::CsrGraph& graph, const Matrix& x) {
  // Exact mean aggregation: D^-1 A without self loops.
  graph::Propagator mean_prop(graph, graph::Normalization::kRow,
                              /*add_self_loops=*/false);
  // Layer 0 reads `x` in place; every later layer reads the previous
  // layer's output.
  Matrix cur;
  const Matrix* in = &x;
  for (size_t l = 0; l < self_.size(); ++l) {
    Matrix aggregated;
    mean_prop.Apply(*in, &aggregated);
    Matrix out_self, out_nbr;
    self_[l].Forward(*in, &out_self);
    nbr_[l].Forward(aggregated, &out_nbr);
    tensor::Axpy(1.0f, out_nbr, &out_self);
    if (l + 1 < self_.size()) tensor::Relu(&out_self);
    cur = std::move(out_self);
    in = &cur;
  }
  return cur;
}

void SageModel::ZeroGrad() {
  for (auto& layer : self_) layer.ZeroGrad();
  for (auto& layer : nbr_) layer.ZeroGrad();
}

std::vector<nn::ParamRef> SageModel::Params() {
  std::vector<nn::ParamRef> params;
  for (auto& layer : self_) {
    for (const auto& p : layer.Params()) params.push_back(p);
  }
  for (auto& layer : nbr_) {
    for (const auto& p : layer.Params()) params.push_back(p);
  }
  return params;
}

ModelResult TrainSage(const graph::CsrGraph& graph, const Matrix& x,
                      std::span<const int> labels, const NodeSplits& splits,
                      const nn::TrainConfig& config, const SageConfig& sage) {
  SGNN_CHECK(!sage.fanouts.empty());
  const FitMeter meter;
  common::Rng rng(config.seed);

  // dims = {in, hidden x (L-1), out} with L = fanouts.size().
  std::vector<int64_t> dims = {x.cols()};
  for (size_t l = 0; l + 1 < sage.fanouts.size(); ++l) {
    dims.push_back(config.hidden_dim);
  }
  dims.push_back(NumClasses(labels));
  SGNN_CHECK_EQ(dims.size(), sage.fanouts.size() + 1);
  SageModel model(dims, config.dropout, &rng);

  const size_t batch_size =
      config.batch_size > 0 ? static_cast<size_t>(config.batch_size) : 64;
  std::vector<NodeId> order(splits.train.begin(), splits.train.end());
  auto epoch = [&](nn::EpochSteps* steps) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < order.size(); start += batch_size) {
      const size_t end = std::min(order.size(), start + batch_size);
      std::vector<NodeId> seeds(order.begin() + static_cast<int64_t>(start),
                                order.begin() + static_cast<int64_t>(end));
      MiniBatch batch =
          sage.use_labor
              ? sampling::SampleLabor(graph, seeds, sage.fanouts, &rng)
              : sampling::SampleNodeWise(graph, seeds, sage.fanouts, &rng);
      std::vector<int64_t> gather(batch.input_nodes().begin(),
                                  batch.input_nodes().end());
      Matrix input = x.GatherRows(gather);
      std::vector<int> seed_labels(seeds.size());
      for (size_t i = 0; i < seeds.size(); ++i) {
        seed_labels[i] = labels[seeds[i]];
      }
      model.ZeroGrad();
      steps->Step(model.TrainStep(batch, input, seed_labels, &rng));
    }
  };
  auto eval = [&] { return model.Predict(graph, x); };
  return meter.Finish(sage.use_labor ? "sage_labor" : "sage",
                      nn::Fit(model.Params(), labels, splits.val, splits.test,
                              config, epoch, eval));
}

}  // namespace sgnn::models
