#include "serve/frozen_model.h"

#include <algorithm>

#include "common/check.h"
#include "tensor/ops.h"

namespace sgnn::serve {

using tensor::Matrix;

FrozenModel FrozenModel::FromMlp(const nn::Mlp& mlp) {
  SGNN_CHECK(!mlp.layers().empty());
  std::vector<FrozenLayer> layers;
  layers.reserve(mlp.layers().size());
  for (const nn::Linear& layer : mlp.layers()) {
    layers.push_back({layer.weight(), layer.bias()});
  }
  return FrozenModel(std::move(layers));
}

void FrozenModel::Forward(const Matrix& x, Matrix* logits) const {
  SGNN_CHECK(logits != nullptr);
  SGNN_CHECK_EQ(x.cols(), in_dim());
  Matrix cur = x;
  for (size_t l = 0; l < layers_.size(); ++l) {
    Matrix out;
    tensor::Gemm(cur, layers_[l].weight, &out);
    tensor::AddBiasRow(layers_[l].bias.Row(0), &out);
    if (l + 1 < layers_.size()) tensor::Relu(&out);
    cur = std::move(out);
  }
  *logits = std::move(cur);
}

}  // namespace sgnn::serve
