#ifndef SGNN_SERVE_FROZEN_MODEL_H_
#define SGNN_SERVE_FROZEN_MODEL_H_

#include <vector>

#include "nn/mlp.h"
#include "tensor/matrix.h"

namespace sgnn::serve {

/// Immutable forward-only snapshot of a trained MLP head: the inference
/// artifact a pipeline run hands to the serving layer. All state is frozen
/// at construction, so a single instance is safely shared by any number of
/// serving threads without locks (every method is const and allocation-free
/// on shared state).
///
/// `Forward` reproduces `nn::Mlp::Forward(x, /*training=*/false, ...)`
/// bit-for-bit: same GEMM, bias and ReLU kernels, and inference-mode
/// dropout is the identity.
class FrozenModel {
 public:
  /// Snapshots the current weights of `mlp` (deep copy; later training
  /// steps on `mlp` do not affect this artifact).
  static FrozenModel FromMlp(const nn::Mlp& mlp);

  FrozenModel(const FrozenModel&) = default;
  FrozenModel& operator=(const FrozenModel&) = default;
  FrozenModel(FrozenModel&&) = default;
  FrozenModel& operator=(FrozenModel&&) = default;

  /// Computes logits for a batch of embedding rows. Thread-safe.
  void Forward(const tensor::Matrix& x, tensor::Matrix* logits) const;

  int64_t in_dim() const { return layers_.front().weight.rows(); }
  int64_t out_dim() const { return layers_.back().weight.cols(); }
  int num_layers() const { return static_cast<int>(layers_.size()); }

 private:
  struct FrozenLayer {
    tensor::Matrix weight;  // in x out
    tensor::Matrix bias;    // 1 x out
  };

  explicit FrozenModel(std::vector<FrozenLayer> layers)
      : layers_(std::move(layers)) {}

  std::vector<FrozenLayer> layers_;
};

}  // namespace sgnn::serve

#endif  // SGNN_SERVE_FROZEN_MODEL_H_
