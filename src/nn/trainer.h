#ifndef SGNN_NN_TRAINER_H_
#define SGNN_NN_TRAINER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/types.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "tensor/matrix.h"

namespace sgnn::nn {

class Adam;

/// Configuration shared by all trainers in the library.
struct TrainConfig {
  int epochs = 200;
  double lr = 0.01;
  double weight_decay = 5e-4;
  double dropout = 0.5;
  int64_t hidden_dim = 64;
  int patience = 30;      ///< Early stop after this many non-improving epochs.
  uint64_t seed = 1;
  int batch_size = 0;     ///< 0 = full batch (where applicable).
};

/// Per-run training summary.
struct TrainReport {
  double best_val_accuracy = 0.0;
  double test_accuracy = 0.0;
  double final_train_loss = 0.0;
  int epochs_run = 0;
  double train_seconds = 0.0;
};

/// Tracks the best validation accuracy and the test accuracy achieved at
/// that point; signals early stop after `patience` non-improving updates.
class EarlyStopTracker {
 public:
  explicit EarlyStopTracker(int patience) : patience_(patience) {}

  /// Returns true when training should stop.
  bool Update(double val_accuracy, double test_accuracy) {
    if (val_accuracy > best_val_) {
      best_val_ = val_accuracy;
      test_at_best_ = test_accuracy;
      since_best_ = 0;
      return false;
    }
    return ++since_best_ >= patience_;
  }

  double best_val() const { return best_val_; }
  double test_at_best() const { return test_at_best_; }

 private:
  int patience_;
  int since_best_ = 0;
  double best_val_ = 0.0;
  double test_at_best_ = 0.0;
};

/// The optimiser side of one epoch, handed to the epoch body by `Fit`.
/// After a batch's gradients are accumulated, the body calls
/// `Step(batch_loss)`: one Adam update, and the batch's loss counted
/// toward the epoch mean.
class EpochSteps {
 public:
  explicit EpochSteps(Adam* opt) : opt_(opt) {}

  void Step(double batch_loss);

  int64_t batches() const { return batches_; }
  double mean_loss() const {
    return loss_sum_ / static_cast<double>(batches_);
  }

 private:
  Adam* opt_;
  double loss_sum_ = 0.0;
  int64_t batches_ = 0;
};

/// The one epoch loop of the model zoo. Builds the Adam optimiser over
/// `params` from `config`. Each epoch runs `run_epoch` (the trainer's
/// batches, each ending in `EpochSteps::Step`), then scores `eval()`'s
/// logits on `val_nodes`/`test_nodes`; training stops after
/// `config.patience` epochs without a strictly better validation accuracy.
/// The report carries the mean loss of the last epoch that stepped, the
/// best validation accuracy and the test accuracy at it (best weights are
/// NOT restored). Model init and preprocessing happen before the call, on
/// the caller's RNG; `Fit` draws nothing itself.
TrainReport Fit(std::vector<ParamRef> params, std::span<const int> labels,
                std::span<const graph::NodeId> val_nodes,
                std::span<const graph::NodeId> test_nodes,
                const TrainConfig& config,
                const std::function<void(EpochSteps*)>& run_epoch,
                const std::function<tensor::Matrix()>& eval);

/// Trains an MLP classifier on fixed (precomputed) row embeddings — the
/// decoupled-training loop shared by SGC, spectral and implicit models:
/// shuffled mini-batches over training rows through `Fit`.
/// Returns the report; `mlp` ends in its final state and can be used for
/// inference via `Mlp::Forward`.
TrainReport TrainMlpOnEmbeddings(Mlp* mlp, const tensor::Matrix& embeddings,
                                 std::span<const int> labels,
                                 std::span<const graph::NodeId> train_nodes,
                                 std::span<const graph::NodeId> val_nodes,
                                 std::span<const graph::NodeId> test_nodes,
                                 const TrainConfig& config);

}  // namespace sgnn::nn

#endif  // SGNN_NN_TRAINER_H_
