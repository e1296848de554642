#include "nn/trainer.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/counters.h"
#include "common/timer.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace sgnn::nn {

using graph::NodeId;
using tensor::Matrix;

void EpochSteps::Step(double batch_loss) {
  opt_->Step();
  loss_sum_ += batch_loss;
  ++batches_;
}

TrainReport Fit(std::vector<ParamRef> params, std::span<const int> labels,
                std::span<const NodeId> val_nodes,
                std::span<const NodeId> test_nodes, const TrainConfig& config,
                const std::function<void(EpochSteps*)>& run_epoch,
                const std::function<Matrix()>& eval) {
  Adam opt(std::move(params), config.lr, 0.9, 0.999, 1e-8,
           config.weight_decay);
  EarlyStopTracker tracker(config.patience);
  common::WallTimer timer;
  TrainReport report;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    EpochSteps steps(&opt);
    run_epoch(&steps);
    // An epoch in which no batch stepped keeps the previous epoch's loss.
    if (steps.batches() > 0) report.final_train_loss = steps.mean_loss();
    report.epochs_run = epoch + 1;

    const Matrix logits = eval();
    if (tracker.Update(Accuracy(logits, labels, val_nodes),
                       Accuracy(logits, labels, test_nodes))) {
      break;
    }
  }
  report.best_val_accuracy = tracker.best_val();
  report.test_accuracy = tracker.test_at_best();
  report.train_seconds = timer.Seconds();
  return report;
}

TrainReport TrainMlpOnEmbeddings(Mlp* mlp, const Matrix& embeddings,
                                 std::span<const int> labels,
                                 std::span<const NodeId> train_nodes,
                                 std::span<const NodeId> val_nodes,
                                 std::span<const NodeId> test_nodes,
                                 const TrainConfig& config) {
  SGNN_CHECK(mlp != nullptr);
  SGNN_CHECK(!train_nodes.empty());
  SGNN_CHECK(!val_nodes.empty());
  SGNN_CHECK(!test_nodes.empty());
  common::Rng rng(config.seed);
  std::vector<NodeId> order(train_nodes.begin(), train_nodes.end());
  const size_t batch =
      config.batch_size > 0 ? static_cast<size_t>(config.batch_size)
                            : order.size();

  auto epoch = [&](EpochSteps* steps) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < order.size(); start += batch) {
      const size_t end = std::min(order.size(), start + batch);
      std::vector<int64_t> gather(order.begin() + static_cast<int64_t>(start),
                                  order.begin() + static_cast<int64_t>(end));
      Matrix x = embeddings.GatherRows(gather);
      std::vector<int> batch_labels(gather.size());
      std::vector<NodeId> batch_rows(gather.size());
      for (size_t i = 0; i < gather.size(); ++i) {
        batch_labels[i] = labels[static_cast<size_t>(gather[i])];
        batch_rows[i] = static_cast<NodeId>(i);
      }
      // Resident accounting: batch features + per-layer activations and
      // gradients. The decoupled design's memory story is exactly that
      // this is O(batch), not O(n).
      const uint64_t resident = static_cast<uint64_t>(
          x.size() + 2 * x.rows() * (config.hidden_dim + mlp->out_dim()));
      common::GlobalCounters().Acquire(resident);
      Matrix logits;
      mlp->Forward(x, /*training=*/true, &rng, &logits);
      Matrix dlogits;
      const double loss =
          SoftmaxCrossEntropy(logits, batch_labels, batch_rows, &dlogits);
      mlp->ZeroGrad();
      mlp->Backward(dlogits, nullptr);
      steps->Step(loss);
      common::GlobalCounters().Release(resident);
    }
  };
  // Validation reads the whole matrix in inference mode.
  auto eval = [&] {
    Matrix logits;
    mlp->Forward(embeddings, /*training=*/false, nullptr, &logits);
    return logits;
  };
  return Fit(mlp->Params(), labels, val_nodes, test_nodes, config, epoch,
             eval);
}

}  // namespace sgnn::nn
