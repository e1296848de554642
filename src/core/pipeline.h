#ifndef SGNN_CORE_PIPELINE_H_
#define SGNN_CORE_PIPELINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/fault.h"
#include "common/status.h"
#include "core/dataset.h"
#include "core/run_context.h"

namespace sgnn::core {

/// The paper's two technique families as pipeline stages (Figure 1):
/// *editing* stages rewrite the graph, *analytics* stages rewrite the
/// features (embeddings); a model trains on whatever comes out.

/// Rewrites the graph (sparsify, rewire, coarsen-project, ...). May read
/// the features (e.g. similarity rewiring).
class EditStage {
 public:
  virtual ~EditStage() = default;
  virtual std::string name() const = 0;
  virtual graph::CsrGraph Edit(const graph::CsrGraph& graph,
                               const tensor::Matrix& features) = 0;
};

/// Rewrites the features (spectral embeddings, PPR smoothing, ...).
class AnalyticsStage {
 public:
  virtual ~AnalyticsStage() = default;
  virtual std::string name() const = 0;
  virtual tensor::Matrix Augment(const graph::CsrGraph& graph,
                                 const tensor::Matrix& features) = 0;
};

/// A trainer taking the (possibly edited/augmented) dataset pieces.
using ModelFn = std::function<models::ModelResult(
    const graph::CsrGraph&, const tensor::Matrix&, std::span<const int>,
    const models::NodeSplits&, const nn::TrainConfig&)>;

/// Per-stage timing entry of a pipeline run, with the work-counter delta
/// the stage accounted for (`ScopedCounterDelta`), so preprocessing,
/// training, and serving all report in the same units. Its peaks are the
/// stage's own, not the run's high-water mark so far.
struct StageTiming {
  std::string name;
  double seconds = 0.0;
  common::OpCounters ops;
};

struct PipelineReport {
  std::vector<StageTiming> stages;
  models::ModelResult model;
  graph::EdgeIndex edges_before = 0;
  graph::EdgeIndex edges_after = 0;
  int64_t feature_cols_before = 0;
  int64_t feature_cols_after = 0;
  /// OK on a completed run; `kAborted` when an injected crash stopped the
  /// run partway (the model fields are then unset).
  common::Status status;
  /// Stages restored from a snapshot instead of recomputed this run.
  int resumed_stages = 0;

  std::string ToString() const;
};

/// Composable scalable-GNN pipeline: edits run first (in insertion
/// order), then analytics stages (each replacing the feature matrix),
/// then the model trains.
class Pipeline {
 public:
  Pipeline() = default;

  Pipeline& AddEdit(std::unique_ptr<EditStage> stage);
  Pipeline& AddAnalytics(std::unique_ptr<AnalyticsStage> stage);
  Pipeline& SetModel(std::string name, ModelFn model);

  /// Runs the full pipeline on a dataset. Requires a model to be set.
  PipelineReport Run(const Dataset& dataset,
                     const nn::TrainConfig& config) const;

  /// Primary entry point: runs the pipeline under `ctx` — tracing spans
  /// and registry metrics when sinks are set, checkpointing / resume /
  /// fault injection / deadline / validation per the context's knobs.
  /// With a default context this is identical to the two-argument
  /// overload. The report's stage rows and the registry's
  /// `sgnn_pipeline_stage_*` series are views over the same measurements.
  PipelineReport Run(const Dataset& dataset, const nn::TrainConfig& config,
                     const RunContext& ctx) const;

  /// Hash of this pipeline's stage-name sequence + model name; the identity
  /// a snapshot must match to be resumable.
  uint64_t Signature() const;

 private:
  std::vector<std::unique_ptr<EditStage>> edits_;
  std::vector<std::unique_ptr<AnalyticsStage>> analytics_;
  std::string model_name_;
  ModelFn model_;
};

}  // namespace sgnn::core

#endif  // SGNN_CORE_PIPELINE_H_
