// pipeline-decoupled and train-sampled: one `core::Pipeline` per workload,
// timed end to end with tracing off, and a traced run that wraps every
// call the benchmark makes into a library layer in a span.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "core/stages.h"
#include "graph/propagate.h"
#include "models/decoupled.h"
#include "models/sage.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "par/par.h"
#include "sampling/neighbor_sampler.h"
#include "support.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sgnn::core::Dataset;
using sgnn::core::Pipeline;
using sgnn::core::PipelineReport;
using sgnn::graph::CsrGraph;
using sgnn::models::ModelResult;
using sgnn::models::NodeSplits;
using sgnn::nn::TrainConfig;
using sgnn::tensor::Matrix;

/// A traced run must account for its wall time in top-level layer spans
/// within this share; the remainder is the root span's own bookkeeping.
constexpr double kCoverageMargin = 0.10;

double FileMb(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return 0.0;
  return static_cast<double>(st.st_size) / 1e6;
}

TrainConfig SampledConfig(const Options& options) {
  TrainConfig config = BaseTrainConfig(options);
  config.epochs = options.smoke() ? 2 : 3;
  return config;
}

const sgnn::models::SageConfig& SampledSage() {
  static const sgnn::models::SageConfig sage{{10, 10}, false};
  return sage;
}

/// Times `pipeline` with tracing off: an untimed warm-up run, then timed
/// runs until another one would end past `options.seconds` (at least
/// three). `model_s` is written by the pipeline's own `ModelFn` closure on
/// every run.
void MeasureUntraced(const Options& options, const Dataset& dataset,
                     const Pipeline& pipeline, const TrainConfig& config,
                     const double* model_s, double setup_s, Result* result) {
  int run_index = 0;
  auto run = [&](PipelineReport* report) {
    sgnn::core::RunContext ctx;
    ctx.checkpoint_path = options.out_dir + "/ckpt-" + options.workload +
                          "-" + std::to_string(options.seed) + "-" +
                          std::to_string(run_index++) + ".bin";
    ctx.resume = false;
    std::remove(ctx.checkpoint_path.c_str());
    const double t0 = Now();
    *report = pipeline.Run(dataset, config, ctx);
    const double wall = Now() - t0;
    std::remove(ctx.checkpoint_path.c_str());
    return wall;
  };
  PipelineReport ref;
  run(&ref);
  ObserveReport(ref, result);
  result->attempted++;
  if (!ref.status.ok()) {
    result->failed++;
    return;
  }

  std::vector<double> walls, throughput, cpu_us;
  const double train_rows = static_cast<double>(dataset.splits.train.size());
  const double start = Now();
  while (walls.size() < 3 || Now() - start + Median(walls) <= options.seconds) {
    const double cpu0 = ProcessCpuSeconds();
    PipelineReport report;
    const double wall = run(&report);
    const double cpu = ProcessCpuSeconds() - cpu0;
    CheckReport(report, ref, result);
    const double samples = report.model.report.epochs_run * train_rows;
    walls.push_back(wall);
    throughput.push_back(samples / *model_s);
    cpu_us.push_back(cpu * 1e6 / samples);
    // A run whose workers shared one vCPU shows here instead of being
    // silently averaged into the median.
    result->Note("run_wall_s", wall);
    result->Note("run_cpu_per_wall", cpu / wall);
    std::printf("  run %zu: %.4f s, model %.4f s, cpu/wall %.3f\n",
                walls.size(), wall, *model_s, cpu / wall);
  }
  const auto n = static_cast<int64_t>(walls.size());
  result->Metric("setup_s", setup_s, "s", 3);
  result->Metric("pipeline_s", Median(walls), "s", n);
  result->Metric("train_samples_per_s", Median(throughput), "1/s", n);
  result->Metric("test_acc", ref.model.report.test_accuracy, "fraction");
  result->Metric("peak_rss_mb", PeakRssMb(), "MB");
  result->Metric("cpu_us_per_item", Median(cpu_us), "us", n);
}

/// Per-run numbers a traced run contributes; medians become the metrics.
struct TracedRun {
  double wall = 0.0;
  double coverage = 0.0;
  double cpu_per_wall = 0.0;
  double sections = 0.0;
  double shards = 0.0;
  /// Layer metrics of this run: name -> (value, unit).
  std::map<std::string, std::pair<double, std::string>> layer;
  void Set(const std::string& name, double value, const std::string& unit) {
    layer[name] = {value, unit};
  }
};

/// The layer metrics every workload derives from the work its traced run
/// billed to `OpCounters`.
void SetCounterMetrics(const sgnn::common::OpCounters& ops, TracedRun* run) {
  const auto edges = static_cast<double>(ops.edges_touched);
  run->Set("graph.edges_touched", edges, "count");
  run->Set("graph.bytes_per_edge",
           static_cast<double>(ops.bytes_read + ops.bytes_written) / edges,
           "B/edge");
}

/// Alternates untraced and traced runs until `options.seconds` have
/// passed (at least one pair); `traced` runs one traced execution and
/// returns its root span. Emits the shared `par.*`/`trace.*` metrics and
/// the medians of every per-run layer number.
void MeasureTraced(const Options& options, SpanRecorder* recorder,
                   const std::function<double()>& untraced,
                   const std::function<int64_t(int64_t, TracedRun*)>& traced,
                   Result* result) {
  std::vector<double> untraced_walls;
  std::vector<TracedRun> runs;
  const double start = Now();
  while (runs.empty() || Now() - start < options.seconds) {
    untraced_walls.push_back(untraced());
    TracedRun run;
    const sgnn::par::ParStats par0 = sgnn::par::Stats();
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = Now();
    const int64_t root = traced(static_cast<int64_t>(runs.size()), &run);
    run.cpu_per_wall = (ProcessCpuSeconds() - cpu0) / (Now() - t0);
    const std::vector<SpanRecorder::Span> spans = recorder->Snapshot();
    const SpanRecorder::Span& r = spans[static_cast<size_t>(root)];
    run.wall = r.end - r.start;
    run.coverage = recorder->ChildTotal(root) / run.wall;
    const sgnn::par::ParStats par1 = sgnn::par::Stats();
    run.sections = static_cast<double>(par1.sections - par0.sections);
    run.shards = static_cast<double>(par1.shards - par0.shards);
    runs.push_back(run);
  }
  auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const TracedRun& run : runs) v.push_back(field(run));
    return Median(v);
  };
  const auto n = static_cast<int64_t>(runs.size());
  const double coverage = median_of([](const TracedRun& r) { return r.coverage; });
  result->Metric("par.cpu_per_wall",
                 median_of([](const TracedRun& r) { return r.cpu_per_wall; }),
                 "ratio", n);
  result->Metric("par.sections",
                 median_of([](const TracedRun& r) { return r.sections; }),
                 "count", n);
  result->Metric("par.shards",
                 median_of([](const TracedRun& r) { return r.shards; }),
                 "count", n);
  result->Metric("trace.overhead_ratio",
                 median_of([](const TracedRun& r) { return r.wall; }) /
                     Median(untraced_walls),
                 "ratio", n);
  result->Metric("trace.self_time_share", coverage, "fraction", n);
  const std::string trace_path = options.out_dir + "/trace-" +
                                 options.workload + "-" +
                                 std::to_string(options.seed) + ".json";
  result->Check("trace_written", recorder->WriteChromeTrace(trace_path),
                trace_path);
  std::printf("per-layer self time (all traced runs):\n%s",
              recorder->SelfTimeTable().c_str());
  result->Check("trace_coverage", coverage >= 1.0 - kCoverageMargin,
                "top-level layer spans cover " + Num(coverage) +
                    " of the traced wall time");
  for (const auto& [name, entry] : runs.front().layer) {
    result->Metric(name, median_of([&name = name](const TracedRun& r) {
                     return r.layer.at(name).first;
                   }),
                   entry.second, n);
  }
}

// ------------------------------------------------------ pipeline-decoupled

Pipeline DecoupledPipeline(const Options& options,
                           sgnn::core::ModelFn model) {
  Pipeline pipeline;
  pipeline.AddEdit(sgnn::core::MakeUniformSparsifyStage(0.8, options.seed));
  pipeline.AddAnalytics(sgnn::core::MakePprSmoothingStage(0.15, 10));
  pipeline.SetModel("sgc", std::move(model));
  return pipeline;
}

sgnn::core::ModelFn TimedSgc(double* model_s) {
  return [model_s](const CsrGraph& g, const Matrix& x,
                   std::span<const int> labels, const NodeSplits& splits,
                   const TrainConfig& config) {
    const double t0 = Now();
    ModelResult model = sgnn::models::TrainSgc(g, x, labels, splits, config);
    *model_s = Now() - t0;
    return model;
  };
}

/// What the traced stages of one decoupled run share.
struct DecoupledTrace {
  SpanRecorder* recorder = nullptr;
  int64_t root = -1;
  int64_t group = 0;
  std::string checkpoint_path;
  double stage_end = 0.0;  ///< End of the previous stage's span.
  double checkpoint_mb = 0.0;
  uint64_t smooth_edges = 0;
  int64_t edges_kept = 0;
  CsrGraph graph;    ///< The model's input graph, for the k-hop probe.
  Matrix features;   ///< The model's input features.

  /// The pipeline writes its snapshot between stages; that interval is
  /// the `core.checkpoint` layer.
  void CheckpointGap() {
    recorder->Add("core.checkpoint", root, group, stage_end, Now());
    checkpoint_mb += FileMb(checkpoint_path);
  }
};

class TracedEdit : public sgnn::core::EditStage {
 public:
  TracedEdit(std::unique_ptr<EditStage> inner, DecoupledTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}
  std::string name() const override { return inner_->name(); }
  CsrGraph Edit(const CsrGraph& graph, const Matrix& features) override {
    CsrGraph out;
    {
      ScopedSpan span(trace_->recorder, "sparsify.edit", trace_->root,
                      trace_->group);
      out = inner_->Edit(graph, features);
    }
    trace_->stage_end = Now();
    trace_->edges_kept = out.num_edges();
    trace_->graph = out;
    return out;
  }

 private:
  std::unique_ptr<EditStage> inner_;
  DecoupledTrace* trace_;
};

class TracedAnalytics : public sgnn::core::AnalyticsStage {
 public:
  TracedAnalytics(std::unique_ptr<AnalyticsStage> inner,
                  DecoupledTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}
  std::string name() const override { return inner_->name(); }
  Matrix Augment(const CsrGraph& graph, const Matrix& features) override {
    trace_->CheckpointGap();
    Matrix out;
    {
      ScopedSpan span(trace_->recorder, "ppr.smooth", trace_->root,
                      trace_->group);
      sgnn::common::ScopedCounterDelta counters;
      out = inner_->Augment(graph, features);
      trace_->smooth_edges = counters.Delta().edges_touched;
    }
    trace_->stage_end = Now();
    trace_->features = out;
    return out;
  }

 private:
  std::unique_ptr<AnalyticsStage> inner_;
  DecoupledTrace* trace_;
};

}  // namespace

void RunPipelineDecoupled(const Options& options, Result* result) {
  const TrainConfig config = BaseTrainConfig(options);
  double setup_s = 0.0;
  const Dataset dataset =
      MakeDatasetTimed(options, options.trace ? 1 : 3, &setup_s);
  double model_s = 0.0;
  const Pipeline pipeline = DecoupledPipeline(options, TimedSgc(&model_s));
  if (!options.trace) {
    MeasureUntraced(options, dataset, pipeline, config, &model_s, setup_s,
                    result);
    return;
  }

  const std::string ckpt = options.out_dir + "/ckpt-traced-" +
                           std::to_string(options.seed) + ".bin";
  auto untraced = [&](PipelineReport* report) {
    sgnn::core::RunContext ctx;
    ctx.checkpoint_path = ckpt;
    ctx.resume = false;
    std::remove(ckpt.c_str());
    const double t0 = Now();
    *report = pipeline.Run(dataset, config, ctx);
    const double wall = Now() - t0;
    std::remove(ckpt.c_str());
    return wall;
  };
  PipelineReport ref;
  untraced(&ref);
  ObserveReport(ref, result);

  SpanRecorder recorder;
  DecoupledTrace trace;
  trace.recorder = &recorder;
  trace.checkpoint_path = ckpt;
  Pipeline traced;
  traced.AddEdit(std::make_unique<TracedEdit>(
      sgnn::core::MakeUniformSparsifyStage(0.8, options.seed), &trace));
  traced.AddAnalytics(std::make_unique<TracedAnalytics>(
      sgnn::core::MakePprSmoothingStage(0.15, 10), &trace));
  traced.SetModel("sgc", [&trace](const CsrGraph& g, const Matrix& x,
                                  std::span<const int> labels,
                                  const NodeSplits& splits,
                                  const TrainConfig& cfg) {
    trace.CheckpointGap();
    ScopedSpan span(trace.recorder, "models.sgc", trace.root, trace.group);
    return sgnn::models::TrainSgc(g, x, labels, splits, cfg);
  });

  MeasureTraced(
      options, &recorder,
      [&] {
        PipelineReport report;
        const double wall = untraced(&report);
        CheckReport(report, ref, result);
        return wall;
      },
      [&](int64_t run_id, TracedRun* run) {
        trace.group = run_id;
        trace.checkpoint_mb = 0.0;
        std::remove(ckpt.c_str());
        sgnn::core::RunContext ctx;
        ctx.checkpoint_path = ckpt;
        ctx.resume = false;
        PipelineReport report;
        const sgnn::common::OpCounters ops0 =
            sgnn::common::AggregateThreadCounters();
        {
          ScopedSpan root(&recorder, "core.pipeline_run", -1, run_id);
          trace.root = root.id();
          trace.stage_end = Now();
          report = traced.Run(dataset, config, ctx);
        }
        SetCounterMetrics(CountersSince(ops0), run);
        std::remove(ckpt.c_str());
        CheckReport(report, ref, result);

        // Probe outside the run: SGC's precompute on its exact inputs, so
        // the model span splits into propagation and head fit.
        double khop_s = 0.0;
        sgnn::common::OpCounters khop_ops;
        {
          ScopedSpan probe(&recorder, "graph.khop_probe", -1, run_id);
          sgnn::common::ScopedCounterDelta counters;
          const double t0 = Now();
          sgnn::graph::Propagator prop(trace.graph,
                                       sgnn::graph::Normalization::kSymmetric,
                                       true);
          const Matrix embeddings =
              sgnn::graph::PropagateKHops(prop, trace.features, 2);
          khop_s = Now() - t0;
          khop_ops = counters.Delta();
        }
        auto layer_total = [&](const std::string& name) {
          return recorder.Total(name, run_id);
        };
        const double smooth_s = layer_total("ppr.smooth");
        run->Set("sparsify.edit_s", layer_total("sparsify.edit"), "s");
        run->Set("sparsify.edges_kept", static_cast<double>(trace.edges_kept),
                 "count");
        run->Set("ppr.smooth_s", smooth_s, "s");
        run->Set("ppr.smooth_edges_per_s",
                 static_cast<double>(trace.smooth_edges) / smooth_s, "1/s");
        run->Set("graph.khop_s", khop_s, "s");
        run->Set("graph.khop_bytes_per_edge",
                 static_cast<double>(khop_ops.bytes_read +
                                     khop_ops.bytes_written) /
                     static_cast<double>(khop_ops.edges_touched),
                 "B/edge");
        run->Set("models.train_s", layer_total("models.sgc"), "s");
        run->Set("models.sgc_fit_s", layer_total("models.sgc") - khop_s, "s");
        run->Set("core.checkpoint_s", layer_total("core.checkpoint"), "s");
        run->Set("core.checkpoint_mb", trace.checkpoint_mb, "MB");
        return trace.root;
      },
      result);
}

namespace {

// ----------------------------------------------------------- train-sampled

sgnn::core::ModelFn TimedSage(double* model_s) {
  return [model_s](const CsrGraph& g, const Matrix& x,
                   std::span<const int> labels, const NodeSplits& splits,
                   const TrainConfig& config) {
    const double t0 = Now();
    ModelResult model =
        sgnn::models::TrainSage(g, x, labels, splits, config, SampledSage());
    *model_s = Now() - t0;
    return model;
  };
}

struct SageCounts {
  double input_nodes = 0.0;
  double seeds = 0.0;
  double gather_bytes = 0.0;
};

/// Replays `models::TrainSage`'s epoch loop through the same public calls
/// with the same seed, one span per call, and returns the report it
/// reproduces (the caller asserts it equals TrainSage's bit for bit).
sgnn::nn::TrainReport ReplaySage(const Dataset& dataset,
                                 const TrainConfig& config,
                                 SpanRecorder* recorder, int64_t root,
                                 int64_t group, SageCounts* counts) {
  using sgnn::graph::NodeId;
  const CsrGraph& graph = dataset.graph;
  const Matrix& x = dataset.features;
  const std::vector<int>& labels = dataset.labels;
  const NodeSplits& splits = dataset.splits;
  const sgnn::models::SageConfig& sage = SampledSage();
  const int num_classes = 1 + *std::max_element(labels.begin(), labels.end());
  sgnn::common::Rng rng(config.seed);
  std::vector<int64_t> dims = {x.cols()};
  for (size_t l = 0; l + 1 < sage.fanouts.size(); ++l) {
    dims.push_back(config.hidden_dim);
  }
  dims.push_back(num_classes);
  sgnn::models::SageModel model(dims, config.dropout, &rng);
  sgnn::nn::Adam opt(model.Params(), config.lr, 0.9, 0.999, 1e-8,
                     config.weight_decay);
  sgnn::models::EarlyStopTracker tracker(config.patience);
  const size_t batch_size = static_cast<size_t>(config.batch_size);
  std::vector<NodeId> order(splits.train.begin(), splits.train.end());
  sgnn::nn::TrainReport report;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    size_t num_batches = 0;
    for (size_t start = 0; start < order.size(); start += batch_size) {
      const size_t end = std::min(order.size(), start + batch_size);
      std::vector<NodeId> seeds(order.begin() + static_cast<int64_t>(start),
                                order.begin() + static_cast<int64_t>(end));
      sgnn::sampling::MiniBatch batch;
      {
        ScopedSpan span(recorder, "sampling.sample", root, group);
        batch = sgnn::sampling::SampleNodeWise(graph, seeds, sage.fanouts,
                                               &rng);
      }
      std::vector<int64_t> gather(batch.input_nodes().begin(),
                                  batch.input_nodes().end());
      Matrix input;
      {
        ScopedSpan span(recorder, "tensor.gather", root, group);
        input = x.GatherRows(gather);
      }
      counts->input_nodes += static_cast<double>(gather.size());
      counts->seeds += static_cast<double>(seeds.size());
      counts->gather_bytes +=
          static_cast<double>(input.rows() * input.cols()) * sizeof(float);
      std::vector<int> seed_labels(seeds.size());
      for (size_t i = 0; i < seeds.size(); ++i) {
        seed_labels[i] = labels[seeds[i]];
      }
      {
        ScopedSpan span(recorder, "models.sage_step", root, group);
        model.ZeroGrad();
        epoch_loss += model.TrainStep(batch, input, seed_labels, &rng);
      }
      {
        ScopedSpan span(recorder, "nn.adam", root, group);
        opt.Step();
      }
      ++num_batches;
    }
    report.final_train_loss = epoch_loss / static_cast<double>(num_batches);
    report.epochs_run = epoch + 1;
    double val = 0.0;
    double test = 0.0;
    {
      ScopedSpan span(recorder, "models.sage_predict", root, group);
      const Matrix logits = model.Predict(graph, x);
      val = sgnn::nn::Accuracy(logits, labels, splits.val);
      test = sgnn::nn::Accuracy(logits, labels, splits.test);
    }
    if (tracker.Update(val, test)) break;
  }
  report.best_val_accuracy = tracker.best_val();
  report.test_accuracy = tracker.test_at_best();
  return report;
}

}  // namespace

void RunTrainSampled(const Options& options, Result* result) {
  const TrainConfig config = SampledConfig(options);
  double setup_s = 0.0;
  const Dataset dataset =
      MakeDatasetTimed(options, options.trace ? 1 : 3, &setup_s);
  double model_s = 0.0;
  Pipeline pipeline;
  pipeline.SetModel("sage", TimedSage(&model_s));
  if (!options.trace) {
    MeasureUntraced(options, dataset, pipeline, config, &model_s, setup_s,
                    result);
    return;
  }

  auto untraced = [&](PipelineReport* report) {
    const double t0 = Now();
    *report = pipeline.Run(dataset, config);
    return Now() - t0;
  };
  PipelineReport ref;
  untraced(&ref);
  ObserveReport(ref, result);

  SpanRecorder recorder;
  MeasureTraced(
      options, &recorder,
      [&] {
        PipelineReport report;
        const double wall = untraced(&report);
        CheckReport(report, ref, result);
        return wall;
      },
      [&](int64_t run_id, TracedRun* run) {
        SageCounts counts;
        sgnn::nn::TrainReport replay;
        int64_t root_id = -1;
        const sgnn::common::OpCounters ops0 =
            sgnn::common::AggregateThreadCounters();
        const double t0 = Now();
        {
          ScopedSpan root(&recorder, "models.sage_replay", -1, run_id);
          root_id = root.id();
          replay = ReplaySage(dataset, config, &recorder, root_id, run_id,
                              &counts);
        }
        run->Set("models.train_s", Now() - t0, "s");
        SetCounterMetrics(CountersSince(ops0), run);
        const sgnn::nn::TrainReport& want = ref.model.report;
        result->attempted++;
        const bool same =
            SameBits(replay.final_train_loss, want.final_train_loss) &&
            SameBits(replay.test_accuracy, want.test_accuracy) &&
            replay.epochs_run == want.epochs_run;
        if (!same) result->failed++;
        result->Check("replay_bit_identical", same,
                      "replay loss " + Num(replay.final_train_loss) +
                          " acc " + Num(replay.test_accuracy) +
                          " vs TrainSage loss " +
                          Num(want.final_train_loss) + " acc " +
                          Num(want.test_accuracy));
        auto layer_total = [&](const std::string& name) {
          return recorder.Total(name, run_id);
        };
        run->Set("sampling.sample_s", layer_total("sampling.sample"), "s");
        run->Set("sampling.input_nodes_per_seed",
                 counts.input_nodes / counts.seeds, "ratio");
        run->Set("tensor.gather_s", layer_total("tensor.gather"), "s");
        run->Set("tensor.gather_mb", counts.gather_bytes / 1e6, "MB");
        run->Set("models.sage_step_s", layer_total("models.sage_step"), "s");
        run->Set("nn.adam_s", layer_total("nn.adam"), "s");
        run->Set("models.sage_predict_s", layer_total("models.sage_predict"),
                 "s");
        return root_id;
      },
      result);
}

}  // namespace perfbench
