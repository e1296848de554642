#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include "core/coarse_flow.h"
#include "core/dataset.h"
#include "models/cluster_gcn.h"
#include "models/decoupled.h"
#include "models/gcn.h"
#include "models/graph_transformer.h"
#include "models/sage.h"
#include "models/saint.h"
#include "nn/trainer.h"
#include "sampling/neighbor_sampler.h"

namespace sgnn::models {
namespace {

using core::Dataset;

/// Small separable homophilous SBM: every sensible model should clear 85%
/// test accuracy here with a modest budget.
Dataset EasyDataset(uint64_t seed = 1) {
  core::SbmDatasetConfig config;
  config.sbm = {.num_nodes = 400, .num_classes = 3, .avg_degree = 12,
                .homophily = 0.85};
  config.feature_dim = 8;
  config.feature_noise = 0.6;
  return core::MakeSbmDataset(config, seed);
}

/// Mixing-regime variant (homophily = 1/num_classes): neighbourhoods are
/// class-uninformative, so low-pass smoothing collapses features toward
/// the global mean and destroys the signal, while multi-channel spectral
/// embeddings keep the identity/high-pass signal. (A 2-class h=0 graph
/// would NOT show this: label-flipped smoothing stays linearly separable.)
Dataset HeterophilousDataset(uint64_t seed = 2) {
  core::SbmDatasetConfig config;
  config.sbm = {.num_nodes = 400, .num_classes = 3, .avg_degree = 12,
                .homophily = 1.0 / 3.0};
  config.feature_dim = 8;
  config.feature_noise = 0.8;
  return core::MakeSbmDataset(config, seed);
}

nn::TrainConfig FastConfig() {
  nn::TrainConfig config;
  config.epochs = 60;
  config.hidden_dim = 32;
  config.patience = 20;
  config.lr = 0.02;
  return config;
}

TEST(MakeSplitsTest, PartitionsAllNodesDisjointly) {
  NodeSplits splits = MakeSplits(100, 0.6, 0.2, 7);
  EXPECT_EQ(splits.train.size(), 60u);
  EXPECT_EQ(splits.val.size(), 20u);
  EXPECT_EQ(splits.test.size(), 20u);
  std::vector<bool> seen(100, false);
  for (const auto* part : {&splits.train, &splits.val, &splits.test}) {
    for (graph::NodeId u : *part) {
      EXPECT_FALSE(seen[u]);
      seen[u] = true;
    }
  }
}

TEST(EarlyStopTrackerTest, TracksBestAndStops) {
  EarlyStopTracker tracker(2);
  EXPECT_FALSE(tracker.Update(0.5, 0.4));
  EXPECT_FALSE(tracker.Update(0.7, 0.65));  // Improves.
  EXPECT_FALSE(tracker.Update(0.6, 0.9));   // Worse (1/2).
  EXPECT_TRUE(tracker.Update(0.6, 0.9));    // Worse (2/2): stop.
  EXPECT_DOUBLE_EQ(tracker.best_val(), 0.7);
  EXPECT_DOUBLE_EQ(tracker.test_at_best(), 0.65);
}

TEST(GcnTest, LearnsHomophilousSbm) {
  Dataset d = EasyDataset();
  ModelResult result =
      TrainGcn(d.graph, d.features, d.labels, d.splits, FastConfig());
  EXPECT_EQ(result.name, "gcn");
  EXPECT_GT(result.report.test_accuracy, 0.85);
  EXPECT_GT(result.ops.edges_touched, 0u);
}

TEST(GcnTest, DeterministicGivenSeed) {
  Dataset d = EasyDataset();
  nn::TrainConfig config = FastConfig();
  config.epochs = 10;
  ModelResult a = TrainGcn(d.graph, d.features, d.labels, d.splits, config);
  ModelResult b = TrainGcn(d.graph, d.features, d.labels, d.splits, config);
  EXPECT_DOUBLE_EQ(a.report.final_train_loss, b.report.final_train_loss);
  EXPECT_DOUBLE_EQ(a.report.test_accuracy, b.report.test_accuracy);
}

TEST(GcnTest, BeatsFeatureOnlyBaselineOnNoisyFeatures) {
  // When features are noisy but the graph is homophilous, propagation
  // should help: compare GCN against SGC-with-0-hops (pure MLP).
  core::SbmDatasetConfig config;
  config.sbm = {.num_nodes = 400, .num_classes = 3, .avg_degree = 14,
                .homophily = 0.9};
  config.feature_dim = 8;
  config.feature_noise = 1.5;
  Dataset d = core::MakeSbmDataset(config, 5);
  ModelResult gcn =
      TrainGcn(d.graph, d.features, d.labels, d.splits, FastConfig());
  ModelResult mlp = TrainSgc(d.graph, d.features, d.labels, d.splits,
                             FastConfig(), SgcConfig{.hops = 0});
  EXPECT_GT(gcn.report.test_accuracy, mlp.report.test_accuracy + 0.05);
}

TEST(SgcTest, LearnsHomophilousSbm) {
  Dataset d = EasyDataset();
  ModelResult result = TrainSgc(d.graph, d.features, d.labels, d.splits,
                                FastConfig(), SgcConfig{.hops = 2});
  EXPECT_GT(result.report.test_accuracy, 0.85);
}

TEST(SgcTest, PropagationHelpsOnNoisyHomophilousGraphs) {
  core::SbmDatasetConfig config;
  config.sbm = {.num_nodes = 400, .num_classes = 3, .avg_degree = 14,
                .homophily = 0.9};
  config.feature_noise = 1.5;
  Dataset d = core::MakeSbmDataset(config, 7);
  ModelResult hop0 = TrainSgc(d.graph, d.features, d.labels, d.splits,
                              FastConfig(), SgcConfig{.hops = 0});
  ModelResult hop3 = TrainSgc(d.graph, d.features, d.labels, d.splits,
                              FastConfig(), SgcConfig{.hops = 3});
  EXPECT_GT(hop3.report.test_accuracy, hop0.report.test_accuracy + 0.05);
}

TEST(AppnpTest, LearnsHomophilousSbm) {
  Dataset d = EasyDataset();
  ModelResult result = TrainAppnp(d.graph, d.features, d.labels, d.splits,
                                  FastConfig());
  EXPECT_GT(result.report.test_accuracy, 0.85);
}

TEST(SpectralDecoupledTest, SurvivesHeterophilyWhereLowPassFails) {
  // The LD2/E6 claim: under heterophily, the high-pass channel rescues
  // accuracy that pure low-pass smoothing (SGC) destroys.
  Dataset d = HeterophilousDataset();
  ModelResult sgc = TrainSgc(d.graph, d.features, d.labels, d.splits,
                             FastConfig(), SgcConfig{.hops = 4});
  ModelResult spectral = TrainSpectralDecoupled(
      d.graph, d.features, d.labels, d.splits, FastConfig());
  EXPECT_GT(spectral.report.test_accuracy,
            sgc.report.test_accuracy + 0.05);
}

TEST(SpectralDecoupledTest, LearnsHomophilousSbmToo) {
  Dataset d = EasyDataset();
  ModelResult result = TrainSpectralDecoupled(d.graph, d.features, d.labels,
                                              d.splits, FastConfig());
  EXPECT_GT(result.report.test_accuracy, 0.85);
}

TEST(LabelPropTest, PerfectOnCleanHomophilousGraph) {
  Dataset d = EasyDataset();
  ModelResult result = TrainLabelProp(d.graph, d.features, d.labels,
                                      d.splits, FastConfig());
  EXPECT_EQ(result.name, "label_prop");
  EXPECT_GT(result.report.test_accuracy, 0.85);
}

TEST(LabelPropTest, BeatsTrainedModelsWhenLabelsAreScarce) {
  // §3.4.2 data-efficiency claim: with 2% labels and pure-noise features,
  // propagating the labels outperforms training an MLP head on features.
  core::SbmDatasetConfig config;
  config.sbm = {.num_nodes = 1000, .num_classes = 2, .avg_degree = 14,
                .homophily = 0.95};
  config.feature_noise = 3.0;  // Features nearly useless.
  config.train_frac = 0.02;
  config.val_frac = 0.1;
  Dataset d = core::MakeSbmDataset(config, 31);
  ModelResult lp = TrainLabelProp(d.graph, d.features, d.labels, d.splits,
                                  FastConfig());
  ModelResult mlp = TrainSgc(d.graph, d.features, d.labels, d.splits,
                             FastConfig(), SgcConfig{.hops = 0});
  EXPECT_GT(lp.report.test_accuracy, mlp.report.test_accuracy + 0.1);
}

TEST(LabelPropTest, UselessOnUninformativeGraph) {
  // Honest negative control: at neutral mixing the graph carries no label
  // signal and label propagation collapses toward chance.
  core::SbmDatasetConfig config;
  config.sbm = {.num_nodes = 600, .num_classes = 3, .avg_degree = 12,
                .homophily = 1.0 / 3.0};
  Dataset d = core::MakeSbmDataset(config, 33);
  ModelResult lp = TrainLabelProp(d.graph, d.features, d.labels, d.splits,
                                  FastConfig());
  EXPECT_LT(lp.report.test_accuracy, 0.6);
}

TEST(PprgoTest, LearnsHomophilousSbm) {
  Dataset d = EasyDataset();
  ModelResult result = TrainPprgo(d.graph, d.features, d.labels, d.splits,
                                  FastConfig());
  EXPECT_EQ(result.name, "pprgo");
  EXPECT_GT(result.report.test_accuracy, 0.85);
}

TEST(PprgoTest, SmallerTopKStillWorksOnEasyData) {
  Dataset d = EasyDataset(21);
  ModelResult result =
      TrainPprgo(d.graph, d.features, d.labels, d.splits, FastConfig(),
                 PprgoConfig{.alpha = 0.2, .top_k = 8, .r_max = 1e-3});
  EXPECT_GT(result.report.test_accuracy, 0.8);
}

TEST(SignTest, LearnsHomophilousSbm) {
  Dataset d = EasyDataset();
  ModelResult result = TrainSign(d.graph, d.features, d.labels, d.splits,
                                 FastConfig());
  EXPECT_GT(result.report.test_accuracy, 0.85);
}

TEST(SignTest, MultiHopConcatBeatsSingleHopUnderNoise) {
  core::SbmDatasetConfig config;
  config.sbm = {.num_nodes = 400, .num_classes = 3, .avg_degree = 14,
                .homophily = 0.9};
  config.feature_noise = 1.5;
  Dataset d = core::MakeSbmDataset(config, 23);
  ModelResult hop1 = TrainSign(d.graph, d.features, d.labels, d.splits,
                               FastConfig(), SignConfig{.hops = 1});
  ModelResult hop4 = TrainSign(d.graph, d.features, d.labels, d.splits,
                               FastConfig(), SignConfig{.hops = 4});
  EXPECT_GT(hop4.report.test_accuracy, hop1.report.test_accuracy - 0.02);
}

TEST(ImplicitTest, LearnsHomophilousSbm) {
  Dataset d = EasyDataset();
  ModelResult result = TrainImplicit(d.graph, d.features, d.labels, d.splits,
                                     FastConfig());
  EXPECT_GT(result.report.test_accuracy, 0.85);
}

TEST(SageTest, LearnsHomophilousSbmWithSampling) {
  Dataset d = EasyDataset();
  nn::TrainConfig config = FastConfig();
  config.epochs = 30;
  config.batch_size = 64;
  ModelResult result = TrainSage(d.graph, d.features, d.labels, d.splits,
                                 config, SageConfig{.fanouts = {5, 5}});
  EXPECT_GT(result.report.test_accuracy, 0.8);
}

TEST(SageTest, LaborVariantMatchesNodeWiseQuality) {
  Dataset d = EasyDataset(9);
  nn::TrainConfig config = FastConfig();
  config.epochs = 30;
  config.batch_size = 64;
  ModelResult labor =
      TrainSage(d.graph, d.features, d.labels, d.splits, config,
                SageConfig{.fanouts = {5, 5}, .use_labor = true});
  EXPECT_EQ(labor.name, "sage_labor");
  EXPECT_GT(labor.report.test_accuracy, 0.8);
}

/// FNV-1a over the bit patterns of every parameter gradient, in
/// `Params()` order: one number that moves if any gradient bit does.
uint64_t GradientBits(SageModel* model) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const nn::ParamRef& p : model->Params()) {
    for (int64_t i = 0; i < p.grad->size(); ++i) {
      h ^= std::bit_cast<uint32_t>(p.grad->data()[i]);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Bit pins of sampled SAGE training, recorded with the layer-0 input
// gradient still computed. Input features are not parameters, so
// `SageModel::TrainStep` skipping d(input) at layer 0 must not move any
// loss, accuracy or parameter-gradient bit.
TEST(SageTest, TrainSageBitsArePinned) {
  core::SbmDatasetConfig dconfig;
  dconfig.sbm = {.num_nodes = 400, .num_classes = 3, .avg_degree = 12,
                 .homophily = 0.6};
  dconfig.feature_dim = 8;
  dconfig.feature_noise = 2.0;
  Dataset d = core::MakeSbmDataset(dconfig, 3);
  nn::TrainConfig config = FastConfig();
  config.epochs = 5;
  config.batch_size = 64;
  const ModelResult node_wise = TrainSage(
      d.graph, d.features, d.labels, d.splits, config,
      SageConfig{.fanouts = {5, 5}});
  const ModelResult labor = TrainSage(
      d.graph, d.features, d.labels, d.splits, config,
      SageConfig{.fanouts = {5, 5}, .use_labor = true});
  EXPECT_EQ(std::bit_cast<uint64_t>(node_wise.report.final_train_loss),
            0x3ff124bc29b88c6bULL);
  EXPECT_EQ(std::bit_cast<uint64_t>(node_wise.report.test_accuracy),
            0x3fdd99999999999aULL);
  EXPECT_EQ(std::bit_cast<uint64_t>(labor.report.final_train_loss),
            0x3ff222ac22036be8ULL);
  EXPECT_EQ(std::bit_cast<uint64_t>(labor.report.test_accuracy),
            0x3fdf333333333333ULL);
}

TEST(SageTest, TrainStepGradientBitsArePinned) {
  Dataset d = EasyDataset();
  common::Rng rng(7);
  SageModel model({8, 16, 3}, 0.5, &rng);
  const std::vector<graph::NodeId> seeds(d.splits.train.begin(),
                                         d.splits.train.begin() + 64);
  const std::vector<int> fanouts = {5, 5};
  const sampling::MiniBatch batch =
      sampling::SampleNodeWise(d.graph, seeds, fanouts, &rng);
  const std::vector<int64_t> gather(batch.input_nodes().begin(),
                                    batch.input_nodes().end());
  const tensor::Matrix input = d.features.GatherRows(gather);
  std::vector<int> seed_labels;
  for (graph::NodeId s : seeds) seed_labels.push_back(d.labels[s]);
  model.ZeroGrad();
  const double loss = model.TrainStep(batch, input, seed_labels, &rng);
  EXPECT_EQ(std::bit_cast<uint64_t>(loss), 0x3ff52289fb399555ULL);
  EXPECT_EQ(GradientBits(&model), 0x252e405db25d0426ULL);
}

TEST(SaintTest, WalkSamplerLearnsHomophilousSbm) {
  Dataset d = EasyDataset();
  nn::TrainConfig config = FastConfig();
  config.epochs = 30;
  ModelResult result = TrainSaint(d.graph, d.features, d.labels, d.splits,
                                  config);
  EXPECT_EQ(result.name, "saint_walk");
  EXPECT_GT(result.report.test_accuracy, 0.8);
}

TEST(SaintTest, NodeSamplerLearnsToo) {
  Dataset d = EasyDataset(25);
  nn::TrainConfig config = FastConfig();
  config.epochs = 30;
  SaintConfig saint;
  saint.sampler = SaintConfig::Sampler::kNode;
  saint.node_budget = 128;
  ModelResult result = TrainSaint(d.graph, d.features, d.labels, d.splits,
                                  config, saint);
  EXPECT_EQ(result.name, "saint_node");
  EXPECT_GT(result.report.test_accuracy, 0.8);
}

TEST(SaintTest, NormalizationDisabledStillRuns) {
  Dataset d = EasyDataset(27);
  nn::TrainConfig config = FastConfig();
  config.epochs = 15;
  SaintConfig saint;
  saint.norm_trials = 0;
  ModelResult result = TrainSaint(d.graph, d.features, d.labels, d.splits,
                                  config, saint);
  EXPECT_GT(result.report.test_accuracy, 0.7);
}

TEST(ClusterGcnTest, LearnsHomophilousSbm) {
  Dataset d = EasyDataset();
  nn::TrainConfig config = FastConfig();
  config.epochs = 40;
  ModelResult result = TrainClusterGcn(
      d.graph, d.features, d.labels, d.splits, config,
      ClusterGcnConfig{.num_parts = 8, .parts_per_batch = 2});
  EXPECT_GT(result.report.test_accuracy, 0.8);
}

TEST(ClusterGcnTest, PeakResidentMemoryBelowFullBatchGcn) {
  // E13: partition batches bound activation memory by the batch subgraph.
  core::SbmDatasetConfig dconfig;
  dconfig.sbm = {.num_nodes = 1000, .num_classes = 4, .avg_degree = 12,
                 .homophily = 0.85};
  Dataset d = core::MakeSbmDataset(dconfig, 11);
  nn::TrainConfig config = FastConfig();
  config.epochs = 5;
  common::GlobalCounters().Reset();
  ModelResult cluster = TrainClusterGcn(
      d.graph, d.features, d.labels, d.splits, config,
      ClusterGcnConfig{.num_parts = 16, .parts_per_batch = 2});
  // The per-batch resident set must be well under a full-graph activation
  // footprint (n * hidden floats).
  EXPECT_LT(cluster.ops.peak_resident_floats,
            static_cast<uint64_t>(d.num_nodes()) *
                static_cast<uint64_t>(config.hidden_dim));
  EXPECT_GT(cluster.report.test_accuracy, 0.75);
}

TEST(ModelZooTest, AllModelsBeatMajorityClassOnEasyData) {
  Dataset d = EasyDataset(13);
  nn::TrainConfig config = FastConfig();
  config.epochs = 25;
  config.batch_size = 64;
  const double majority = 1.0 / d.num_classes + 0.15;
  std::vector<ModelResult> results;
  results.push_back(TrainGcn(d.graph, d.features, d.labels, d.splits, config));
  results.push_back(TrainSgc(d.graph, d.features, d.labels, d.splits, config));
  results.push_back(
      TrainAppnp(d.graph, d.features, d.labels, d.splits, config));
  results.push_back(TrainSpectralDecoupled(d.graph, d.features, d.labels,
                                           d.splits, config));
  results.push_back(
      TrainImplicit(d.graph, d.features, d.labels, d.splits, config));
  results.push_back(TrainSage(d.graph, d.features, d.labels, d.splits, config,
                              SageConfig{.fanouts = {5, 5}}));
  results.push_back(TrainClusterGcn(d.graph, d.features, d.labels, d.splits,
                                    config,
                                    ClusterGcnConfig{.num_parts = 8}));
  for (const ModelResult& r : results) {
    EXPECT_GT(r.report.test_accuracy, majority) << r.name;
    EXPECT_GT(r.report.epochs_run, 0) << r.name;
  }
}

// Report pins for every trainer that goes through the shared epoch loop,
// recorded on the hand-written per-trainer loops. Each pin is FNV-1a over
// the bit patterns of final_train_loss, best_val_accuracy, test_accuracy,
// epochs_run, ops.edges_touched and ops.peak_resident_floats, so moving
// any draw, Adam step, score or resident bill moves the pin.
uint64_t ReportBits(const nn::TrainReport& report,
                    const common::OpCounters& ops) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const uint64_t word :
       {std::bit_cast<uint64_t>(report.final_train_loss),
        std::bit_cast<uint64_t>(report.best_val_accuracy),
        std::bit_cast<uint64_t>(report.test_accuracy),
        static_cast<uint64_t>(report.epochs_run), ops.edges_touched,
        ops.peak_resident_floats}) {
    h ^= word;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string DescribeReport(const nn::TrainReport& report,
                           const common::OpCounters& ops) {
  std::ostringstream out;
  out << std::hex << "bits=0x" << ReportBits(report, ops) << " loss=0x"
      << std::bit_cast<uint64_t>(report.final_train_loss) << " val=0x"
      << std::bit_cast<uint64_t>(report.best_val_accuracy) << " test=0x"
      << std::bit_cast<uint64_t>(report.test_accuracy) << std::dec
      << " epochs=" << report.epochs_run << " edges=" << ops.edges_touched
      << " peak=" << ops.peak_resident_floats;
  return out.str();
}

#define EXPECT_REPORT_PINNED(result, want)                           \
  EXPECT_EQ(ReportBits((result).report, (result).ops), (want))       \
      << DescribeReport((result).report, (result).ops)

/// Noisy mid-homophily SBM (the SAGE pin's data): validation accuracy
/// plateaus within a few epochs, so short-patience pins stop early.
Dataset PinDataset() {
  core::SbmDatasetConfig dconfig;
  dconfig.sbm = {.num_nodes = 400, .num_classes = 3, .avg_degree = 12,
                 .homophily = 0.6};
  dconfig.feature_dim = 8;
  dconfig.feature_noise = 2.0;
  return core::MakeSbmDataset(dconfig, 3);
}

nn::TrainConfig PinConfig() {
  nn::TrainConfig config = FastConfig();
  config.epochs = 8;
  config.batch_size = 64;
  // Peaks are thread-wide high-water marks: re-base so each pinned run
  // reports only the peak it caused.
  common::GlobalCounters().RebasePeaks();
  return config;
}

TEST(TrainPinTest, GcnReportIsPinned) {
  const Dataset d = PinDataset();
  const ModelResult r =
      TrainGcn(d.graph, d.features, d.labels, d.splits, PinConfig());
  EXPECT_REPORT_PINNED(r, 0xbd1823f1d8fcac92ULL);
}

TEST(TrainPinTest, GcnEarlyStopReportIsPinned) {
  const Dataset d = PinDataset();
  nn::TrainConfig config = PinConfig();
  config.epochs = 60;
  config.patience = 3;
  const ModelResult r =
      TrainGcn(d.graph, d.features, d.labels, d.splits, config);
  EXPECT_LT(r.report.epochs_run, config.epochs);
  EXPECT_REPORT_PINNED(r, 0x569cedae4e3c32d8ULL);
}

TEST(TrainPinTest, ClusterGcnReportsArePinned) {
  const Dataset d = PinDataset();
  const ModelResult multilevel =
      TrainClusterGcn(d.graph, d.features, d.labels, d.splits, PinConfig(),
                      ClusterGcnConfig{.num_parts = 8});
  EXPECT_REPORT_PINNED(multilevel, 0xa17eeb9a447bc6eeULL);
  const ModelResult ldg = TrainClusterGcn(
      d.graph, d.features, d.labels, d.splits, PinConfig(),
      ClusterGcnConfig{.num_parts = 8, .use_multilevel = false});
  EXPECT_REPORT_PINNED(ldg, 0x6fea34cf1bc3f77cULL);
}

TEST(TrainPinTest, SaintReportsArePinned) {
  const Dataset d = PinDataset();
  const ModelResult walk =
      TrainSaint(d.graph, d.features, d.labels, d.splits, PinConfig());
  EXPECT_REPORT_PINNED(walk, 0x9dc1873b3587b059ULL);
  SaintConfig node;
  node.sampler = SaintConfig::Sampler::kNode;
  node.node_budget = 128;
  const ModelResult node_run =
      TrainSaint(d.graph, d.features, d.labels, d.splits, PinConfig(), node);
  EXPECT_REPORT_PINNED(node_run, 0xac45c5f8691baad1ULL);
  SaintConfig unnormalised;
  unnormalised.norm_trials = 0;
  const ModelResult plain = TrainSaint(d.graph, d.features, d.labels,
                                       d.splits, PinConfig(), unnormalised);
  EXPECT_REPORT_PINNED(plain, 0xf0abe4197a009f61ULL);
}

TEST(TrainPinTest, AppnpReportIsPinned) {
  const Dataset d = PinDataset();
  const ModelResult r =
      TrainAppnp(d.graph, d.features, d.labels, d.splits, PinConfig());
  EXPECT_REPORT_PINNED(r, 0x735e95a32b630efdULL);
}

TEST(TrainPinTest, GraphTransformerReportIsPinned) {
  const Dataset d = PinDataset();
  const ModelResult r = TrainGraphTransformer(d.graph, d.features, d.labels,
                                              d.splits, PinConfig());
  EXPECT_REPORT_PINNED(r, 0x570ab09ee527de6eULL);
}

TEST(FitMeterTest, PeakIsTheFitsOwnAfterABiggerFit) {
  // No RebasePeaks anywhere: each report must carry the peak its own fit
  // caused, not the thread's high-water mark from an earlier, larger fit.
  const Dataset d = PinDataset();
  nn::TrainConfig config = FastConfig();
  config.epochs = 8;
  config.batch_size = 64;
  const ModelResult alone =
      TrainSgc(d.graph, d.features, d.labels, d.splits, config);
  const ModelResult bigger =
      TrainGcn(d.graph, d.features, d.labels, d.splits, config);
  const ModelResult after =
      TrainSgc(d.graph, d.features, d.labels, d.splits, config);
  ASSERT_GT(bigger.ops.peak_resident_floats, alone.ops.peak_resident_floats);
  EXPECT_GT(alone.ops.peak_resident_floats, 0u);
  EXPECT_EQ(after.ops.peak_resident_floats, alone.ops.peak_resident_floats);
}

TEST(TrainPinTest, DecoupledHeadReportsArePinned) {
  const Dataset d = PinDataset();
  const ModelResult sgc =
      TrainSgc(d.graph, d.features, d.labels, d.splits, PinConfig());
  EXPECT_REPORT_PINNED(sgc, 0x3af990e32a2aeac9ULL);
  const ModelResult sign =
      TrainSign(d.graph, d.features, d.labels, d.splits, PinConfig());
  EXPECT_REPORT_PINNED(sign, 0x06b9ea368c0ba41dULL);
  const ModelResult spectral = TrainSpectralDecoupled(
      d.graph, d.features, d.labels, d.splits, PinConfig());
  EXPECT_REPORT_PINNED(spectral, 0x20230ad33fbf2f88ULL);
  const ModelResult pprgo =
      TrainPprgo(d.graph, d.features, d.labels, d.splits, PinConfig());
  EXPECT_REPORT_PINNED(pprgo, 0xe9e7099b5cbbc7abULL);
  const ModelResult implicit =
      TrainImplicit(d.graph, d.features, d.labels, d.splits, PinConfig());
  EXPECT_REPORT_PINNED(implicit, 0x05ed0436c964da99ULL);
}

TEST(TrainPinTest, SgcEarlyStopReportIsPinned) {
  const Dataset d = PinDataset();
  nn::TrainConfig config = PinConfig();
  config.epochs = 60;
  config.patience = 3;
  const ModelResult r =
      TrainSgc(d.graph, d.features, d.labels, d.splits, config);
  EXPECT_LT(r.report.epochs_run, config.epochs);
  EXPECT_REPORT_PINNED(r, 0xefda84b590849d74ULL);
}

TEST(TrainPinTest, CoarseGraphReportIsPinned) {
  const Dataset d = PinDataset();
  const core::CoarseTrainResult r = core::TrainOnCoarseGraph(d, 0.3,
                                                             PinConfig());
  EXPECT_REPORT_PINNED(r.model, 0x1a41e547a1d2abe3ULL);
}

TEST(TrainPinTest, MlpOnEmbeddingsReportsArePinned) {
  const Dataset d = PinDataset();
  for (const auto& [batch, want] :
       {std::pair<int, uint64_t>{0, 0x884200dbbf9ccafbULL},
        {16, 0xa85bb95c97114c96ULL}}) {
    nn::TrainConfig config = PinConfig();
    config.batch_size = batch;
    common::Rng rng(5);
    nn::Mlp mlp({d.features.cols(), config.hidden_dim, 3}, config.dropout,
                &rng);
    common::ScopedCounterDelta counters;
    const nn::TrainReport report = nn::TrainMlpOnEmbeddings(
        &mlp, d.features, d.labels, d.splits.train, d.splits.val,
        d.splits.test, config);
    const common::OpCounters ops = counters.Delta();
    EXPECT_EQ(ReportBits(report, ops), want)
        << "batch " << batch << ": " << DescribeReport(report, ops);
  }
}

}  // namespace
}  // namespace sgnn::models
