// Trainer, metrics and experiment-harness tests.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/dst_ee.hpp"
#include "data/dataloader.hpp"
#include "data/synthetic_tabular.hpp"
#include "graph/generator.hpp"
#include "models/mlp.hpp"
#include "models/resnet.hpp"
#include "nn/losses.hpp"
#include "optim/optimizer.hpp"
#include "train/experiment.hpp"
#include "train/metrics.hpp"
#include "train/trainer.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace dstee {
namespace {

TEST(Metrics, AccuracyCountsArgmaxMatches) {
  tensor::Tensor logits(tensor::Shape({3, 2}), {2, 1, 0, 3, 5, 4});
  const std::vector<std::size_t> labels{0, 1, 1};
  EXPECT_NEAR(train::accuracy(logits, labels), 2.0 / 3.0, 1e-9);
}

TEST(Metrics, BinaryAccuracyThresholdsAtZeroLogit) {
  tensor::Tensor logits(tensor::Shape({4}), {1.0f, -1.0f, 2.0f, -2.0f});
  const std::vector<float> targets{1, 0, 0, 0};
  EXPECT_NEAR(train::binary_accuracy(logits, targets), 0.75, 1e-9);
}

TEST(Metrics, AucPerfectSeparation) {
  tensor::Tensor scores(tensor::Shape({4}), {0.9f, 0.8f, 0.2f, 0.1f});
  const std::vector<float> targets{1, 1, 0, 0};
  EXPECT_NEAR(train::auc(scores, targets), 1.0, 1e-9);
}

TEST(Metrics, AucRandomScoresNearHalf) {
  util::Rng rng(3);
  tensor::Tensor scores({2000});
  std::vector<float> targets(2000);
  for (std::size_t i = 0; i < 2000; ++i) {
    scores[i] = static_cast<float>(rng.uniform());
    targets[i] = rng.bernoulli(0.5) ? 1.0f : 0.0f;
  }
  EXPECT_NEAR(train::auc(scores, targets), 0.5, 0.05);
}

TEST(Metrics, AucHandlesTies) {
  tensor::Tensor scores(tensor::Shape({4}), {0.5f, 0.5f, 0.5f, 0.5f});
  const std::vector<float> targets{1, 0, 1, 0};
  EXPECT_NEAR(train::auc(scores, targets), 0.5, 1e-9);
}

TEST(Metrics, AucRequiresBothClasses) {
  tensor::Tensor scores(tensor::Shape({2}), {0.1f, 0.2f});
  const std::vector<float> targets{1, 1};
  EXPECT_THROW(train::auc(scores, targets), util::CheckError);
}

TEST(Metrics, MeanStdWelford) {
  train::MeanStd ms;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) ms.add(v);
  EXPECT_NEAR(ms.mean(), 5.0, 1e-12);
  EXPECT_NEAR(ms.stddev(), std::sqrt(32.0 / 7.0), 1e-9);
  EXPECT_EQ(ms.count(), 8u);
  train::MeanStd one;
  one.add(3.0);
  EXPECT_DOUBLE_EQ(one.stddev(), 0.0);
}

data::SyntheticTabularConfig easy_tabular() {
  data::SyntheticTabularConfig cfg;
  cfg.num_classes = 4;
  cfg.features = 16;
  cfg.train_per_class = 32;
  cfg.test_per_class = 16;
  cfg.class_separation = 3.0;
  cfg.noise = 0.7;
  cfg.seed = 9;
  return cfg;
}

TEST(Trainer, LossDecreasesAndAccuracyBeatsChance) {
  const data::SyntheticTabularDataset train_set(
      easy_tabular(), data::SyntheticTabularDataset::Split::kTrain);
  const data::SyntheticTabularDataset test_set(
      easy_tabular(), data::SyntheticTabularDataset::Split::kTest);
  util::Rng rng(1);
  models::MlpConfig mcfg;
  mcfg.in_features = 16;
  mcfg.hidden = {32};
  mcfg.out_features = 4;
  models::Mlp model(mcfg, rng);
  optim::Sgd::Config scfg;
  scfg.lr = 0.1;
  optim::Sgd opt(model.parameters(), scfg);
  data::DataLoader loader(train_set, 32, rng.fork("loader"));
  optim::CosineAnnealingLr sched(0.1, 8 * loader.batches_per_epoch());
  train::Trainer trainer(model, opt, sched, loader, test_set, 8);
  const auto history = trainer.run();
  ASSERT_EQ(history.size(), 8u);
  EXPECT_LT(history.back().train_loss, history.front().train_loss);
  EXPECT_GT(history.back().test_accuracy, 0.5);  // chance = 0.25
  EXPECT_EQ(trainer.iteration(), trainer.total_iterations());
}

TEST(Trainer, HooksFireInOrder) {
  const data::SyntheticTabularDataset train_set(
      easy_tabular(), data::SyntheticTabularDataset::Split::kTrain);
  util::Rng rng(2);
  models::MlpConfig mcfg;
  mcfg.in_features = 16;
  mcfg.out_features = 4;
  models::Mlp model(mcfg, rng);
  optim::Sgd::Config scfg;
  optim::Sgd opt(model.parameters(), scfg);
  data::DataLoader loader(train_set, 64, rng.fork("loader"));
  optim::ConstantLr sched(0.05);
  train::Trainer trainer(model, opt, sched, loader, train_set, 1);
  std::vector<std::string> order;
  train::TrainHooks hooks;
  hooks.after_backward = [&](std::size_t, double lr) {
    EXPECT_DOUBLE_EQ(lr, 0.05);
    order.push_back("backward");
  };
  hooks.before_step = [&] { order.push_back("before"); };
  hooks.after_step = [&] { order.push_back("after"); };
  hooks.on_epoch_end = [&](std::size_t) { order.push_back("epoch"); };
  trainer.set_hooks(hooks);
  trainer.run();
  ASSERT_GE(order.size(), 4u);
  EXPECT_EQ(order[0], "backward");
  EXPECT_EQ(order[1], "before");
  EXPECT_EQ(order[2], "after");
  EXPECT_EQ(order.back(), "epoch");
}

TEST(Experiment, ParseMethodRoundTrips) {
  using train::MethodKind;
  const std::vector<MethodKind> all{
      MethodKind::kDense, MethodKind::kSnip, MethodKind::kGrasp,
      MethodKind::kSynFlow, MethodKind::kStr, MethodKind::kSis,
      MethodKind::kDeepR, MethodKind::kSet, MethodKind::kRigl,
      MethodKind::kRiglItop, MethodKind::kMest, MethodKind::kSnfs,
      MethodKind::kDsr, MethodKind::kDstEe, MethodKind::kGap};
  for (const auto m : all) {
    EXPECT_EQ(train::parse_method(train::to_string(m)), m);
  }
  EXPECT_THROW(train::parse_method("nope"), util::CheckError);
}

TEST(Experiment, MethodPredicatesPartition) {
  using train::MethodKind;
  for (const auto m :
       {MethodKind::kDense, MethodKind::kSnip, MethodKind::kStr,
        MethodKind::kSet, MethodKind::kDstEe}) {
    int cats = 0;
    if (train::is_dynamic(m)) ++cats;
    if (train::is_static(m)) ++cats;
    if (train::is_dense_to_sparse(m)) ++cats;
    EXPECT_LE(cats, 1);
  }
  EXPECT_TRUE(train::is_dynamic(MethodKind::kDstEe));
  EXPECT_TRUE(train::is_static(MethodKind::kSnip));
  EXPECT_TRUE(train::is_dense_to_sparse(MethodKind::kStr));
  EXPECT_FALSE(train::is_dynamic(MethodKind::kDense));
}

class ExperimentMethods : public ::testing::TestWithParam<const char*> {};

TEST_P(ExperimentMethods, RunsAndHitsTargetSparsity) {
  const auto method = train::parse_method(GetParam());
  const data::SyntheticTabularDataset train_set(
      easy_tabular(), data::SyntheticTabularDataset::Split::kTrain);
  const data::SyntheticTabularDataset test_set(
      easy_tabular(), data::SyntheticTabularDataset::Split::kTest);
  util::Rng rng(11);
  models::MlpConfig mcfg;
  mcfg.in_features = 16;
  mcfg.hidden = {48};
  mcfg.out_features = 4;
  models::Mlp model(mcfg, rng);
  const auto fm = model.flops_model();

  train::ClassificationConfig cfg;
  cfg.method = method;
  cfg.sparsity = 0.8;
  cfg.epochs = 4;
  cfg.batch_size = 32;
  cfg.dst.delta_t = 4;
  cfg.seed = 11;
  const auto result =
      train::run_classification(model, &fm, train_set, test_set, cfg);

  EXPECT_GT(result.final_test_accuracy, 0.3);  // chance = 0.25
  if (method != train::MethodKind::kDense) {
    EXPECT_NEAR(result.achieved_sparsity, 0.8, 0.05);
    EXPECT_LT(result.inference_flops_multiple, 0.5);
  } else {
    EXPECT_DOUBLE_EQ(result.achieved_sparsity, 0.0);
    EXPECT_DOUBLE_EQ(result.train_flops_multiple, 1.0);
  }
  if (train::is_dynamic(method)) {
    EXPECT_GT(result.topology_rounds.size(), 0u);
  }
  EXPECT_EQ(result.history.size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, ExperimentMethods,
    ::testing::Values("dense", "snip", "grasp", "synflow", "str", "sis",
                      "deepr", "set", "rigl", "rigl-itop", "mest", "snfs",
                      "dsr", "dst-ee", "gap"));

TEST(Experiment, DstEeExplorationExceedsStaticBound) {
  const data::SyntheticTabularDataset train_set(
      easy_tabular(), data::SyntheticTabularDataset::Split::kTrain);
  const data::SyntheticTabularDataset test_set(
      easy_tabular(), data::SyntheticTabularDataset::Split::kTest);
  util::Rng rng(12);
  models::MlpConfig mcfg;
  mcfg.in_features = 16;
  mcfg.hidden = {48};
  mcfg.out_features = 4;
  models::Mlp model(mcfg, rng);

  train::ClassificationConfig cfg;
  cfg.method = train::MethodKind::kDstEe;
  cfg.sparsity = 0.9;
  cfg.epochs = 6;
  cfg.dst.delta_t = 2;
  cfg.dst.c = 1e-2;
  const auto result =
      train::run_classification(model, nullptr, train_set, test_set, cfg);
  // DST must have explored beyond its initial 10% of weights.
  EXPECT_GT(result.exploration_rate, 0.1 + 0.02);
}

TEST(Experiment, LinkPredictionAllMethodsRun) {
  const auto g = graph::generate_power_law(graph::ia_email_config(0.1, 3));
  const auto features = graph::structural_features(g, 16, 3);
  const auto split = graph::split_links(g, 0.2, 3);

  for (const auto method :
       {train::LinkMethod::kDense, train::LinkMethod::kPruneFromDense,
        train::LinkMethod::kDstEe}) {
    util::Rng rng(13);
    models::GnnConfig gcfg;
    gcfg.in_features = 16;
    gcfg.hidden = 32;
    gcfg.embedding = 16;
    models::GnnLinkPredictor model(g, gcfg, rng);
    train::LinkConfig cfg;
    cfg.method = method;
    cfg.sparsity = 0.8;
    cfg.epochs = 40;
    cfg.admm_epochs_each = 15;
    cfg.dst.delta_t = 2;
    const auto result =
        train::run_link_prediction(model, features, split, cfg);
    EXPECT_GT(result.best_test_accuracy, 0.52);  // better than coin flip
    EXPECT_GT(result.best_test_auc, 0.6);
    if (method != train::LinkMethod::kDense) {
      EXPECT_NEAR(result.achieved_sparsity, 0.8, 0.05);
    }
  }
}

// Trains a seeded model for four DST-EE iterations at ΔT = 1 (a
// drop-and-grow round every step) and returns every value, buffer, mask
// and counter. With `eager_grads` every gradient is allocated before
// training, as when Parameter built it with the value; otherwise each is
// allocated on first use.
std::vector<tensor::Tensor> train_dst_ee(bool resnet, bool adam,
                                         bool eager_grads) {
  util::Rng rng(61);
  std::unique_ptr<nn::Sequential> model;
  std::vector<std::size_t> dims{4};
  if (resnet) {
    models::ResNetConfig cfg;
    cfg.depth = 18;
    cfg.image_size = 8;
    cfg.num_classes = 4;
    cfg.width_multiplier = 0.125;
    model = std::make_unique<models::ResNet>(cfg, rng);
    dims.insert(dims.end(), {3, 8, 8});
  } else {
    models::MlpConfig cfg;
    cfg.in_features = 12;
    cfg.hidden = {24, 16};
    cfg.out_features = 4;
    model = std::make_unique<models::Mlp>(cfg, rng);
    dims.push_back(12);
  }
  if (eager_grads) {
    for (nn::Parameter* p : model->parameters()) p->grad();
  }
  std::unique_ptr<optim::Optimizer> opt;
  if (adam) {
    optim::Adam::Config cfg;
    cfg.lr = 0.01;
    cfg.weight_decay = 1e-4;
    opt = std::make_unique<optim::Adam>(model->parameters(), cfg);
  } else {
    optim::Sgd::Config cfg;
    cfg.lr = 0.05;
    cfg.momentum = 0.9;
    cfg.weight_decay = 5e-4;
    opt = std::make_unique<optim::Sgd>(model->parameters(), cfg);
  }
  core::DstEeConfig ee;
  ee.sparsity = 0.8;
  ee.delta_t = 1;
  ee.stop_fraction = 1.0;
  constexpr std::size_t kSteps = 4;
  core::DstEeSession session(*model, *opt, ee, kSteps + 1, 62);
  nn::SoftmaxCrossEntropy loss;
  const std::vector<std::size_t> labels{0, 1, 2, 3};
  for (std::size_t it = 1; it <= kSteps; ++it) {
    model->zero_grad();
    const tensor::Tensor logits = model->forward(
        testing::random_tensor(tensor::Shape(dims), 100 + it));
    loss.forward(logits, labels);
    model->backward(loss.backward());
    EXPECT_TRUE(session.on_iteration_end(it, 0.05));
    opt->step();
    session.after_optimizer_step();
  }
  std::vector<tensor::Tensor> out;
  for (nn::Parameter* p : model->parameters()) out.push_back(p->value);
  for (tensor::Tensor* b : model->state_buffers()) out.push_back(*b);
  for (const auto& layer : session.sparse_model().layers()) {
    out.push_back(layer.mask().tensor());
    out.push_back(layer.counter());
  }
  return out;
}

TEST(Train, LazyGradientsTrainBitIdentically) {
  for (const bool resnet : {false, true}) {
    for (const bool adam : {false, true}) {
      const std::vector<tensor::Tensor> eager =
          train_dst_ee(resnet, adam, true);
      const std::vector<tensor::Tensor> lazy =
          train_dst_ee(resnet, adam, false);
      ASSERT_EQ(eager.size(), lazy.size());
      for (std::size_t i = 0; i < eager.size(); ++i) {
        const tensor::Tensor& a = eager[i];
        const tensor::Tensor& b = lazy[i];
        ASSERT_EQ(a.shape(), b.shape());
        EXPECT_EQ(std::memcmp(a.raw(), b.raw(), a.numel() * sizeof(float)), 0)
            << (resnet ? "resnet" : "mlp") << (adam ? " adam" : " sgd")
            << ", tensor " << i;
      }
    }
  }
}

}  // namespace
}  // namespace dstee
