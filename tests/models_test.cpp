// Model tests: VGG / ResNet / MLP / GNN shape contracts and gradients.
#include <gtest/gtest.h>

#include "graph/generator.hpp"
#include "tensor/ops.hpp"
#include "models/gnn.hpp"
#include "models/mlp.hpp"
#include "models/resnet.hpp"
#include "models/vgg.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace dstee {
namespace {

using testing::random_tensor;

TEST(Vgg, PlanDepths) {
  const auto plan19 = models::vgg_plan(19);
  EXPECT_EQ(std::count(plan19.begin(), plan19.end(), 0u), 5);
  // VGG-19 has 16 conv entries.
  std::size_t convs = 0;
  for (const auto e : plan19) {
    if (e != 0) ++convs;
  }
  EXPECT_EQ(convs, 16u);
  std::size_t convs13 = 0;
  for (const auto e : models::vgg_plan(13)) {
    if (e != 0) ++convs13;
  }
  EXPECT_EQ(convs13, 10u);
  EXPECT_THROW(models::vgg_plan(7), util::CheckError);
}

TEST(Vgg, ForwardShapeAndConvCount) {
  util::Rng rng(1);
  models::VggConfig cfg;
  cfg.depth = 19;
  cfg.image_size = 16;
  cfg.num_classes = 10;
  cfg.width_multiplier = 0.125;
  models::Vgg vgg(cfg, rng);
  EXPECT_EQ(vgg.num_conv_layers(), 16u);
  const auto y = vgg.forward(random_tensor(tensor::Shape({2, 3, 16, 16}), 2));
  EXPECT_EQ(y.shape(), tensor::Shape({2, 10}));
}

TEST(Vgg, TinyImagesSkipLatePools) {
  util::Rng rng(3);
  models::VggConfig cfg;
  cfg.depth = 11;
  cfg.image_size = 8;  // only 3 pools fit
  cfg.num_classes = 5;
  cfg.width_multiplier = 0.25;
  models::Vgg vgg(cfg, rng);
  const auto y = vgg.forward(random_tensor(tensor::Shape({1, 3, 8, 8}), 4));
  EXPECT_EQ(y.shape(), tensor::Shape({1, 5}));
}

TEST(Vgg, WidthMultiplierScalesParameters) {
  util::Rng rng(5);
  models::VggConfig small_cfg, big_cfg;
  small_cfg.depth = big_cfg.depth = 11;
  small_cfg.image_size = big_cfg.image_size = 8;
  small_cfg.width_multiplier = 0.125;
  big_cfg.width_multiplier = 0.25;
  models::Vgg small(small_cfg, rng), big(big_cfg, rng);
  EXPECT_GT(big.num_parameters(), 2 * small.num_parameters());
}

TEST(Vgg, BackwardRuns) {
  util::Rng rng(6);
  models::VggConfig cfg;
  cfg.depth = 11;
  cfg.image_size = 8;
  cfg.num_classes = 4;
  cfg.width_multiplier = 0.125;
  models::Vgg vgg(cfg, rng);
  const auto x = random_tensor(tensor::Shape({2, 3, 8, 8}), 7);
  const auto y = vgg.forward(x);
  const auto gx = vgg.backward(random_tensor(y.shape(), 8));
  EXPECT_EQ(gx.shape(), x.shape());
  // All sparsifiable weights must have received gradients.
  for (auto* p : vgg.parameters()) {
    if (!p->sparsifiable) continue;
    double norm = 0.0;
    for (std::size_t i = 0; i < p->grad().numel(); ++i) {
      norm += std::abs(static_cast<double>(p->grad()[i]));
    }
    EXPECT_GT(norm, 0.0) << p->name;
  }
}

TEST(Vgg, FlopsModelMatchesConvCount) {
  util::Rng rng(9);
  models::VggConfig cfg;
  cfg.depth = 19;
  cfg.image_size = 16;
  cfg.width_multiplier = 0.125;
  models::Vgg vgg(cfg, rng);
  const auto fm = vgg.flops_model();
  EXPECT_EQ(fm.num_sparsifiable(), 17u);  // 16 convs + classifier
  EXPECT_GT(fm.dense_forward_flops(), 0.0);
}

TEST(ResNet, Depth18ForwardShape) {
  util::Rng rng(10);
  models::ResNetConfig cfg;
  cfg.depth = 18;
  cfg.image_size = 16;
  cfg.num_classes = 10;
  cfg.width_multiplier = 0.125;
  models::ResNet net(cfg, rng);
  const auto y = net.forward(random_tensor(tensor::Shape({2, 3, 16, 16}), 11));
  EXPECT_EQ(y.shape(), tensor::Shape({2, 10}));
}

TEST(ResNet, Depth50UsesBottlenecks) {
  util::Rng rng(12);
  models::ResNetConfig cfg;
  cfg.depth = 50;
  cfg.image_size = 8;
  cfg.num_classes = 4;
  cfg.width_multiplier = 0.0625;
  models::ResNet net(cfg, rng);
  const auto y = net.forward(random_tensor(tensor::Shape({1, 3, 8, 8}), 13));
  EXPECT_EQ(y.shape(), tensor::Shape({1, 4}));
  // Bottleneck ResNet-50 has 53 convs (1 stem + 3·16 blocks + 4 shortcuts).
  const auto fm = net.flops_model();
  EXPECT_EQ(fm.num_sparsifiable(), 54u);  // 53 convs + classifier
}

TEST(ResNet, UnsupportedDepthThrows) {
  util::Rng rng(14);
  models::ResNetConfig cfg;
  cfg.depth = 99;
  EXPECT_THROW(models::ResNet(cfg, rng), util::CheckError);
}

TEST(ResNet, BackwardProducesInputGradient) {
  util::Rng rng(15);
  models::ResNetConfig cfg;
  cfg.depth = 18;
  cfg.image_size = 8;
  cfg.num_classes = 3;
  cfg.width_multiplier = 0.125;
  models::ResNet net(cfg, rng);
  const auto x = random_tensor(tensor::Shape({2, 3, 8, 8}), 16);
  const auto y = net.forward(x);
  const auto gx = net.backward(random_tensor(y.shape(), 17));
  EXPECT_EQ(gx.shape(), x.shape());
  EXPECT_FALSE(tensor::has_nonfinite(gx));
}

TEST(ResidualBlock, IdentityShortcutGradientsCheck) {
  util::Rng rng(18);
  std::vector<models::ConvGeomRecord> records;
  models::ResidualBlock block(4, 4, 4, 1, /*bottleneck=*/false, rng, 5,
                              records);
  block.set_training(true);
  // BN centers pre-activations at zero, so individual FD probes can land on
  // ReLU kinks; the tolerant checker requires MOST probes to agree, which
  // still catches routing errors (missing skip path, wrong mask) that
  // corrupt every entry. Standalone Conv2d/BatchNorm checks are tight.
  testing::check_module_gradients_tolerant(
      block, random_tensor(tensor::Shape({2, 4, 5, 5}), 19));
}

TEST(ResidualBlock, ProjectionShortcutGradientsCheck) {
  util::Rng rng(20);
  std::vector<models::ConvGeomRecord> records;
  models::ResidualBlock block(4, 4, 8, 2, /*bottleneck=*/true, rng, 6,
                              records);
  block.set_training(true);
  testing::check_module_gradients_tolerant(
      block, random_tensor(tensor::Shape({1, 4, 6, 6}), 21));
}

TEST(Mlp, ForwardShapeAndFlops) {
  util::Rng rng(22);
  models::MlpConfig cfg;
  cfg.in_features = 10;
  cfg.hidden = {20, 30};
  cfg.out_features = 5;
  models::Mlp mlp(cfg, rng);
  const auto y = mlp.forward(random_tensor(tensor::Shape({4, 10}), 23));
  EXPECT_EQ(y.shape(), tensor::Shape({4, 5}));
  const auto fm = mlp.flops_model();
  EXPECT_EQ(fm.num_sparsifiable(), 3u);
  EXPECT_DOUBLE_EQ(fm.dense_forward_flops(),
                   2.0 * (10 * 20 + 20 * 30 + 30 * 5));
}

TEST(Mlp, OptionsBuildBatchNormAndDropout) {
  util::Rng rng(24);
  models::MlpConfig cfg;
  cfg.batch_norm = true;
  cfg.dropout = 0.2;
  models::Mlp mlp(cfg, rng);
  const auto y = mlp.forward(random_tensor(tensor::Shape({4, 32}), 25));
  EXPECT_EQ(y.dim(1), 10u);
}

TEST(Gnn, GcnLayerShapesAndGradients) {
  graph::PowerLawConfig gcfg;
  gcfg.num_nodes = 20;
  gcfg.edges_per_node = 2;
  const graph::Graph g = graph::generate_power_law(gcfg);
  util::Rng rng(26);
  models::GcnLayer layer(g, 6, 4, rng);
  testing::check_module_gradients(
      layer, random_tensor(tensor::Shape({20, 6}), 27), 6e-2, 10);
}

TEST(Gnn, LinkPredictorEncodesAndScores) {
  graph::PowerLawConfig gcfg;
  gcfg.num_nodes = 30;
  gcfg.edges_per_node = 3;
  const graph::Graph g = graph::generate_power_law(gcfg);
  util::Rng rng(28);
  models::GnnConfig cfg;
  cfg.in_features = 8;
  cfg.hidden = 16;
  cfg.embedding = 8;
  models::GnnLinkPredictor model(g, cfg, rng);
  const auto z = model.forward(random_tensor(tensor::Shape({30, 8}), 29));
  EXPECT_EQ(z.shape(), tensor::Shape({30, 8}));
  std::vector<graph::LabeledPair> pairs{{0, 1, 1.0f}, {2, 3, 0.0f}};
  const auto logits = model.score_pairs(pairs);
  EXPECT_EQ(logits.numel(), 2u);
  // pair_grad → embedding grad → backward runs end to end.
  tensor::Tensor grad_logits(tensor::Shape({2}), {1.0f, -1.0f});
  const auto grad_z = model.pair_grad_to_embedding_grad(grad_logits, pairs);
  EXPECT_EQ(grad_z.shape(), z.shape());
  const auto gx = model.backward(grad_z);
  EXPECT_EQ(gx.shape(), tensor::Shape({30, 8}));
}

TEST(Gnn, HasExactlyTwoSparsifiableLayers) {
  // The paper sparsifies "the two fully connected layers".
  graph::PowerLawConfig gcfg;
  gcfg.num_nodes = 20;
  gcfg.edges_per_node = 2;
  const graph::Graph g = graph::generate_power_law(gcfg);
  util::Rng rng(30);
  models::GnnLinkPredictor model(g, models::GnnConfig{}, rng);
  std::size_t sparsifiable = 0;
  for (const auto* p : model.parameters()) {
    if (p->sparsifiable) ++sparsifiable;
  }
  EXPECT_EQ(sparsifiable, 2u);
}

TEST(Gnn, PairGradientMatchesFiniteDifference) {
  graph::PowerLawConfig gcfg;
  gcfg.num_nodes = 12;
  gcfg.edges_per_node = 2;
  const graph::Graph g = graph::generate_power_law(gcfg);
  util::Rng rng(31);
  models::GnnConfig cfg;
  cfg.in_features = 4;
  cfg.hidden = 6;
  cfg.embedding = 4;
  models::GnnLinkPredictor model(g, cfg, rng);
  const auto x = random_tensor(tensor::Shape({12, 4}), 32);
  std::vector<graph::LabeledPair> pairs{{0, 5, 1.0f}, {3, 7, 0.0f}};

  // analytic: d(sum of logits)/d(W1[0])
  model.zero_grad();
  model.forward(x);
  tensor::Tensor ones(tensor::Shape({2}));
  ones.fill(1.0f);
  model.backward(model.pair_grad_to_embedding_grad(ones, pairs));
  nn::Parameter* w1 = model.parameters()[0];
  const float analytic = w1->grad()[0];

  auto loss_of = [&]() {
    model.forward(x);
    const auto logits = model.score_pairs(pairs);
    return static_cast<double>(logits[0]) + logits[1];
  };
  const float eps = 1e-2f;
  const float saved = w1->value[0];
  w1->value[0] = saved + eps;
  const double plus = loss_of();
  w1->value[0] = saved - eps;
  const double minus = loss_of();
  w1->value[0] = saved;
  EXPECT_NEAR(analytic, (plus - minus) / (2.0 * eps), 5e-2);
}

}  // namespace
}  // namespace dstee
