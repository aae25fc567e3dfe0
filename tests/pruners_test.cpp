// Static pruners (SNIP/GraSP/SynFlow/magnitude/random), GMP and ADMM tests.
#include <gtest/gtest.h>

#include "methods/admm.hpp"
#include "methods/gmp.hpp"
#include "methods/static_pruners.hpp"
#include "models/mlp.hpp"
#include "nn/losses.hpp"
#include "sparse/stats.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace dstee {
namespace {

struct PrunerHarness {
  explicit PrunerHarness(std::uint64_t seed = 3)
      : rng(seed),
        model(make_cfg(), rng),
        smodel(model, 0.0, sparse::DistributionKind::kErk, rng) {}

  static models::MlpConfig make_cfg() {
    models::MlpConfig cfg;
    cfg.in_features = 12;
    cfg.hidden = {24, 24};
    cfg.out_features = 4;
    return cfg;
  }

  // One forward/backward on random data, for SNIP/GraSP scoring.
  void eval_grads() {
    const auto x = testing::random_tensor(tensor::Shape({8, 12}), 77);
    const std::vector<std::size_t> labels{0, 1, 2, 3, 0, 1, 2, 3};
    nn::SoftmaxCrossEntropy loss;
    loss.forward(model.forward(x), labels);
    model.backward(loss.backward());
  }

  util::Rng rng;
  models::Mlp model;
  sparse::SparseModel smodel;
};

methods::StaticPruneConfig prune_cfg(double sparsity,
                                     bool global_topk = false) {
  methods::StaticPruneConfig cfg;
  cfg.sparsity = sparsity;
  cfg.distribution = sparse::DistributionKind::kErk;
  cfg.global_topk = global_topk;
  return cfg;
}

TEST(StaticPruners, MagnitudeKeepsLargestWeights) {
  PrunerHarness h;
  auto& p = h.smodel.layer(0).param();
  for (std::size_t i = 0; i < p.value.numel(); ++i) {
    p.value[i] = static_cast<float>(i);  // strictly increasing magnitude
  }
  methods::prune_magnitude(h.smodel, prune_cfg(0.9));
  // The kept indices of layer 0 must be the largest ones.
  const auto active = h.smodel.layer(0).mask().active_indices();
  const std::size_t n = p.value.numel();
  for (const auto idx : active) {
    EXPECT_GE(idx, n - active.size());
  }
  EXPECT_NEAR(h.smodel.global_sparsity(), 0.9, 0.01);
  EXPECT_EQ(sparse::validate_invariants(h.smodel), "");
}

TEST(StaticPruners, RandomAchievesTargetAndIsSeedStable) {
  PrunerHarness a(5), b(5);
  methods::prune_random(a.smodel, prune_cfg(0.8), a.rng);
  methods::prune_random(b.smodel, prune_cfg(0.8), b.rng);
  EXPECT_NEAR(a.smodel.global_sparsity(), 0.8, 0.01);
  for (std::size_t i = 0; i < a.smodel.num_layers(); ++i) {
    EXPECT_EQ(a.smodel.layer(i).mask().hamming_distance(
                  b.smodel.layer(i).mask()),
              0u);
  }
}

TEST(StaticPruners, SnipKeepsHighSensitivityWeights) {
  PrunerHarness h;
  methods::prune_snip(h.model, h.smodel, [&] { h.eval_grads(); },
                      prune_cfg(0.9));
  EXPECT_NEAR(h.smodel.global_sparsity(), 0.9, 0.01);
  EXPECT_EQ(sparse::validate_invariants(h.smodel), "");
}

TEST(StaticPruners, GraspRunsAndHitsSparsity) {
  PrunerHarness h;
  methods::prune_grasp(h.model, h.smodel, [&] { h.eval_grads(); },
                       prune_cfg(0.95));
  EXPECT_NEAR(h.smodel.global_sparsity(), 0.95, 0.01);
}

TEST(StaticPruners, SynFlowIsDataFreeAndRestoresWeights) {
  PrunerHarness h;
  // Snapshot weights to verify sign restoration.
  std::vector<tensor::Tensor> before;
  for (std::size_t i = 0; i < h.smodel.num_layers(); ++i) {
    before.push_back(h.smodel.layer(i).param().value);
  }
  methods::prune_synflow(h.model, h.smodel, tensor::Shape({12}),
                         prune_cfg(0.9), /*rounds=*/5);
  EXPECT_NEAR(h.smodel.global_sparsity(), 0.9, 0.01);
  // Surviving weights keep their original (signed) values.
  for (std::size_t i = 0; i < h.smodel.num_layers(); ++i) {
    const auto& layer = h.smodel.layer(i);
    for (const auto idx : layer.mask().active_indices()) {
      EXPECT_EQ(layer.param().value[idx], before[i][idx]);
    }
  }
}

TEST(StaticPruners, GlobalTopKKeepsAtLeastOnePerLayer) {
  PrunerHarness h;
  // Make layer 2's weights tiny so global top-k would empty it.
  auto& p = h.smodel.layer(2).param();
  for (std::size_t i = 0; i < p.value.numel(); ++i) p.value[i] *= 1e-6f;
  methods::prune_magnitude(h.smodel, prune_cfg(0.98, /*global=*/true));
  for (std::size_t i = 0; i < h.smodel.num_layers(); ++i) {
    EXPECT_GE(h.smodel.layer(i).num_active(), 1u);
  }
}

TEST(StaticPruners, InstallMasksValidatesShapes) {
  PrunerHarness h;
  std::vector<tensor::Tensor> bad_scores;
  bad_scores.emplace_back(tensor::Shape({2, 2}));
  EXPECT_THROW(
      methods::install_masks_from_scores(h.smodel, bad_scores, prune_cfg(0.5)),
      util::CheckError);
}

TEST(StaticPruners, CountersResetToNewMask) {
  PrunerHarness h;
  methods::prune_magnitude(h.smodel, prune_cfg(0.9));
  for (std::size_t i = 0; i < h.smodel.num_layers(); ++i) {
    const auto& layer = h.smodel.layer(i);
    for (std::size_t j = 0; j < layer.counter().numel(); ++j) {
      EXPECT_EQ(layer.counter()[j], layer.mask().is_active(j) ? 1.0f : 0.0f);
    }
  }
}

TEST(Gmp, SparsityRampEndpointsAndMonotonicity) {
  methods::GmpConfig cfg;
  cfg.final_sparsity = 0.9;
  cfg.start_iteration = 100;
  cfg.end_iteration = 900;
  cfg.frequency = 50;
  methods::GradualMagnitudePruner gmp(cfg);
  EXPECT_DOUBLE_EQ(gmp.sparsity_at(0), 0.0);
  EXPECT_DOUBLE_EQ(gmp.sparsity_at(100), 0.0);
  EXPECT_DOUBLE_EQ(gmp.sparsity_at(900), 0.9);
  EXPECT_DOUBLE_EQ(gmp.sparsity_at(5000), 0.9);
  double prev = 0.0;
  for (std::size_t t = 100; t <= 900; t += 40) {
    const double s = gmp.sparsity_at(t);
    EXPECT_GE(s, prev);
    prev = s;
  }
  // Cubic ramp: half-way progress should exceed half the final sparsity.
  EXPECT_GT(gmp.sparsity_at(500), 0.45);
}

TEST(Gmp, MaybePruneFiresOnFrequency) {
  PrunerHarness h;
  methods::GmpConfig cfg;
  cfg.final_sparsity = 0.8;
  cfg.start_iteration = 0;
  cfg.end_iteration = 100;
  cfg.frequency = 10;
  methods::GradualMagnitudePruner gmp(cfg);
  EXPECT_FALSE(gmp.maybe_prune(h.smodel, 5));
  EXPECT_TRUE(gmp.maybe_prune(h.smodel, 50));
  EXPECT_GT(h.smodel.global_sparsity(), 0.4);
  EXPECT_TRUE(gmp.maybe_prune(h.smodel, 100));
  EXPECT_NEAR(h.smodel.global_sparsity(), 0.8, 0.01);
  EXPECT_FALSE(gmp.maybe_prune(h.smodel, 101));
}

TEST(Gmp, InvalidConfigsThrow) {
  methods::GmpConfig cfg;
  cfg.final_sparsity = 0.9;
  cfg.start_iteration = 10;
  cfg.end_iteration = 10;
  EXPECT_THROW(methods::GradualMagnitudePruner{cfg}, util::CheckError);
  cfg.end_iteration = 20;
  cfg.frequency = 0;
  EXPECT_THROW(methods::GradualMagnitudePruner{cfg}, util::CheckError);
}

TEST(Admm, PenaltyGradientIsRhoScaledViolation) {
  PrunerHarness h;
  methods::AdmmConfig cfg;
  cfg.rho = 0.5;
  cfg.sparsity = 0.5;
  methods::AdmmPruner admm(h.smodel, cfg);
  for (auto& layer : h.smodel.layers()) layer.param().zero_grad();
  admm.add_penalty_gradients(h.smodel);
  // Z = top-k projection of W, U = 0 → gradient = rho·(W − Z): zero on the
  // kept (largest) entries, rho·w on pruned-away entries.
  auto& p = h.smodel.layer(0).param();
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < p.grad().numel(); ++i) {
    if (p.grad()[i] != 0.0f) {
      ++nonzero;
      EXPECT_NEAR(p.grad()[i], 0.5f * p.value[i], 1e-5f);
    }
  }
  EXPECT_GT(nonzero, 0u);
}

TEST(Admm, ConstraintViolationShrinksUnderPenaltySteps) {
  PrunerHarness h;
  methods::AdmmConfig cfg;
  cfg.rho = 1.0;
  cfg.sparsity = 0.8;
  cfg.projection_interval = 5;
  methods::AdmmPruner admm(h.smodel, cfg);
  const double v0 = admm.constraint_violation(h.smodel);
  // Pure penalty dynamics: W ← W − lr·rho·(W − Z + U).
  for (std::size_t t = 1; t <= 50; ++t) {
    for (auto& layer : h.smodel.layers()) layer.param().zero_grad();
    admm.add_penalty_gradients(h.smodel);
    for (auto& layer : h.smodel.layers()) {
      auto& p = layer.param();
      for (std::size_t i = 0; i < p.value.numel(); ++i) {
        p.value[i] -= 0.1f * p.grad()[i];
      }
    }
    admm.maybe_update_duals(h.smodel, t);
  }
  EXPECT_LT(admm.constraint_violation(h.smodel), v0);
}

TEST(Admm, FinalizeInstallsExactSparsity) {
  PrunerHarness h;
  methods::AdmmConfig cfg;
  cfg.sparsity = 0.9;
  methods::AdmmPruner admm(h.smodel, cfg);
  admm.finalize_mask(h.smodel);
  EXPECT_NEAR(h.smodel.global_sparsity(), 0.9, 0.01);
  EXPECT_EQ(sparse::validate_invariants(h.smodel), "");
}

TEST(Admm, DualUpdateFiresOnInterval) {
  PrunerHarness h;
  methods::AdmmConfig cfg;
  cfg.projection_interval = 10;
  methods::AdmmPruner admm(h.smodel, cfg);
  EXPECT_FALSE(admm.maybe_update_duals(h.smodel, 5));
  EXPECT_TRUE(admm.maybe_update_duals(h.smodel, 10));
}

TEST(Admm, InvalidConfigThrows) {
  PrunerHarness h;
  methods::AdmmConfig cfg;
  cfg.rho = 0.0;
  EXPECT_THROW(methods::AdmmPruner(h.smodel, cfg), util::CheckError);
  cfg.rho = 1.0;
  cfg.sparsity = 0.0;
  EXPECT_THROW(methods::AdmmPruner(h.smodel, cfg), util::CheckError);
}

}  // namespace
}  // namespace dstee
