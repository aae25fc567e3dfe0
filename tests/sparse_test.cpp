// Sparse substrate tests: masks, distributions, SparseModel, exploration.
#include <gtest/gtest.h>

#include <set>

#include "models/mlp.hpp"
#include "sparse/distribution.hpp"
#include "sparse/exploration.hpp"
#include "sparse/mask.hpp"
#include "sparse/sparse_model.hpp"
#include "sparse/stats.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace dstee {
namespace {

TEST(Mask, DenseByDefault) {
  sparse::Mask m(tensor::Shape({3, 4}));
  EXPECT_EQ(m.num_active(), 12u);
  EXPECT_DOUBLE_EQ(m.density(), 1.0);
}

TEST(Mask, RandomHasExactCount) {
  util::Rng rng(1);
  const auto m = sparse::Mask::random(tensor::Shape({10, 10}), 37, rng);
  EXPECT_EQ(m.num_active(), 37u);
}

TEST(Mask, RandomDiffersAcrossDraws) {
  util::Rng rng(2);
  const auto a = sparse::Mask::random(tensor::Shape({20, 20}), 100, rng);
  const auto b = sparse::Mask::random(tensor::Shape({20, 20}), 100, rng);
  EXPECT_GT(a.hamming_distance(b), 0u);
}

TEST(Mask, FromIndices) {
  const auto m = sparse::Mask::from_indices(tensor::Shape({6}), {1, 4});
  EXPECT_TRUE(m.is_active(1));
  EXPECT_TRUE(m.is_active(4));
  EXPECT_FALSE(m.is_active(0));
  EXPECT_EQ(m.num_active(), 2u);
  EXPECT_THROW(sparse::Mask::from_indices(tensor::Shape({3}), {5}),
               util::CheckError);
}

TEST(Mask, ActivateDeactivate) {
  sparse::Mask m(tensor::Shape({4}));
  m.deactivate(2);
  EXPECT_FALSE(m.is_active(2));
  EXPECT_EQ(m.num_active(), 3u);
  m.activate(2);
  EXPECT_TRUE(m.is_active(2));
}

TEST(Mask, ActiveInactiveIndicesPartition) {
  util::Rng rng(3);
  const auto m = sparse::Mask::random(tensor::Shape({50}), 20, rng);
  const auto active = m.active_indices();
  const auto inactive = m.inactive_indices();
  EXPECT_EQ(active.size(), 20u);
  EXPECT_EQ(inactive.size(), 30u);
  std::set<std::size_t> all;
  all.insert(active.begin(), active.end());
  all.insert(inactive.begin(), inactive.end());
  EXPECT_EQ(all.size(), 50u);
}

TEST(Mask, ApplyZeroesMaskedEntries) {
  auto t = testing::random_tensor(tensor::Shape({10}), 4);
  const auto m = sparse::Mask::from_indices(tensor::Shape({10}), {0, 5});
  m.apply_to(t);
  for (std::size_t i = 0; i < 10; ++i) {
    if (i == 0 || i == 5) continue;
    EXPECT_EQ(t[i], 0.0f);
  }
  tensor::Tensor wrong({5});
  EXPECT_THROW(m.apply_to(wrong), util::CheckError);
}

TEST(Mask, HammingDistance) {
  const auto a = sparse::Mask::from_indices(tensor::Shape({5}), {0, 1});
  const auto b = sparse::Mask::from_indices(tensor::Shape({5}), {1, 2});
  EXPECT_EQ(a.hamming_distance(b), 2u);
  EXPECT_EQ(a.hamming_distance(a), 0u);
}

TEST(Distribution, ParseRoundTrip) {
  EXPECT_EQ(sparse::parse_distribution("erk"), sparse::DistributionKind::kErk);
  EXPECT_EQ(sparse::parse_distribution("ER"), sparse::DistributionKind::kEr);
  EXPECT_EQ(sparse::parse_distribution("Uniform"),
            sparse::DistributionKind::kUniform);
  EXPECT_THROW(sparse::parse_distribution("bogus"), util::CheckError);
  EXPECT_EQ(sparse::to_string(sparse::DistributionKind::kErk), "erk");
}

TEST(Distribution, UniformGivesGlobalDensityEverywhere) {
  const std::vector<tensor::Shape> shapes{tensor::Shape({100, 100}),
                                          tensor::Shape({50, 10})};
  const auto d = sparse::layer_densities(shapes, 0.9,
                                         sparse::DistributionKind::kUniform);
  for (const double x : d) EXPECT_DOUBLE_EQ(x, 0.1);
}

TEST(Distribution, ErkSmallLayersDenser) {
  // ERK gives higher density to layers with skewed aspect/smaller numel.
  const std::vector<tensor::Shape> shapes{
      tensor::Shape({512, 512, 3, 3}),  // huge conv
      tensor::Shape({10, 64}),          // tiny classifier
  };
  const auto d =
      sparse::layer_densities(shapes, 0.9, sparse::DistributionKind::kErk);
  EXPECT_GT(d[1], d[0]);
}

class DistributionGlobalSparsity
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(DistributionGlobalSparsity, ActiveCountsHitGlobalTarget) {
  const double sparsity = std::get<0>(GetParam());
  const auto kind =
      static_cast<sparse::DistributionKind>(std::get<1>(GetParam()));
  const std::vector<tensor::Shape> shapes{
      tensor::Shape({64, 32, 3, 3}), tensor::Shape({128, 64, 3, 3}),
      tensor::Shape({256, 128}), tensor::Shape({10, 256})};
  std::size_t total = 0;
  for (const auto& s : shapes) total += s.numel();
  const auto counts = sparse::layer_active_counts(shapes, sparsity, kind);
  std::size_t active = 0;
  for (const auto c : counts) active += c;
  const auto target = static_cast<std::size_t>(
      std::llround((1.0 - sparsity) * static_cast<double>(total)));
  EXPECT_EQ(active, target);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_GE(counts[i], 1u);
    EXPECT_LE(counts[i], shapes[i].numel());
  }
}

INSTANTIATE_TEST_SUITE_P(
    SparsityGrid, DistributionGlobalSparsity,
    ::testing::Combine(::testing::Values(0.5, 0.8, 0.9, 0.95, 0.98),
                       ::testing::Values(0, 1, 2)));

TEST(Distribution, InvalidSparsityThrows) {
  const std::vector<tensor::Shape> shapes{tensor::Shape({4, 4})};
  EXPECT_THROW(
      sparse::layer_densities(shapes, 1.0, sparse::DistributionKind::kErk),
      util::CheckError);
  EXPECT_THROW(
      sparse::layer_densities({}, 0.5, sparse::DistributionKind::kErk),
      util::CheckError);
}

TEST(SparseModel, AchievesTargetSparsity) {
  util::Rng rng(5);
  models::MlpConfig cfg;
  cfg.in_features = 32;
  cfg.hidden = {64, 64};
  cfg.out_features = 10;
  models::Mlp model(cfg, rng);
  sparse::SparseModel sm(model, 0.9, sparse::DistributionKind::kErk, rng);
  EXPECT_NEAR(sm.global_sparsity(), 0.9, 1e-3);
  EXPECT_EQ(sm.num_layers(), 3u);  // three linear weights
}

TEST(SparseModel, ZeroSparsityIsDense) {
  util::Rng rng(6);
  models::MlpConfig cfg;
  models::Mlp model(cfg, rng);
  sparse::SparseModel sm(model, 0.0, sparse::DistributionKind::kErk, rng);
  EXPECT_DOUBLE_EQ(sm.global_density(), 1.0);
}

TEST(SparseModel, MaskedValuesAreZeroAfterConstruction) {
  util::Rng rng(7);
  models::MlpConfig cfg;
  models::Mlp model(cfg, rng);
  sparse::SparseModel sm(model, 0.8, sparse::DistributionKind::kUniform, rng);
  EXPECT_EQ(sparse::validate_invariants(sm), "");
}

TEST(SparseModel, ApplyMasksToGrads) {
  util::Rng rng(8);
  models::MlpConfig cfg;
  models::Mlp model(cfg, rng);
  sparse::SparseModel sm(model, 0.5, sparse::DistributionKind::kUniform, rng);
  for (auto& layer : sm.layers()) {
    layer.param().grad().fill(1.0f);
  }
  sm.apply_masks_to_grads();
  for (auto& layer : sm.layers()) {
    const auto& mask = layer.mask().tensor();
    for (std::size_t i = 0; i < mask.numel(); ++i) {
      EXPECT_EQ(layer.param().grad()[i], mask[i]);
    }
  }
}

TEST(SparseModel, CountersInitializedToMask) {
  util::Rng rng(9);
  models::MlpConfig cfg;
  models::Mlp model(cfg, rng);
  sparse::SparseModel sm(model, 0.7, sparse::DistributionKind::kUniform, rng);
  // Constructor runs N ← M once.
  for (const auto& layer : sm.layers()) {
    const auto& mask = layer.mask().tensor();
    for (std::size_t i = 0; i < mask.numel(); ++i) {
      EXPECT_EQ(layer.counter()[i], mask[i]);
    }
  }
}

TEST(SparseModel, AccumulateAndResetCounters) {
  util::Rng rng(10);
  models::MlpConfig cfg;
  models::Mlp model(cfg, rng);
  sparse::SparseModel sm(model, 0.5, sparse::DistributionKind::kUniform, rng);
  sm.accumulate_counters();
  for (const auto& layer : sm.layers()) {
    const auto& mask = layer.mask().tensor();
    for (std::size_t i = 0; i < mask.numel(); ++i) {
      EXPECT_EQ(layer.counter()[i], 2.0f * mask[i]);
    }
  }
  sm.reset_counters_to_masks();
  for (const auto& layer : sm.layers()) {
    const auto& mask = layer.mask().tensor();
    for (std::size_t i = 0; i < mask.numel(); ++i) {
      EXPECT_EQ(layer.counter()[i], mask[i]);
    }
  }
}

TEST(SparseModel, LayerReportConsistent) {
  util::Rng rng(11);
  models::MlpConfig cfg;
  models::Mlp model(cfg, rng);
  sparse::SparseModel sm(model, 0.9, sparse::DistributionKind::kErk, rng);
  const auto report = sm.layer_report();
  ASSERT_EQ(report.size(), sm.num_layers());
  std::size_t total_active = 0;
  for (const auto& r : report) {
    EXPECT_NEAR(r.density,
                static_cast<double>(r.active) / static_cast<double>(r.numel),
                1e-12);
    total_active += r.active;
  }
  EXPECT_EQ(total_active, sm.total_active());
}

TEST(SparseModel, InvalidSparsityThrows) {
  util::Rng rng(12);
  models::MlpConfig cfg;
  models::Mlp model(cfg, rng);
  EXPECT_THROW(
      sparse::SparseModel(model, 1.0, sparse::DistributionKind::kErk, rng),
      util::CheckError);
}

TEST(Exploration, StartsAtInitialDensity) {
  util::Rng rng(13);
  models::MlpConfig cfg;
  models::Mlp model(cfg, rng);
  sparse::SparseModel sm(model, 0.9, sparse::DistributionKind::kUniform, rng);
  sparse::ExplorationTracker tracker(sm);
  EXPECT_NEAR(tracker.exploration_rate(), 0.1, 0.01);
}

TEST(Exploration, GrowsMonotonicallyWithNewMasks) {
  util::Rng rng(14);
  models::MlpConfig cfg;
  models::Mlp model(cfg, rng);
  sparse::SparseModel sm(model, 0.9, sparse::DistributionKind::kUniform, rng);
  sparse::ExplorationTracker tracker(sm);
  double prev = tracker.exploration_rate();
  for (int round = 0; round < 5; ++round) {
    // Move every layer's mask to a fresh random support.
    util::Rng mask_rng(static_cast<std::uint64_t>(round + 100));
    for (auto& layer : sm.layers()) {
      layer.mask() = sparse::Mask::random(layer.param().value.shape(),
                                          layer.num_active(), mask_rng);
    }
    tracker.observe(sm);
    const double cur = tracker.exploration_rate();
    EXPECT_GE(cur, prev);
    prev = cur;
  }
  EXPECT_GT(prev, 0.3);  // five fresh 10%-masks must cover well over 30%
}

TEST(Exploration, PerLayerRatesMatchGlobal) {
  util::Rng rng(15);
  models::MlpConfig cfg;
  models::Mlp model(cfg, rng);
  sparse::SparseModel sm(model, 0.8, sparse::DistributionKind::kUniform, rng);
  sparse::ExplorationTracker tracker(sm);
  const auto rates = tracker.per_layer_rates();
  EXPECT_EQ(rates.size(), sm.num_layers());
  for (const double r : rates) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
}

TEST(Stats, ValidateDetectsNonzeroMaskedWeight) {
  util::Rng rng(16);
  models::MlpConfig cfg;
  models::Mlp model(cfg, rng);
  sparse::SparseModel sm(model, 0.5, sparse::DistributionKind::kUniform, rng);
  // Corrupt: set a masked weight nonzero.
  auto& layer = sm.layer(0);
  const auto inactive = layer.mask().inactive_indices();
  ASSERT_FALSE(inactive.empty());
  layer.param().value[inactive[0]] = 1.0f;
  EXPECT_NE(sparse::validate_invariants(sm), "");
}

TEST(Stats, TopologyLogAggregates) {
  sparse::TopologyLog log;
  log.record({1, 100, 10, 10, 4, 0.2});
  log.record({2, 200, 8, 8, 2, 0.3});
  EXPECT_EQ(log.num_rounds(), 2u);
  EXPECT_EQ(log.total_dropped(), 18u);
  EXPECT_EQ(log.total_grown(), 18u);
  EXPECT_NEAR(log.never_seen_growth_fraction(), 6.0 / 18.0, 1e-12);
}

TEST(Stats, EmptyLogFractionIsZero) {
  sparse::TopologyLog log;
  EXPECT_DOUBLE_EQ(log.never_seen_growth_fraction(), 0.0);
}

}  // namespace
}  // namespace dstee
