// DstEngine tests: Algorithm 1's invariants under every growth policy.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "methods/dst_engine.hpp"
#include "tensor/ops.hpp"
#include "models/mlp.hpp"
#include "optim/optimizer.hpp"
#include "sparse/stats.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace dstee {
namespace {

struct EngineHarness {
  EngineHarness(double sparsity, const std::string& grow_kind,
                bool redistribute = false, std::uint64_t seed = 7)
      : rng(seed), model(make_cfg(), rng),
        smodel(model, sparsity, sparse::DistributionKind::kErk, rng),
        optimizer(model.parameters(), sgd_cfg()) {
    methods::DstEngineConfig cfg;
    cfg.schedule.delta_t = 10;
    cfg.schedule.total_iterations = 1000;
    cfg.schedule.stop_fraction = 1.0;
    cfg.schedule.initial_drop_fraction = 0.3;
    cfg.drop = std::make_unique<methods::MagnitudeDrop>();
    if (grow_kind == "random") {
      cfg.grow = std::make_unique<methods::RandomGrow>();
    } else if (grow_kind == "gradient") {
      cfg.grow = std::make_unique<methods::GradientGrow>();
    } else if (grow_kind == "momentum") {
      cfg.grow = std::make_unique<methods::MomentumGrow>();
    } else {
      methods::DstEeGrow::Config ee;
      cfg.grow = std::make_unique<methods::DstEeGrow>(ee);
    }
    cfg.redistribute_across_layers = redistribute;
    engine = std::make_unique<methods::DstEngine>(smodel, optimizer,
                                                  std::move(cfg),
                                                  rng.fork("engine"));
  }

  static models::MlpConfig make_cfg() {
    models::MlpConfig cfg;
    cfg.in_features = 16;
    cfg.hidden = {32, 32};
    cfg.out_features = 8;
    return cfg;
  }
  static optim::Sgd::Config sgd_cfg() {
    optim::Sgd::Config cfg;
    cfg.lr = 0.1;
    return cfg;
  }

  void fill_random_grads(std::uint64_t seed) {
    util::Rng r(seed);
    for (auto& layer : smodel.layers()) {
      tensor::fill_normal(layer.param().grad(), r, 0.0f, 1.0f);
    }
  }

  util::Rng rng;
  models::Mlp model;
  sparse::SparseModel smodel;
  optim::Sgd optimizer;
  std::unique_ptr<methods::DstEngine> engine;
};

// The policy is a std::string, not a const char*: gtest prints a char
// pointer inside a tuple with its address, which would put the per-run
// load address into every case name that CTest discovers.
class EngineAllPolicies : public ::testing::TestWithParam<
                              std::tuple<double, std::string>> {};

TEST_P(EngineAllPolicies, SparsityPreservedAcrossManyRounds) {
  const double sparsity = std::get<0>(GetParam());
  EngineHarness h(sparsity, std::get<1>(GetParam()));
  const std::size_t active_before = h.smodel.total_active();
  for (std::size_t round = 1; round <= 20; ++round) {
    h.fill_random_grads(round);
    h.engine->force_update(round * 10, 0.1);
    EXPECT_EQ(h.smodel.total_active(), active_before)
        << "active count drifted at round " << round;
    EXPECT_EQ(sparse::validate_invariants(h.smodel), "");
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyGrid, EngineAllPolicies,
    ::testing::Combine(::testing::Values(0.5, 0.8, 0.9, 0.95, 0.98),
                       ::testing::Values("random", "gradient", "momentum",
                                         "dst-ee")));

TEST(Engine, MaybeUpdateHonoursSchedule) {
  EngineHarness h(0.9, "dst-ee");
  h.fill_random_grads(1);
  EXPECT_FALSE(h.engine->maybe_update(5, 0.1));
  EXPECT_TRUE(h.engine->maybe_update(10, 0.1));
  EXPECT_FALSE(h.engine->maybe_update(11, 0.1));
  EXPECT_EQ(h.engine->log().num_rounds(), 1u);
}

TEST(Engine, DropAndGrowCountsBalance) {
  EngineHarness h(0.9, "dst-ee");
  h.fill_random_grads(2);
  h.engine->force_update(10, 0.1);
  const auto& round = h.engine->log().rounds().front();
  EXPECT_GT(round.dropped, 0u);
  EXPECT_EQ(round.dropped, round.grown);
}

TEST(Engine, GrownWeightsStartAtZero) {
  EngineHarness h(0.9, "dst-ee");
  // Make all active weights large so drops/zeros are visible.
  for (auto& layer : h.smodel.layers()) {
    for (const auto idx : layer.mask().active_indices()) {
      layer.param().value[idx] = 5.0f;
    }
  }
  h.fill_random_grads(3);
  h.engine->force_update(10, 0.1);
  for (auto& layer : h.smodel.layers()) {
    for (const auto idx : layer.mask().active_indices()) {
      const float v = layer.param().value[idx];
      EXPECT_TRUE(v == 0.0f || v == 5.0f);  // old survivors or fresh zeros
    }
  }
}

TEST(Engine, CountersAccumulateOnlyActivePositions) {
  EngineHarness h(0.8, "random");
  h.fill_random_grads(4);
  h.engine->force_update(10, 0.1);
  for (auto& layer : h.smodel.layers()) {
    const auto& counter = layer.counter();
    const auto& mask = layer.mask().tensor();
    for (std::size_t i = 0; i < counter.numel(); ++i) {
      // After init (N=M) plus one round (N+=M'), a currently-active element
      // must have counter >= 1.
      if (mask[i] != 0.0f) {
        EXPECT_GE(counter[i], 1.0f);
      }
    }
  }
}

TEST(Engine, CounterTotalGrowsByActiveCountEachRound) {
  EngineHarness h(0.9, "dst-ee");
  auto counter_total = [&] {
    double total = 0.0;
    for (auto& layer : h.smodel.layers()) {
      total += tensor::sum(layer.counter());
    }
    return total;
  };
  const double before = counter_total();
  h.fill_random_grads(5);
  h.engine->force_update(10, 0.1);
  const double after = counter_total();
  EXPECT_DOUBLE_EQ(after - before,
                   static_cast<double>(h.smodel.total_active()));
}

TEST(Engine, ExplorationRateIncreasesWithRandomGrowth) {
  EngineHarness h(0.9, "random");
  const double r0 = h.engine->exploration().exploration_rate();
  for (std::size_t round = 1; round <= 10; ++round) {
    h.fill_random_grads(round + 50);
    h.engine->force_update(round * 10, 0.1);
  }
  EXPECT_GT(h.engine->exploration().exploration_rate(), r0);
}

TEST(Engine, DstEeExploresMoreThanGreedyGradient) {
  // The paper's core claim at the mechanism level: with equal budgets,
  // DST-EE's coverage R exceeds pure gradient growth (which keeps
  // re-growing the same high-gradient positions).
  EngineHarness greedy(0.9, "gradient", false, 21);
  EngineHarness ee(0.9, "dst-ee", false, 21);
  for (std::size_t round = 1; round <= 25; ++round) {
    // Identical, persistent gradient landscape for both.
    greedy.fill_random_grads(1234);
    ee.fill_random_grads(1234);
    greedy.engine->force_update(round * 10, 0.1);
    ee.engine->force_update(round * 10, 0.1);
  }
  EXPECT_GT(ee.engine->exploration().exploration_rate(),
            greedy.engine->exploration().exploration_rate());
}

TEST(Engine, NeverSeenGrownTrackedForFreshPositions) {
  EngineHarness h(0.95, "random");
  h.fill_random_grads(6);
  h.engine->force_update(10, 0.1);
  const auto& round = h.engine->log().rounds().front();
  // At 95% sparsity almost all inactive positions have never been active.
  EXPECT_GT(round.never_seen_grown, 0u);
  EXPECT_LE(round.never_seen_grown, round.grown);
}

TEST(Engine, RedistributionPreservesGlobalBudget) {
  EngineHarness h(0.9, "random", /*redistribute=*/true);
  const std::size_t before = h.smodel.total_active();
  for (std::size_t round = 1; round <= 10; ++round) {
    h.fill_random_grads(round + 7);
    h.engine->force_update(round * 10, 0.1);
    EXPECT_EQ(h.smodel.total_active(), before);
    EXPECT_EQ(sparse::validate_invariants(h.smodel), "");
  }
}

TEST(Engine, RedistributionShiftsDensityTowardHighGradientLayers) {
  EngineHarness h(0.9, "random", /*redistribute=*/true, 31);
  // Layer 0 gets huge gradients, the rest tiny ones.
  for (std::size_t round = 1; round <= 15; ++round) {
    for (std::size_t i = 0; i < h.smodel.num_layers(); ++i) {
      auto& g = h.smodel.layer(i).param().grad();
      util::Rng r(round * 10 + i);
      tensor::fill_normal(g, r, 0.0f, i == 0 ? 10.0f : 0.01f);
    }
    h.engine->force_update(round * 10, 0.1);
  }
  const double d0 = h.smodel.layer(0).density();
  const double d1 = h.smodel.layer(1).density();
  EXPECT_GT(d0, d1);
}

TEST(Engine, MomentumResetOnTopologyChange) {
  EngineHarness h(0.9, "random");
  // Build momentum everywhere.
  for (auto& layer : h.smodel.layers()) layer.param().grad().fill(1.0f);
  h.optimizer.step();
  // Snapshot values of weights that are about to be dropped: magnitude drop
  // picks smallest |w| — force one active weight to be tiny.
  auto& layer0 = h.smodel.layer(0);
  const auto active = layer0.mask().active_indices();
  const std::size_t victim = active[0];
  for (const auto idx : active) layer0.param().value[idx] = 1.0f;
  layer0.param().value[victim] = 1e-6f;

  h.fill_random_grads(8);
  h.engine->force_update(10, 0.1);
  EXPECT_FALSE(layer0.mask().is_active(victim));
  EXPECT_EQ(layer0.param().value[victim], 0.0f);
  // With gradient zero and momentum reset, a further step must not move it.
  for (auto& layer : h.smodel.layers()) layer.param().grad().fill(0.0f);
  h.smodel.apply_masks_to_grads();
  h.optimizer.step();
  EXPECT_EQ(layer0.param().value[victim], 0.0f);
}

TEST(Engine, RequiresPolicies) {
  EngineHarness h(0.9, "dst-ee");
  methods::DstEngineConfig cfg;
  cfg.schedule.delta_t = 10;
  cfg.schedule.total_iterations = 100;
  cfg.grow = std::make_unique<methods::RandomGrow>();
  // missing drop policy
  EXPECT_THROW(methods::DstEngine(h.smodel, h.optimizer, std::move(cfg),
                                  util::Rng(1)),
               util::CheckError);
}

TEST(Engine, ObserverSeesEveryLayerWithConsistentSets) {
  EngineHarness h(0.9, "dst-ee");
  std::vector<std::size_t> seen_layers;
  h.engine->set_observer([&](const methods::UpdateObservation& obs) {
    seen_layers.push_back(obs.layer_index);
    EXPECT_EQ(obs.round, 1u);
    EXPECT_EQ(obs.iteration, 10u);
    EXPECT_EQ(obs.drops.size(), obs.grows.size());
    EXPECT_EQ(obs.scores.shape(), obs.dense_grad.shape());
    // Drops were active, grows were inactive, under the pre-update mask —
    // by the time the observer fires the mask is still pre-update.
    const auto& layer = h.smodel.layer(obs.layer_index);
    for (const auto d : obs.drops) EXPECT_TRUE(layer.mask().is_active(d));
    for (const auto g : obs.grows) EXPECT_FALSE(layer.mask().is_active(g));
  });
  h.fill_random_grads(77);
  h.engine->force_update(10, 0.1);
  ASSERT_EQ(seen_layers.size(), h.smodel.num_layers());
  for (std::size_t i = 0; i < seen_layers.size(); ++i) {
    EXPECT_EQ(seen_layers[i], i);
  }
}

TEST(Engine, ObserverCanBeReplacedAndCleared) {
  EngineHarness h(0.9, "random");
  int calls_a = 0, calls_b = 0;
  h.engine->set_observer(
      [&](const methods::UpdateObservation&) { ++calls_a; });
  h.fill_random_grads(1);
  h.engine->force_update(10, 0.1);
  h.engine->set_observer(
      [&](const methods::UpdateObservation&) { ++calls_b; });
  h.fill_random_grads(2);
  h.engine->force_update(20, 0.1);
  EXPECT_EQ(calls_a, static_cast<int>(h.smodel.num_layers()));
  EXPECT_EQ(calls_b, static_cast<int>(h.smodel.num_layers()));
}

TEST(Engine, UpdateStatsRecordIterationAndRound) {
  EngineHarness h(0.9, "dst-ee");
  h.fill_random_grads(9);
  h.engine->force_update(40, 0.1);
  h.fill_random_grads(10);
  h.engine->force_update(50, 0.1);
  const auto& rounds = h.engine->log().rounds();
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].round, 1u);
  EXPECT_EQ(rounds[0].iteration, 40u);
  EXPECT_EQ(rounds[1].round, 2u);
  EXPECT_EQ(rounds[1].iteration, 50u);
}

}  // namespace
}  // namespace dstee
