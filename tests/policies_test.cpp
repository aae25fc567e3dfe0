// Drop/grow policy tests — the part of the algorithm each method defines.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "methods/drop_policy.hpp"
#include "methods/grow_policy.hpp"
#include "models/mlp.hpp"
#include "sparse/sparse_model.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace dstee {
namespace {

// Fixture: a single masked linear layer with controllable weights/grads.
class PolicyFixture : public ::testing::Test {
 protected:
  PolicyFixture()
      : rng_(99),
        model_(make_config(), rng_),
        smodel_(model_, 0.5, sparse::DistributionKind::kUniform, rng_) {}

  static models::MlpConfig make_config() {
    models::MlpConfig cfg;
    cfg.in_features = 8;
    cfg.hidden = {};
    cfg.out_features = 8;  // single 8x8 weight
    return cfg;
  }

  sparse::MaskedParameter& layer() { return smodel_.layer(0); }

  util::Rng rng_;
  models::Mlp model_;
  sparse::SparseModel smodel_;
};

TEST_F(PolicyFixture, MagnitudeDropPicksSmallestActive) {
  auto& p = layer().param();
  // Give active weights distinct magnitudes by index.
  const auto active = layer().mask().active_indices();
  for (std::size_t i = 0; i < active.size(); ++i) {
    p.value[active[i]] = 0.01f * static_cast<float>(i + 1);
  }
  methods::MagnitudeDrop drop;
  util::Rng r(1);
  methods::DropContext ctx{layer(), p.grad(), 0.1, r};
  const auto picked = drop.select(ctx, 3);
  ASSERT_EQ(picked.size(), 3u);
  // The three smallest-magnitude active weights are active[0..2].
  const std::set<std::size_t> expect{active[0], active[1], active[2]};
  for (const auto idx : picked) EXPECT_TRUE(expect.count(idx)) << idx;
}

TEST_F(PolicyFixture, MagnitudeDropNeverSelectsInactive) {
  methods::MagnitudeDrop drop;
  util::Rng r(2);
  methods::DropContext ctx{layer(), layer().param().grad(), 0.1, r};
  const auto picked = drop.select(ctx, 5);
  for (const auto idx : picked) {
    EXPECT_TRUE(layer().mask().is_active(idx));
  }
}

TEST_F(PolicyFixture, RandomDropSelectsActiveOnly) {
  methods::RandomDrop drop;
  util::Rng r(3);
  methods::DropContext ctx{layer(), layer().param().grad(), 0.1, r};
  const auto picked = drop.select(ctx, 10);
  EXPECT_EQ(picked.size(), 10u);
  std::set<std::size_t> unique(picked.begin(), picked.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const auto idx : picked) {
    EXPECT_TRUE(layer().mask().is_active(idx));
  }
}

TEST_F(PolicyFixture, RandomDropTooManyThrows) {
  methods::RandomDrop drop;
  util::Rng r(4);
  methods::DropContext ctx{layer(), layer().param().grad(), 0.1, r};
  EXPECT_THROW(drop.select(ctx, layer().num_active() + 1), util::CheckError);
}

TEST_F(PolicyFixture, MagnitudeGradientDropSparesHighGradientWeights) {
  auto& p = layer().param();
  const auto active = layer().mask().active_indices();
  ASSERT_GE(active.size(), 2u);
  // Two tiny weights; one has a huge gradient (MEST keeps it).
  for (const auto idx : active) p.value[idx] = 1.0f;
  p.value[active[0]] = 1e-4f;
  p.value[active[1]] = 1e-4f;
  p.grad().fill(0.0f);
  p.grad()[active[1]] = 10.0f;

  methods::MagnitudeGradientDrop drop(1.0);
  util::Rng r(5);
  methods::DropContext ctx{layer(), p.grad(), 0.1, r};
  const auto picked = drop.select(ctx, 1);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0], active[0]);  // the one WITHOUT gradient support
}

TEST_F(PolicyFixture, SignFlipDropPrefersFlippingWeights) {
  auto& p = layer().param();
  const auto active = layer().mask().active_indices();
  for (const auto idx : active) {
    p.value[idx] = 1.0f;
    p.grad()[idx] = 0.0f;
  }
  // active[0]: small weight, large positive gradient → next step flips sign.
  p.value[active[0]] = 0.01f;
  p.grad()[active[0]] = 1.0f;
  methods::SignFlipDrop drop;
  util::Rng r(6);
  methods::DropContext ctx{layer(), p.grad(), 0.1, r};
  const auto picked = drop.select(ctx, 1);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0], active[0]);
}

TEST_F(PolicyFixture, GradientGrowScoresAreAbsoluteGradients) {
  auto& p = layer().param();
  for (std::size_t i = 0; i < p.grad().numel(); ++i) {
    p.grad()[i] = (i % 2 == 0) ? -static_cast<float>(i) : static_cast<float>(i);
  }
  methods::GradientGrow grow;
  util::Rng r(7);
  methods::GrowContext ctx{layer(), 0, p.grad(), 100, r};
  const auto scores = grow.scores(ctx);
  for (std::size_t i = 0; i < scores.numel(); ++i) {
    EXPECT_EQ(scores[i], std::fabs(p.grad()[i]));
  }
}

TEST_F(PolicyFixture, RandomGrowScoresInUnitInterval) {
  methods::RandomGrow grow;
  util::Rng r(8);
  methods::GrowContext ctx{layer(), 0, layer().param().grad(), 100, r};
  const auto scores = grow.scores(ctx);
  for (std::size_t i = 0; i < scores.numel(); ++i) {
    EXPECT_GE(scores[i], 0.0f);
    EXPECT_LT(scores[i], 1.0f);
  }
}

TEST_F(PolicyFixture, DstEeBonusIsLargestForNeverActiveWeights) {
  auto& counter = layer().counter();
  counter.fill(0.0f);
  counter[0] = 10.0f;  // frequently active
  counter[1] = 1.0f;   // rarely active
  // counter[2] == 0    // never active
  methods::DstEeGrow::Config cfg;
  cfg.c = 1e-2;
  cfg.eps = 1e-3;
  methods::DstEeGrow grow(cfg);
  util::Rng r(9);
  layer().param().grad().fill(0.0f);  // isolate the exploration term
  methods::GrowContext ctx{layer(), 0, layer().param().grad(), 1000, r};
  const auto scores = grow.scores(ctx);
  EXPECT_GT(scores[2], scores[1]);
  EXPECT_GT(scores[1], scores[0]);
}

TEST_F(PolicyFixture, DstEeScoreIsExactlyEqOne) {
  // S = |g| + c·ln(t)/(N+ε) — verify elementwise against the formula.
  auto& p = layer().param();
  auto& counter = layer().counter();
  for (std::size_t i = 0; i < p.grad().numel(); ++i) {
    p.grad()[i] = 0.1f * static_cast<float>(i) - 1.0f;
    counter[i] = static_cast<float>(i % 5);
  }
  methods::DstEeGrow::Config cfg;
  cfg.c = 3e-3;
  cfg.eps = 1e-3;
  methods::DstEeGrow grow(cfg);
  util::Rng r(10);
  const std::size_t t = 512;
  methods::GrowContext ctx{layer(), 0, p.grad(), t, r};
  const auto scores = grow.scores(ctx);
  for (std::size_t i = 0; i < scores.numel(); ++i) {
    const double expect =
        std::fabs(p.grad()[i]) +
        cfg.c * std::log(static_cast<double>(t)) / (counter[i] + cfg.eps);
    EXPECT_NEAR(scores[i], expect, 1e-5);
  }
}

TEST_F(PolicyFixture, DstEeBonusGrowsWithTime) {
  layer().counter().fill(0.0f);
  layer().param().grad().fill(0.0f);
  methods::DstEeGrow::Config cfg;
  methods::DstEeGrow grow(cfg);
  util::Rng r(11);
  methods::GrowContext early{layer(), 0, layer().param().grad(), 10, r};
  methods::GrowContext late{layer(), 0, layer().param().grad(), 10000, r};
  EXPECT_LT(grow.scores(early)[0], grow.scores(late)[0]);
}

TEST_F(PolicyFixture, DstEeInvalidConfigThrows) {
  methods::DstEeGrow::Config cfg;
  cfg.eps = 0.0;
  EXPECT_THROW(methods::DstEeGrow{cfg}, util::CheckError);
  cfg.eps = 1e-3;
  cfg.c = -1.0;
  EXPECT_THROW(methods::DstEeGrow{cfg}, util::CheckError);
}

TEST_F(PolicyFixture, MomentumGrowSmoothsGradients) {
  methods::MomentumGrow grow(0.5);
  util::Rng r(12);
  auto& p = layer().param();
  p.grad().fill(1.0f);
  methods::GrowContext ctx{layer(), 0, p.grad(), 100, r};
  const auto s1 = grow.scores(ctx);   // ema = 0.5
  const auto s2 = grow.scores(ctx);   // ema = 0.75
  EXPECT_NEAR(s1[0], 0.5f, 1e-6);
  EXPECT_NEAR(s2[0], 0.75f, 1e-6);
}

TEST_F(PolicyFixture, MomentumGrowTracksLayersIndependently) {
  methods::MomentumGrow grow(0.0);  // no smoothing → score = |grad|
  util::Rng r(13);
  auto& p = layer().param();
  p.grad().fill(2.0f);
  methods::GrowContext ctx0{layer(), 0, p.grad(), 100, r};
  methods::GrowContext ctx5{layer(), 5, p.grad(), 100, r};
  EXPECT_NEAR(grow.scores(ctx0)[0], 2.0f, 1e-6);
  EXPECT_NEAR(grow.scores(ctx5)[0], 2.0f, 1e-6);
}

TEST_F(PolicyFixture, BlendedGrowEndpointsMatchParents) {
  auto& p = layer().param();
  for (std::size_t i = 0; i < p.grad().numel(); ++i) {
    p.grad()[i] = static_cast<float>(i);
  }
  util::Rng r(14);
  methods::BlendedGrow pure_gradient(1.0);
  methods::GrowContext ctx{layer(), 0, p.grad(), 100, r};
  const auto s = pure_gradient.scores(ctx);
  // λ=1: normalized |grad| — max index must be the max-|grad| index.
  std::size_t argmax = 0;
  for (std::size_t i = 1; i < s.numel(); ++i) {
    if (s[i] > s[argmax]) argmax = i;
  }
  EXPECT_EQ(argmax, p.grad().numel() - 1);
  EXPECT_THROW(methods::BlendedGrow{1.5}, util::CheckError);
}

}  // namespace
}  // namespace dstee
