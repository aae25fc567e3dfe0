// Property-based tests: randomized sweeps over the library's core
// invariants. Each property is checked across a grid of random
// configurations rather than hand-picked cases.
#include <gtest/gtest.h>

#include <memory>

#include "methods/drop_policy.hpp"
#include "methods/dst_engine.hpp"
#include "methods/grow_policy.hpp"
#include "models/mlp.hpp"
#include "optim/lr_schedule.hpp"
#include "optim/optimizer.hpp"
#include "sparse/csr.hpp"
#include "sparse/distribution.hpp"
#include "sparse/sparse_model.hpp"
#include "sparse/stats.hpp"
#include "tensor/matmul.hpp"
#include "tensor/topk.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace dstee {
namespace {

using testing::random_tensor;

// ---- mask algebra ----------------------------------------------------------

class MaskProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaskProperties, RandomMaskInvariants) {
  util::Rng rng(GetParam());
  const std::size_t rows = 2 + rng.uniform_index(20);
  const std::size_t cols = 2 + rng.uniform_index(20);
  const std::size_t numel = rows * cols;
  const std::size_t active = rng.uniform_index(numel + 1);
  const auto mask =
      sparse::Mask::random(tensor::Shape({rows, cols}), active, rng);

  // Exact count, complementary partitions, density consistency.
  EXPECT_EQ(mask.num_active(), active);
  EXPECT_EQ(mask.active_indices().size() + mask.inactive_indices().size(),
            numel);
  EXPECT_NEAR(mask.density(),
              static_cast<double>(active) / static_cast<double>(numel),
              1e-12);
  // apply_to is idempotent.
  auto t = random_tensor(tensor::Shape({rows, cols}), GetParam() + 1);
  mask.apply_to(t);
  auto t2 = t;
  mask.apply_to(t2);
  EXPECT_TRUE(t.equals(t2));
  // Self-distance zero; distance symmetric.
  const auto other =
      sparse::Mask::random(tensor::Shape({rows, cols}), active, rng);
  EXPECT_EQ(mask.hamming_distance(mask), 0u);
  EXPECT_EQ(mask.hamming_distance(other), other.hamming_distance(mask));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskProperties,
                         ::testing::Range<std::uint64_t>(1, 17));

// ---- ERK distribution ------------------------------------------------------

class ErkProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ErkProperties, DensitiesValidAndBudgetExact) {
  util::Rng rng(GetParam() * 31);
  // Random plausible layer stack.
  std::vector<tensor::Shape> shapes;
  const std::size_t layers = 2 + rng.uniform_index(6);
  for (std::size_t i = 0; i < layers; ++i) {
    if (rng.bernoulli(0.5)) {
      shapes.push_back(tensor::Shape({8 + rng.uniform_index(64),
                                      8 + rng.uniform_index(64)}));
    } else {
      shapes.push_back(tensor::Shape({4 + rng.uniform_index(32),
                                      4 + rng.uniform_index(32), 3, 3}));
    }
  }
  const double sparsity = rng.uniform(0.3, 0.99);
  for (const auto kind :
       {sparse::DistributionKind::kUniform, sparse::DistributionKind::kEr,
        sparse::DistributionKind::kErk}) {
    const auto densities = sparse::layer_densities(shapes, sparsity, kind);
    for (const double d : densities) {
      EXPECT_GE(d, 0.0);
      EXPECT_LE(d, 1.0);
    }
    const auto counts = sparse::layer_active_counts(shapes, sparsity, kind);
    std::size_t total = 0, active = 0;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      total += shapes[i].numel();
      active += counts[i];
      EXPECT_GE(counts[i], 1u);
      EXPECT_LE(counts[i], shapes[i].numel());
    }
    const auto target = static_cast<std::size_t>(
        std::llround((1.0 - sparsity) * static_cast<double>(total)));
    EXPECT_EQ(active, target) << sparse::to_string(kind);
  }
}

TEST_P(ErkProperties, DensityMonotoneInSparsity) {
  util::Rng rng(GetParam() * 77);
  const std::vector<tensor::Shape> shapes{
      tensor::Shape({32, 16, 3, 3}), tensor::Shape({64, 32, 3, 3}),
      tensor::Shape({10, 64})};
  const double s_low = rng.uniform(0.3, 0.6);
  const double s_high = rng.uniform(0.7, 0.98);
  const auto low =
      sparse::layer_active_counts(shapes, s_low, sparse::DistributionKind::kErk);
  const auto high = sparse::layer_active_counts(
      shapes, s_high, sparse::DistributionKind::kErk);
  std::size_t low_total = 0, high_total = 0;
  for (const auto c : low) low_total += c;
  for (const auto c : high) high_total += c;
  EXPECT_GT(low_total, high_total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ErkProperties,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- top-k -----------------------------------------------------------------

class TopKProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TopKProperties, SelectionDominatesComplement) {
  util::Rng rng(GetParam() * 13);
  const std::size_t n = 10 + rng.uniform_index(500);
  const std::size_t k = 1 + rng.uniform_index(n);
  const auto values = random_tensor(tensor::Shape({n}), GetParam() * 13 + 1);
  const auto top = tensor::topk_indices(values, k);
  EXPECT_EQ(top.size(), k);
  // min of selected >= max of unselected.
  std::vector<bool> chosen(n, false);
  float min_sel = std::numeric_limits<float>::infinity();
  for (const auto i : top) {
    chosen[i] = true;
    min_sel = std::min(min_sel, values[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!chosen[i]) {
      EXPECT_LE(values[i], min_sel);
    }
  }
  // bottom-k is top-k of the negated tensor.
  const auto bottom = tensor::bottomk_indices(values, k);
  auto negated = values;
  for (std::size_t i = 0; i < n; ++i) negated[i] = -negated[i];
  const auto top_neg = tensor::topk_indices(negated, k);
  EXPECT_EQ(bottom, top_neg);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKProperties,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---- CSR round trips --------------------------------------------------------

class CsrProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrProperties, RoundTripAndMatvecFuzz) {
  util::Rng rng(GetParam() * 101);
  const std::size_t rows = 1 + rng.uniform_index(40);
  const std::size_t cols = 1 + rng.uniform_index(40);
  auto dense = random_tensor(tensor::Shape({rows, cols}), GetParam());
  const double density = rng.uniform(0.0, 1.0);
  for (std::size_t i = 0; i < dense.numel(); ++i) {
    if (!rng.bernoulli(density)) dense[i] = 0.0f;
  }
  const auto csr = sparse::CsrMatrix::from_dense(dense);
  EXPECT_TRUE(csr.to_dense().equals(dense));
  const auto x = random_tensor(tensor::Shape({cols}), GetParam() + 5);
  const auto y = csr.matvec(x);
  const auto y_ref =
      tensor::matmul(dense, x.reshaped(tensor::Shape({cols, 1})));
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_NEAR(y[r], y_ref[r], 1e-3f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrProperties,
                         ::testing::Range<std::uint64_t>(1, 17));

// ---- engine invariants under random configurations --------------------------

class EngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzz, InvariantsHoldUnderRandomConfig) {
  util::Rng cfg_rng(GetParam() * 991);
  models::MlpConfig mcfg;
  mcfg.in_features = 8 + cfg_rng.uniform_index(24);
  mcfg.hidden = {8 + cfg_rng.uniform_index(48),
                 8 + cfg_rng.uniform_index(48)};
  mcfg.out_features = 2 + cfg_rng.uniform_index(8);
  util::Rng rng(GetParam());
  models::Mlp model(mcfg, rng);
  const double sparsity = cfg_rng.uniform(0.3, 0.97);
  const auto dist = static_cast<sparse::DistributionKind>(
      cfg_rng.uniform_index(3));
  sparse::SparseModel smodel(model, sparsity, dist, rng);
  optim::Sgd::Config sgd_cfg;
  optim::Sgd optimizer(model.parameters(), sgd_cfg);

  methods::DstEngineConfig ecfg;
  ecfg.schedule.delta_t = 1 + cfg_rng.uniform_index(20);
  ecfg.schedule.total_iterations = 10000;
  ecfg.schedule.stop_fraction = 1.0;
  ecfg.schedule.initial_drop_fraction = cfg_rng.uniform(0.05, 0.6);
  ecfg.drop = std::make_unique<methods::MagnitudeDrop>();
  methods::DstEeGrow::Config ee;
  ee.c = cfg_rng.uniform(1e-5, 1e-1);
  ee.eps = cfg_rng.uniform(1e-4, 1.0);
  ecfg.grow = std::make_unique<methods::DstEeGrow>(ee);
  ecfg.redistribute_across_layers = cfg_rng.bernoulli(0.3);
  methods::DstEngine engine(smodel, optimizer, std::move(ecfg),
                            rng.fork("engine"));

  const std::size_t active_before = smodel.total_active();
  double prev_r = engine.exploration().exploration_rate();
  for (std::size_t round = 1; round <= 8; ++round) {
    util::Rng grad_rng(round * 7 + GetParam());
    for (auto& layer : smodel.layers()) {
      tensor::fill_normal(layer.param().grad(), grad_rng, 0.0f, 1.0f);
    }
    engine.force_update(round * 10, 0.1);
    // P1: global active count preserved.
    EXPECT_EQ(smodel.total_active(), active_before);
    // P2: binary masks, masked weights zero, counters integral.
    EXPECT_EQ(sparse::validate_invariants(smodel), "");
    // P3: exploration rate non-decreasing.
    const double r = engine.exploration().exploration_rate();
    EXPECT_GE(r, prev_r - 1e-12);
    prev_r = r;
    // P4: drops == grows each round.
    const auto& stats = engine.log().rounds().back();
    EXPECT_EQ(stats.dropped, stats.grown);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- LR schedule properties --------------------------------------------------

class ScheduleProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScheduleProperties, CosineBoundedAndMonotone) {
  util::Rng rng(GetParam() * 7);
  const double base = rng.uniform(1e-4, 1.0);
  const std::size_t total = 10 + rng.uniform_index(10000);
  const double floor = base * rng.uniform(0.0, 0.5);
  optim::CosineAnnealingLr sched(base, total, floor);
  double prev = sched.lr_at(0);
  EXPECT_NEAR(prev, base, 1e-12);
  for (std::size_t t = 1; t <= total; t += std::max<std::size_t>(1, total / 37)) {
    const double lr = sched.lr_at(t);
    EXPECT_LE(lr, prev + 1e-12);
    EXPECT_GE(lr, floor - 1e-12);
    prev = lr;
  }
  EXPECT_NEAR(sched.lr_at(total), floor, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleProperties,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace dstee
