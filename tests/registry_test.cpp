// ModelRegistry tests: multi-tenant serving, RCU hot swap under load
// (zero dropped requests, outputs from exactly one version), sparse
// delta end-to-end, admission control, manual scaling and the pure
// autoscaler policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "models/mlp.hpp"
#include "models/resnet.hpp"
#include "nn/losses.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "optim/optimizer.hpp"
#include "serve/compiled_net.hpp"
#include "serve/delta.hpp"
#include "serve/registry.hpp"
#include "sparse/sparse_model.hpp"
#include "test_helpers.hpp"
#include "train/checkpoint.hpp"
#include "util/check.hpp"

namespace dstee {
namespace {

using testing::random_tensor;

models::MlpConfig reg_cfg() {
  models::MlpConfig cfg;
  cfg.in_features = 12;
  cfg.hidden = {24, 16};
  cfg.out_features = 5;
  return cfg;
}

/// A model + sparse state, a pure function of the seed: build it twice
/// and you get bit-identical twins — the property the hot-swap tests use
/// to construct deltas and expected outputs out-of-band.
struct SeededModel {
  explicit SeededModel(std::uint64_t seed)
      : rng(seed), model(reg_cfg(), rng),
        state(model, 0.9, sparse::DistributionKind::kErk, rng) {
    model.set_training(false);
  }

  /// Transfers ownership of a freshly built twin into the registry.
  static void add_to(serve::ModelRegistry& registry, const std::string& name,
                     std::uint64_t seed, serve::ModelOptions options = {}) {
    util::Rng rng(seed);
    auto module = std::make_unique<models::Mlp>(reg_cfg(), rng);
    auto state = std::make_unique<sparse::SparseModel>(
        *module, 0.9, sparse::DistributionKind::kErk, rng);
    module->set_training(false);
    registry.add_model(name, std::move(module), std::move(state),
                       std::move(options));
  }

  util::Rng rng;
  models::Mlp model;
  sparse::SparseModel state;
};

/// One faked DST step on the first `layers` layers (default: every
/// layer): flip a mask position each way and jitter a couple of
/// surviving values.
void perturb(sparse::SparseModel& state,
             std::size_t layers = static_cast<std::size_t>(-1)) {
  for (std::size_t l = 0; l < std::min(layers, state.num_layers()); ++l) {
    sparse::MaskedParameter& layer = state.layer(l);
    const std::vector<std::size_t> active = layer.mask().active_indices();
    const std::vector<std::size_t> inactive = layer.mask().inactive_indices();
    ASSERT_GE(active.size(), 3u);
    ASSERT_GE(inactive.size(), 1u);
    layer.mask().deactivate(active[0]);
    layer.mask().activate(inactive[0]);
    layer.param().value[inactive[0]] = 0.125f;
    layer.param().value[active[1]] += 0.25f;
    layer.param().value[active[2]] -= 0.125f;
    layer.apply_mask_to_value();
  }
}

/// The delta from seed `seed`'s state to its perturbed successor.
serve::CheckpointDelta step_delta(std::uint64_t seed) {
  SeededModel base(seed);
  SeededModel next(seed);
  perturb(next.state);
  return serve::make_delta(base.model, &base.state, next.model,
                           &next.state);
}

/// What the model of seed `seed` (optionally perturbed) answers for
/// `sample`, as the rank-1 row the server hands back.
tensor::Tensor expected_row(std::uint64_t seed, const tensor::Tensor& sample,
                            bool perturbed) {
  SeededModel m(seed);
  if (perturbed) perturb(m.state);
  const auto net = serve::CompiledNet::compile(m.model, &m.state);
  const tensor::Tensor out =
      net.forward(sample.reshaped(tensor::Shape({1, 12})));
  return out.reshaped(tensor::Shape({out.numel()}));
}

TEST(Registry, ServesTwoModelsTheirOwnAnswers) {
  serve::ModelRegistry registry;
  SeededModel::add_to(registry, "a", 5);
  SeededModel::add_to(registry, "b", 6);
  EXPECT_EQ(registry.num_models(), 2u);
  EXPECT_TRUE(registry.has_model("a"));
  EXPECT_FALSE(registry.has_model("c"));

  const auto x = random_tensor(tensor::Shape({12}), 7);
  const tensor::Tensor got_a = registry.submit("a", x).get();
  const tensor::Tensor got_b = registry.submit("b", x).get();
  EXPECT_TRUE(got_a.equals(expected_row(5, x, false)));
  EXPECT_TRUE(got_b.equals(expected_row(6, x, false)));
  EXPECT_FALSE(got_a.equals(got_b));
  registry.shutdown();
}

TEST(Registry, UnknownAndDuplicateNamesThrow) {
  serve::ModelRegistry registry;
  SeededModel::add_to(registry, "a", 5);
  EXPECT_THROW(registry.submit("nope", random_tensor(tensor::Shape({12}), 1)),
               util::CheckError);
  EXPECT_THROW(registry.stats("nope"), util::CheckError);
  EXPECT_THROW(SeededModel::add_to(registry, "a", 9), util::CheckError);
  util::Rng rng(1);
  EXPECT_THROW(registry.add_model(
                   "", std::make_unique<models::Mlp>(reg_cfg(), rng), nullptr),
               util::CheckError);
}

TEST(Registry, HotSwapUnderLoadDropsNothingAndServesExactlyOneVersion) {
  // The acceptance test for zero-downtime swap: concurrent submitters
  // hammer one model with a fixed sample while the main thread applies a
  // sparse delta. EVERY submitted request must complete, and every
  // answer must be bit-identical to the output of exactly one of the two
  // versions — never a blend, never an error.
  constexpr std::uint64_t kSeed = 21;
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kWarmup = 5;    // per client, before the swap
  constexpr std::size_t kAfter = 40;    // per client, after swap starts

  serve::ModelOptions mopts;
  mopts.server.num_threads = 2;
  mopts.server.num_shards = 2;
  mopts.server.max_batch = 8;
  mopts.server.max_delay_ms = 0.2;
  serve::ModelRegistry registry;
  SeededModel::add_to(registry, "m", kSeed, mopts);

  const auto x = random_tensor(tensor::Shape({12}), 9);
  const tensor::Tensor v0 = expected_row(kSeed, x, false);
  const tensor::Tensor v1 = expected_row(kSeed, x, true);
  ASSERT_FALSE(v0.equals(v1));  // the step must actually move the output

  std::atomic<std::size_t> v0_seen{0}, v1_seen{0}, other_seen{0};
  std::atomic<std::size_t> completed{0};
  const auto classify = [&](const tensor::Tensor& row) {
    completed.fetch_add(1);
    if (row.equals(v0)) {
      v0_seen.fetch_add(1);
    } else if (row.equals(v1)) {
      v1_seen.fetch_add(1);
    } else {
      other_seen.fetch_add(1);
    }
  };

  std::atomic<std::size_t> warmed{0};
  std::atomic<bool> swapped{false};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (std::size_t i = 0; i < kWarmup; ++i) {
        classify(registry.submit("m", x).get());
      }
      warmed.fetch_add(1);
      while (!swapped.load()) std::this_thread::yield();
      for (std::size_t i = 0; i < kAfter; ++i) {
        classify(registry.submit("m", x).get());
      }
    });
  }
  while (warmed.load() < kClients) std::this_thread::yield();
  const serve::SwapReport report =
      registry.apply_delta("m", step_delta(kSeed));
  swapped.store(true);
  for (auto& t : clients) t.join();
  registry.shutdown();

  EXPECT_FALSE(report.full_recompile);
  EXPECT_EQ(report.patched_weight_nodes, 3u);  // every layer stepped
  EXPECT_EQ(report.swap_epoch, 1u);
  EXPECT_EQ(completed.load(), kClients * (kWarmup + kAfter));
  EXPECT_EQ(other_seen.load(), 0u);  // no blended / torn outputs, ever
  EXPECT_GE(v0_seen.load(), kClients * kWarmup);  // pre-swap answers
  EXPECT_GE(v1_seen.load(), kClients * kAfter);   // post-swap answers
  const serve::StatsSnapshot s = registry.stats("m");
  EXPECT_EQ(s.requests, completed.load());
  EXPECT_EQ(s.swap_count, 1u);
}

TEST(Registry, DeltaSwapUpdatesStateHashAndAnswers) {
  constexpr std::uint64_t kSeed = 33;
  serve::ModelRegistry registry;
  SeededModel::add_to(registry, "m", kSeed);

  const serve::CheckpointDelta delta = step_delta(kSeed);
  EXPECT_EQ(registry.state_hash("m"), delta.base_hash);

  const auto x = random_tensor(tensor::Shape({12}), 3);
  EXPECT_TRUE(registry.submit("m", x).get().equals(
      expected_row(kSeed, x, false)));

  // A corrupt copy (one result-hash bit flipped) has the right base but
  // is rejected whole: the model, its hash and its replies stay put, so
  // the real delta still applies afterwards.
  serve::CheckpointDelta corrupt = delta;
  corrupt.result_hash ^= 1;
  EXPECT_THROW(registry.apply_delta("m", corrupt), util::CheckError);
  EXPECT_EQ(registry.state_hash("m"), delta.base_hash);
  EXPECT_TRUE(registry.submit("m", x).get().equals(
      expected_row(kSeed, x, false)));

  const serve::SwapReport report = registry.apply_delta("m", delta);
  EXPECT_FALSE(report.full_recompile);
  EXPECT_GT(report.patched_weight_nodes, 0u);
  EXPECT_EQ(report.scanned_weight_nodes, 0u);  // every node merged
  EXPECT_EQ(registry.state_hash("m"), delta.result_hash);
  EXPECT_TRUE(registry.submit("m", x).get().equals(
      expected_row(kSeed, x, true)));

  // The same delta cannot apply twice: the base moved.
  EXPECT_THROW(registry.apply_delta("m", delta), util::CheckError);
  registry.shutdown();
}

TEST(Registry, DeltaAfterSwapModelPatchesTheSwappedVersion) {
  // A delta's base is whatever version is being served — here the one a
  // full-checkpoint swap_model published, not the one add_model compiled.
  // The delta touches one layer only, so the patched version keeps the
  // other layers' matrices from its base: a stale base would show.
  constexpr std::uint64_t kSeedA = 41;
  constexpr std::uint64_t kSeedB = 42;
  const std::string path = "serve_ckpt/registry_swap_b.bin";
  SeededModel b(kSeedB);
  train::save_checkpoint(path, b.model, &b.state);
  SeededModel next(kSeedB);
  perturb(next.state, 1);
  const serve::CheckpointDelta delta =
      serve::make_delta(b.model, &b.state, next.model, &next.state);

  serve::ModelRegistry registry;
  serve::ModelOptions options;
  options.server.num_shards = 2;  // both shards serve the patched version
  SeededModel::add_to(registry, "m", kSeedA, options);
  registry.swap_model("m", path);
  EXPECT_EQ(registry.state_hash("m"), delta.base_hash);
  const serve::SwapReport report = registry.apply_delta("m", delta);
  EXPECT_FALSE(report.full_recompile);
  EXPECT_LT(report.patched_weight_nodes, report.total_weight_nodes);
  EXPECT_EQ(registry.state_hash("m"), delta.result_hash);

  // Replies match a fresh compile of the result; round-robin routing
  // sends the four requests to both shards.
  const auto x = random_tensor(tensor::Shape({12}), 4);
  const tensor::Tensor want =
      serve::CompiledNet::compile(next.model, &next.state)
          .forward(x.reshaped(tensor::Shape({1, 12})))
          .reshaped(tensor::Shape({5}));
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(registry.submit("m", x).get().equals(want)) << i;
  }
  registry.shutdown();
}

TEST(Registry, RejectedSwapModelLeavesTheModelAsItWas) {
  // A checkpoint cut at two thirds: load_checkpoint writes the records
  // before the cut, then throws. The model must come back as it was, so
  // the hash, the replies and a delta built against the pre-swap state
  // all still match the version being served.
  constexpr std::uint64_t kSeedA = 45;
  constexpr std::uint64_t kSeedB = 46;
  const std::string full = "serve_ckpt/registry_swap_cut_full.bin";
  const std::string cut = "serve_ckpt/registry_swap_cut.bin";
  SeededModel b(kSeedB);
  train::save_checkpoint(full, b.model, &b.state);
  {
    std::ifstream in(full, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::ofstream out(cut, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() * 2 / 3));
  }

  serve::ModelRegistry registry;
  SeededModel::add_to(registry, "m", kSeedA);
  const serve::CheckpointDelta delta = step_delta(kSeedA);
  ASSERT_EQ(registry.state_hash("m"), delta.base_hash);
  const auto x = random_tensor(tensor::Shape({12}), 9);

  EXPECT_THROW(registry.swap_model("m", cut), util::CheckError);
  EXPECT_EQ(registry.state_hash("m"), delta.base_hash);
  EXPECT_TRUE(registry.submit("m", x).get().equals(
      expected_row(kSeedA, x, false)));

  const serve::SwapReport report = registry.apply_delta("m", delta);
  EXPECT_FALSE(report.full_recompile);
  EXPECT_EQ(registry.state_hash("m"), delta.result_hash);
  EXPECT_TRUE(registry.submit("m", x).get().equals(
      expected_row(kSeedA, x, true)));
  registry.shutdown();
}

TEST(Registry, DeltaChainSkippingAVersionIsRejectedAndChangesNothing) {
  // Version k is the seed's model after k faked DST steps; deltas[k]
  // takes version k to version k + 1.
  constexpr std::uint64_t kSeed = 35;
  std::vector<serve::CheckpointDelta> deltas;
  for (int k = 0; k < 3; ++k) {
    SeededModel from(kSeed);
    SeededModel to(kSeed);
    for (int s = 0; s < k; ++s) perturb(from.state);
    for (int s = 0; s <= k; ++s) perturb(to.state);
    deltas.push_back(
        serve::make_delta(from.model, &from.state, to.model, &to.state));
  }
  const auto x = random_tensor(tensor::Shape({12}), 6);
  const auto answer = [&x](int version) {
    SeededModel m(kSeed);
    for (int s = 0; s < version; ++s) perturb(m.state);
    const auto net = serve::CompiledNet::compile(m.model, &m.state);
    const tensor::Tensor out =
        net.forward(x.reshaped(tensor::Shape({1, 12})));
    return out.reshaped(tensor::Shape({out.numel()}));
  };
  ASSERT_FALSE(answer(1).equals(answer(3)));

  serve::ModelRegistry registry;
  SeededModel::add_to(registry, "m", kSeed);
  registry.apply_delta("m", deltas[0]);
  ASSERT_EQ(registry.state_hash("m"), deltas[0].result_hash);

  // Delta 3 skips version 2: its base is not what is served, so it is
  // rejected and version 1 keeps serving.
  EXPECT_THROW(registry.apply_delta("m", deltas[2]), util::CheckError);
  EXPECT_EQ(registry.state_hash("m"), deltas[0].result_hash);
  EXPECT_TRUE(registry.submit("m", x).get().equals(answer(1)));

  // In order, the chain still applies.
  registry.apply_delta("m", deltas[1]);
  EXPECT_EQ(registry.state_hash("m"), deltas[1].result_hash);
  registry.apply_delta("m", deltas[2]);
  EXPECT_EQ(registry.state_hash("m"), deltas[2].result_hash);
  EXPECT_TRUE(registry.submit("m", x).get().equals(answer(3)));
  registry.shutdown();
}

TEST(Registry, AdmissionControlShedsBeyondQuota) {
  serve::ModelOptions mopts;
  mopts.server.num_threads = 1;
  mopts.server.max_batch = 64;
  mopts.server.max_delay_ms = 1000.0;  // the queue builds, nothing flushes
  mopts.server.fill_or_timeout = true;
  mopts.server.queue_quota = 4;
  serve::ModelRegistry registry;
  SeededModel::add_to(registry, "m", 5, mopts);

  std::vector<std::future<tensor::Tensor>> accepted;
  std::size_t shed = 0;
  for (int i = 0; i < 20; ++i) {
    auto f = registry.try_submit("m", random_tensor(tensor::Shape({12}), i));
    if (f) {
      accepted.push_back(std::move(*f));
    } else {
      ++shed;
    }
  }
  EXPECT_GE(shed, 1u);  // quota 4 cannot absorb a burst of 20
  for (auto& f : accepted) {
    EXPECT_EQ(f.get().numel(), 5u);  // everything accepted completes
  }
  registry.shutdown();
  const serve::StatsSnapshot s = registry.stats("m");
  EXPECT_EQ(s.shed_total, shed);
  EXPECT_EQ(s.requests + s.shed_total, 20u);  // no request vanished
}

TEST(Registry, ScaleModelClampsAndKeepsServing) {
  serve::ModelOptions mopts;
  mopts.server.num_shards = 1;
  mopts.server.max_shards = 3;
  serve::ModelRegistry registry;
  SeededModel::add_to(registry, "m", 5, mopts);
  EXPECT_EQ(registry.num_active_shards("m"), 1u);

  EXPECT_EQ(registry.scale_model("m", 2), 2u);
  EXPECT_EQ(registry.scale_model("m", 99), 3u);  // clamped to max_shards
  const auto x = random_tensor(tensor::Shape({12}), 4);
  EXPECT_TRUE(registry.submit("m", x).get().equals(
      expected_row(5, x, false)));  // grown shards serve the same version
  EXPECT_EQ(registry.scale_model("m", 0), 1u);  // clamped to one
  EXPECT_TRUE(registry.submit("m", x).get().equals(
      expected_row(5, x, false)));
  registry.shutdown();
}

TEST(Registry, GrownShardServesTheVersionSwappedInWhileParked) {
  // Shards 1 and 2 are parked when the delta lands; once grown they must
  // serve the patched version, not the one the server started with.
  constexpr std::uint64_t kSeed = 37;
  serve::ModelOptions mopts;
  mopts.server.num_shards = 1;
  mopts.server.max_shards = 3;
  serve::ModelRegistry registry;
  SeededModel::add_to(registry, "m", kSeed, mopts);
  registry.apply_delta("m", step_delta(kSeed));
  EXPECT_EQ(registry.scale_model("m", 3), 3u);

  // One sample shape, so round-robin sends two of the six sequential
  // requests to each shard.
  const auto x = random_tensor(tensor::Shape({12}), 11);
  const tensor::Tensor want = expected_row(kSeed, x, true);
  ASSERT_FALSE(want.equals(expected_row(kSeed, x, false)));
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(registry.submit("m", x).get().equals(want)) << i;
  }
  EXPECT_EQ(registry.stats("m").swap_count, 1u);
  registry.shutdown();
}

TEST(Registry, AutoscaleTargetPolicy) {
  serve::AutoscalerConfig cfg;
  cfg.min_shards = 1;
  cfg.max_shards = 4;
  cfg.queue_high = 8.0;
  cfg.queue_low = 1.0;
  cfg.shrink_patience = 3;
  std::size_t streak = 0;

  // Hot queue grows by one and resets the cold streak.
  streak = 2;
  EXPECT_EQ(serve::autoscale_target(cfg, 2, 10.0, streak), 3u);
  EXPECT_EQ(streak, 0u);
  // Growth clamps at max_shards.
  EXPECT_EQ(serve::autoscale_target(cfg, 4, 50.0, streak), 4u);
  // Neutral load holds and resets the streak.
  streak = 2;
  EXPECT_EQ(serve::autoscale_target(cfg, 2, 4.0, streak), 2u);
  EXPECT_EQ(streak, 0u);
  // Cold polls shrink only after the patience threshold.
  EXPECT_EQ(serve::autoscale_target(cfg, 3, 0.0, streak), 3u);
  EXPECT_EQ(serve::autoscale_target(cfg, 3, 0.0, streak), 3u);
  EXPECT_EQ(serve::autoscale_target(cfg, 3, 0.0, streak), 2u);
  EXPECT_EQ(streak, 0u);
  // Shrink clamps at min_shards.
  streak = 2;
  EXPECT_EQ(serve::autoscale_target(cfg, 1, 0.0, streak), 1u);
}

TEST(Registry, AutoscalerGrowsUnderQueueBuildup) {
  serve::ModelOptions mopts;
  mopts.server.num_threads = 1;
  mopts.server.num_shards = 1;
  mopts.server.max_shards = 3;
  mopts.server.max_batch = 64;
  mopts.server.max_delay_ms = 50.0;  // slow flush: the queue builds
  mopts.server.fill_or_timeout = true;
  mopts.autoscaler.enabled = true;
  mopts.autoscaler.interval_ms = 5.0;
  mopts.autoscaler.queue_high = 2.0;
  // Never shrink back during the test: the watcher loop below must be able
  // to observe the grown state no matter how the polls interleave.
  mopts.autoscaler.shrink_patience = 100000;
  serve::ModelRegistry registry;
  SeededModel::add_to(registry, "m", 5, mopts);

  std::vector<std::future<tensor::Tensor>> futures;
  for (int i = 0; i < 48; ++i) {
    futures.push_back(
        registry.submit("m", random_tensor(tensor::Shape({12}), i)));
  }
  // The poller needs a couple of intervals to observe the depth and grow.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (registry.num_active_shards("m") < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(registry.num_active_shards("m"), 2u);
  for (auto& f : futures) EXPECT_EQ(f.get().numel(), 5u);
  registry.shutdown();
}

TEST(Registry, DefaultRegistriesCountApart) {
  // A default-constructed registry owns its metrics, so two of them in
  // one process, each serving "m", count only their own requests.
  serve::ModelRegistry first;
  serve::ModelRegistry second;
  SeededModel::add_to(first, "m", 5);
  SeededModel::add_to(second, "m", 5);
  const auto x = random_tensor(tensor::Shape({12}), 3);
  for (int i = 0; i < 3; ++i) first.submit("m", x).get();
  for (int i = 0; i < 5; ++i) second.submit("m", x).get();
  first.shutdown();
  second.shutdown();
  EXPECT_EQ(first.stats("m").requests, 3u);
  EXPECT_EQ(second.stats("m").requests, 5u);
}

TEST(Registry, ReAddedNameContinuesItsSeries) {
  // A model's stats are its name's series in the registry's metrics, so
  // a name removed and re-added counts on from where it stood.
  serve::ModelRegistry registry;
  SeededModel::add_to(registry, "m", 5);
  const auto x = random_tensor(tensor::Shape({12}), 3);
  for (int i = 0; i < 2; ++i) registry.submit("m", x).get();
  registry.remove_model("m");
  SeededModel::add_to(registry, "m", 6);
  registry.submit("m", x).get();
  registry.shutdown();
  EXPECT_EQ(registry.stats("m").requests, 3u);
}

TEST(Registry, RemoveModelEvictsCountsAndAllowsReAdd) {
  obs::MetricsRegistry metrics;
  serve::ModelRegistry registry(&metrics);
  SeededModel::add_to(registry, "a", 5);
  SeededModel::add_to(registry, "b", 6);
  const auto x = random_tensor(tensor::Shape({12}), 7);
  EXPECT_TRUE(
      registry.submit("a", x).get().equals(expected_row(5, x, false)));

  registry.remove_model("a");
  EXPECT_EQ(registry.num_models(), 1u);
  EXPECT_FALSE(registry.has_model("a"));
  EXPECT_EQ(registry.model_names(), std::vector<std::string>{"b"});
  EXPECT_THROW(registry.submit("a", x), util::CheckError);
  EXPECT_THROW(registry.stats("a"), util::CheckError);
  EXPECT_THROW(registry.remove_model("a"), util::CheckError);  // only once
  EXPECT_EQ(metrics.counter("dstee_model_evictions_total").value(), 1u);
  // The surviving tenant is untouched.
  EXPECT_TRUE(
      registry.submit("b", x).get().equals(expected_row(6, x, false)));

  // The evicted name is reusable: a fresh slot serves the NEW weights.
  SeededModel::add_to(registry, "a", 9);
  EXPECT_TRUE(registry.has_model("a"));
  EXPECT_EQ(registry.num_models(), 2u);
  EXPECT_TRUE(
      registry.submit("a", x).get().equals(expected_row(9, x, false)));
  registry.remove_model("a");
  EXPECT_EQ(metrics.counter("dstee_model_evictions_total").value(), 2u);
  registry.shutdown();
}

TEST(Registry, LookupAfterManyRemovalsServesTheLiveModel) {
  // A registry that rotates a model retires a slot per cycle; lookups
  // must still find the live model by name, whatever the history.
  obs::MetricsRegistry metrics;
  serve::ModelRegistry registry(&metrics);
  SeededModel::add_to(registry, "keep", 5);
  for (int cycle = 0; cycle < 1000; ++cycle) {
    SeededModel::add_to(registry, "tmp", 6);
    registry.remove_model("tmp");
  }
  EXPECT_EQ(registry.model_names(), std::vector<std::string>{"keep"});
  EXPECT_EQ(registry.num_models(), 1u);
  EXPECT_TRUE(registry.has_model("keep"));
  EXPECT_FALSE(registry.has_model("tmp"));
  const auto x = random_tensor(tensor::Shape({12}), 7);
  EXPECT_TRUE(
      registry.submit("keep", x).get().equals(expected_row(5, x, false)));
  const auto message = [&](const std::string& name) {
    try {
      registry.submit(name, x);
    } catch (const util::CheckError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(message("tmp").find("model 'tmp' was removed"),
            std::string::npos);
  EXPECT_NE(message("never").find("unknown model 'never'"),
            std::string::npos);
  EXPECT_EQ(metrics.counter("dstee_model_evictions_total").value(), 1000u);

  SeededModel::add_to(registry, "tmp", 9);
  EXPECT_EQ(registry.model_names(),
            (std::vector<std::string>{"keep", "tmp"}));
  EXPECT_EQ(registry.num_models(), 2u);
  EXPECT_TRUE(
      registry.submit("tmp", x).get().equals(expected_row(9, x, false)));
  registry.shutdown();
}

TEST(Registry, ReAddDuringTrySubmitKeepsEveryHeldSlotAlive) {
  // The main thread removes and re-adds "rot" while clients try_submit
  // to it and to "keep". Re-adding frees the retired slot once no call
  // holds it, so a client whose lookup found the old slot still submits
  // to a live object: every call returns or throws CheckError, every
  // accepted request gets its model's answer, and "keep" never fails.
  constexpr std::size_t kCycles = 200;
  constexpr std::size_t kClients = 3;
  obs::MetricsRegistry metrics;
  serve::ModelRegistry registry(&metrics);
  serve::ModelOptions mopts;
  mopts.server.num_threads = 1;
  mopts.server.max_delay_ms = 0.2;
  SeededModel::add_to(registry, "keep", 5, mopts);
  SeededModel::add_to(registry, "rot", 6, mopts);
  const auto x = random_tensor(tensor::Shape({12}), 21);
  const tensor::Tensor keep_row = expected_row(5, x, false);
  const tensor::Tensor rot_row = expected_row(6, x, false);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> keep_served{0}, rot_served{0}, wrong{0},
      keep_errors{0}, other_errors{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        for (const bool to_rot : {true, false}) {
          try {
            auto reply = registry.try_submit(to_rot ? "rot" : "keep", x);
            if (!reply) continue;  // shed
            const tensor::Tensor row = reply->get();
            if (!row.equals(to_rot ? rot_row : keep_row)) wrong.fetch_add(1);
            (to_rot ? rot_served : keep_served).fetch_add(1);
          } catch (const util::CheckError&) {
            // "rot" may be removed, or its server shut down, mid-call.
            if (!to_rot) keep_errors.fetch_add(1);
          } catch (...) {
            other_errors.fetch_add(1);
          }
        }
      }
    });
  }
  // Let the clients reach both models before the first removal.
  while (keep_served.load() + keep_errors.load() + other_errors.load() < 20) {
    std::this_thread::yield();
  }
  for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
    registry.remove_model("rot");
    SeededModel::add_to(registry, "rot", 6, mopts);
  }
  stop.store(true);
  for (auto& t : clients) t.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(keep_errors.load(), 0u);
  EXPECT_EQ(other_errors.load(), 0u);
  EXPECT_GT(rot_served.load(), 0u);
  EXPECT_EQ(metrics.counter("dstee_model_evictions_total").value(), kCycles);
  EXPECT_EQ(registry.model_names(),
            (std::vector<std::string>{"keep", "rot"}));
  EXPECT_TRUE(registry.submit("rot", x).get().equals(rot_row));
  registry.shutdown();
}

TEST(Registry, RemoveModelDrainsInFlightRequests) {
  // Eviction decommissions via server shutdown, which drains the queue:
  // every request submitted BEFORE remove_model completes with the right
  // answer — eviction sheds capacity, not accepted work.
  serve::ModelOptions mopts;
  mopts.server.max_delay_ms = 20.0;  // slow flush so a queue builds
  mopts.server.fill_or_timeout = true;
  mopts.server.max_batch = 4;
  serve::ModelRegistry registry;
  SeededModel::add_to(registry, "a", 5, mopts);
  const auto x = random_tensor(tensor::Shape({12}), 8);
  const auto expected = expected_row(5, x, false);
  std::vector<std::future<tensor::Tensor>> futures;
  for (int i = 0; i < 32; ++i) futures.push_back(registry.submit("a", x));
  registry.remove_model("a");
  for (auto& f : futures) EXPECT_TRUE(f.get().equals(expected));
  registry.shutdown();
}

TEST(Registry, ConcurrentRemoveModelEvictsOnce) {
  // Two threads remove the same model at once. Both may pass the name
  // lookup before either marks the slot removed; exactly one must evict
  // and the other must throw. The window is a few instructions wide, so
  // the race runs many times: each round the main thread re-adds the
  // model and releases both removers, which spin on the round counter.
  constexpr std::size_t kRounds = 2000;
  obs::MetricsRegistry metrics;
  serve::ModelRegistry registry(&metrics);
  serve::ModelOptions mopts;
  mopts.server.num_threads = 1;
  std::atomic<std::size_t> round{0}, finished{0}, evicted{0}, rejected{0};
  const auto remover = [&] {
    for (std::size_t r = 1; r <= kRounds; ++r) {
      while (round.load() < r) std::this_thread::yield();
      try {
        registry.remove_model("m");
        evicted.fetch_add(1);
      } catch (const util::CheckError&) {
        rejected.fetch_add(1);
      }
      finished.fetch_add(1);
    }
  };
  std::thread first(remover);
  std::thread second(remover);
  for (std::size_t r = 1; r <= kRounds; ++r) {
    SeededModel::add_to(registry, "m", 5, mopts);
    round.store(r);
    while (finished.load() < 2 * r) std::this_thread::yield();
  }
  first.join();
  second.join();
  // Every round evicts at least once, so these hold only when every
  // round evicted exactly once and refused the other call.
  EXPECT_EQ(evicted.load(), kRounds);
  EXPECT_EQ(rejected.load(), kRounds);
  EXPECT_FALSE(registry.has_model("m"));
  EXPECT_EQ(metrics.counter("dstee_model_evictions_total").value(), kRounds);
  registry.shutdown();
}

TEST(Registry, SwapModelRacingRemoveModelReturnsOrThrowsCheckError) {
  // One thread keeps swapping in a full checkpoint and client threads
  // keep submitting while the main thread removes the model. Every call
  // returns or throws util::CheckError, and every future a submit handed
  // out resolves to the answer of one of the two versions.
  constexpr std::uint64_t kSeedA = 51;
  constexpr std::uint64_t kSeedB = 52;
  constexpr std::size_t kClients = 3;
  const std::string path = "serve_ckpt/registry_swap_race.bin";
  {
    SeededModel b(kSeedB);
    train::save_checkpoint(path, b.model, &b.state);
  }
  obs::MetricsRegistry metrics;
  serve::ModelRegistry registry(&metrics);
  serve::ModelOptions mopts;
  mopts.server.num_threads = 1;
  mopts.server.num_shards = 2;
  mopts.server.max_delay_ms = 0.2;
  SeededModel::add_to(registry, "m", kSeedA, mopts);
  const auto x = random_tensor(tensor::Shape({12}), 13);
  const tensor::Tensor v_a = expected_row(kSeedA, x, false);
  const tensor::Tensor v_b = expected_row(kSeedB, x, false);

  std::atomic<std::size_t> swaps{0}, submitted{0}, other_errors{0};
  std::thread swapper([&] {
    for (;;) {
      try {
        registry.swap_model("m", path);
        swaps.fetch_add(1);
      } catch (const util::CheckError&) {
        return;  // the model was removed
      } catch (...) {
        other_errors.fetch_add(1);
        return;
      }
    }
  });
  std::vector<std::vector<std::future<tensor::Tensor>>> accepted(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (;;) {
        try {
          accepted[c].push_back(registry.submit("m", x));
          submitted.fetch_add(1);
        } catch (const util::CheckError&) {
          return;  // removed, or its server already shut down
        } catch (...) {
          other_errors.fetch_add(1);
          return;
        }
      }
    });
  }
  while (swaps.load() < 20 || submitted.load() < 2000) {
    std::this_thread::yield();
  }
  registry.remove_model("m");
  swapper.join();
  for (auto& t : clients) t.join();

  EXPECT_EQ(other_errors.load(), 0u);
  std::size_t futures = 0;
  for (auto& client : accepted) {
    for (auto& reply : client) {
      ++futures;
      ASSERT_EQ(reply.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);  // removal drained it
      const tensor::Tensor row = reply.get();
      EXPECT_TRUE(row.equals(v_a) || row.equals(v_b));
    }
  }
  EXPECT_GE(futures, 2000u);
  EXPECT_FALSE(registry.has_model("m"));
  EXPECT_THROW(registry.swap_model("m", path), util::CheckError);
  EXPECT_EQ(metrics.counter("dstee_model_evictions_total").value(), 1u);
  registry.shutdown();
}

/// A module and its 90% ERK sparse state, a pure function of the seed:
/// the registry MLP, or a batch-norm ResNet-18 (width 0.125, 8×8 input).
struct Twin {
  Twin(bool resnet, std::uint64_t seed) : rng(seed) {
    if (resnet) {
      models::ResNetConfig cfg;
      cfg.depth = 18;
      cfg.image_size = 8;
      cfg.num_classes = 5;
      cfg.width_multiplier = 0.125;
      model = std::make_unique<models::ResNet>(cfg, rng);
    } else {
      model = std::make_unique<models::Mlp>(reg_cfg(), rng);
    }
    state = std::make_unique<sparse::SparseModel>(
        *model, 0.9, sparse::DistributionKind::kErk, rng);
    model->set_training(false);
  }

  util::Rng rng;
  std::unique_ptr<nn::Sequential> model;
  std::unique_ptr<sparse::SparseModel> state;
};

/// What a slot serving `t` should hold: 4 bytes per parameter value,
/// buffer and mask element, no gradient, no counter, plus the weights of
/// an independently compiled plan of the same state.
double inference_bytes(Twin& t) {
  std::size_t floats = 0;
  for (const nn::Parameter* p : t.model->parameters()) {
    floats += p->value.numel();
  }
  for (const tensor::Tensor* b : t.model->state_buffers()) {
    floats += b->numel();
  }
  for (const auto& layer : t.state->layers()) floats += layer.mask().numel();
  return static_cast<double>(
      4 * floats +
      serve::CompiledNet::compile(*t.model, t.state.get()).total_weight_bytes());
}

TEST(Registry, ModelStateBytesHoldNoTrainingState) {
  for (const bool resnet : {false, true}) {
    SCOPED_TRACE(resnet ? "resnet18" : "mlp");
    const std::string dir =
        std::string("serve_ckpt/state_bytes_") + (resnet ? "resnet" : "mlp");
    obs::MetricsRegistry metrics;
    serve::ModelRegistry registry(&metrics);
    const auto gauge = [&](const std::string& name) {
      return metrics.gauge("dstee_model_state_bytes", name).value();
    };

    Twin base(resnet, 71);
    const double at_add = inference_bytes(base);
    Twin served(resnet, 71);
    registry.add_model("m", std::move(served.model), std::move(served.state));
    EXPECT_EQ(gauge("m"), at_add);

    // A delta swap: the patched plan weighs what a fresh compile does.
    // ERK keeps the ResNet's stem dense, so only layers with an inactive
    // position move.
    Twin next(resnet, 71);
    for (sparse::MaskedParameter& layer : next.state->layers()) {
      const std::vector<std::size_t> inactive =
          layer.mask().inactive_indices();
      if (inactive.empty()) continue;
      layer.mask().deactivate(layer.mask().active_indices()[0]);
      layer.mask().activate(inactive[0]);
      layer.param().value[inactive[0]] = 0.125f;
      layer.apply_mask_to_value();
    }
    const serve::SwapReport report = registry.apply_delta(
        "m", serve::make_delta(*base.model, base.state.get(), *next.model,
                               next.state.get()));
    EXPECT_FALSE(report.full_recompile);
    EXPECT_EQ(gauge("m"), inference_bytes(next));

    // A full-checkpoint swap: the counters it loads are released again.
    Twin other(resnet, 72);
    other.state->accumulate_counters();
    train::save_checkpoint(dir + "/other.bin", *other.model,
                           other.state.get());
    registry.swap_model("m", dir + "/other.bin");
    EXPECT_EQ(gauge("m"), inference_bytes(other));

    // A model trained one step before registration sheds its gradients
    // and counters too.
    Twin trained(resnet, 73);
    optim::Sgd::Config sgd;
    sgd.lr = 0.05;
    optim::Sgd opt(trained.model->parameters(), sgd);
    nn::SoftmaxCrossEntropy loss;
    trained.model->set_training(true);
    trained.model->zero_grad();
    const tensor::Shape batch =
        resnet ? tensor::Shape({2, 3, 8, 8}) : tensor::Shape({2, 12});
    loss.forward(trained.model->forward(random_tensor(batch, 74)),
                 std::vector<std::size_t>{0, 1});
    trained.model->backward(loss.backward());
    trained.state->apply_masks_to_grads();
    opt.step();
    trained.state->apply_masks_to_values();
    trained.model->set_training(false);
    for (const nn::Parameter* p : trained.model->parameters()) {
      ASSERT_TRUE(p->has_grad()) << p->name;
    }
    const double trained_bytes = inference_bytes(trained);
    registry.add_model("t", std::move(trained.model),
                       std::move(trained.state));
    EXPECT_EQ(gauge("t"), trained_bytes);

    registry.remove_model("m");
    EXPECT_EQ(gauge("m"), 0.0);
    EXPECT_EQ(gauge("t"), trained_bytes);
    registry.shutdown();
    std::filesystem::remove_all(dir);
  }
}

TEST(Registry, SwapModelKeepsCountersReleased) {
  constexpr std::uint64_t kSeedA = 81;
  constexpr std::uint64_t kSeedB = 82;
  const std::string dir = "serve_ckpt/keeps_counters_released";
  const std::string full = dir + "/b.bin";
  const std::string cut = dir + "/b_cut.bin";
  {
    SeededModel b(kSeedB);
    b.state.accumulate_counters();
    train::save_checkpoint(full, b.model, &b.state);
    std::ifstream in(full, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::ofstream out(cut, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 9));
  }
  // What a fresh compile of the checkpoint answers and hashes to.
  Twin fresh(false, kSeedA);
  train::load_checkpoint(full, *fresh.model, fresh.state.get());
  const std::uint64_t fresh_hash =
      serve::model_state_hash(*fresh.model, fresh.state.get());
  const auto x = random_tensor(tensor::Shape({12}), 83);
  const tensor::Tensor fresh_row =
      serve::CompiledNet::compile(*fresh.model, fresh.state.get())
          .forward(x.reshaped(tensor::Shape({1, 12})))
          .reshaped(tensor::Shape({5}));

  obs::MetricsRegistry metrics;
  serve::ModelRegistry registry(&metrics);
  SeededModel::add_to(registry, "m", kSeedA);
  const auto gauge = [&] {
    return metrics.gauge("dstee_model_state_bytes", "m").value();
  };

  registry.swap_model("m", full);
  EXPECT_EQ(registry.state_hash("m"), fresh_hash);
  EXPECT_TRUE(registry.submit("m", x).get().equals(fresh_row));
  EXPECT_EQ(gauge(), inference_bytes(fresh));  // no counter bytes

  // The cut file is rejected in its last counter record, after every
  // value and mask was written; the model comes back whole.
  EXPECT_THROW(registry.swap_model("m", cut), util::CheckError);
  EXPECT_EQ(registry.state_hash("m"), fresh_hash);
  EXPECT_TRUE(registry.submit("m", x).get().equals(fresh_row));
  EXPECT_EQ(gauge(), inference_bytes(fresh));
  registry.shutdown();
  std::filesystem::remove_all(dir);
}

/// The registry MLP plus a state buffer no plan node reads. The state
/// hash covers it, so a delta that moves it has no node to patch and the
/// registry recompiles the model.
class SpareBufferMlp : public models::Mlp {
 public:
  explicit SpareBufferMlp(util::Rng& rng) : models::Mlp(reg_cfg(), rng) {}

  void collect_state_buffers(std::vector<tensor::Tensor*>& out) override {
    models::Mlp::collect_state_buffers(out);
    out.push_back(&spare);
  }

  tensor::Tensor spare{tensor::Shape({3})};
};

/// A SpareBufferMlp and its 90% ERK state, a pure function of the seed.
struct SpareTwin {
  explicit SpareTwin(std::uint64_t seed)
      : rng(seed), model(std::make_unique<SpareBufferMlp>(rng)),
        state(std::make_unique<sparse::SparseModel>(
            *model, 0.9, sparse::DistributionKind::kErk, rng)) {
    model->set_training(false);
  }

  std::uint64_t hash() { return serve::model_state_hash(*model, state.get()); }

  util::Rng rng;
  std::unique_ptr<SpareBufferMlp> model;
  std::unique_ptr<sparse::SparseModel> state;
};

TEST(Registry, StateHashTracksTheModelThroughEveryPath) {
  // `twin` follows every operation the registry's model goes through,
  // applied directly; `next` is one step ahead to make each delta. After
  // each operation the hash the registry publishes is the twin's.
  constexpr std::uint64_t kSeed = 91;
  const std::string dir = "serve_ckpt/state_hash_tracks";
  SpareTwin twin(kSeed);
  SpareTwin next(kSeed);
  serve::ModelRegistry registry;
  {
    SpareTwin served(kSeed);
    registry.add_model("m", std::move(served.model), std::move(served.state));
  }
  EXPECT_EQ(registry.state_hash("m"), twin.hash());

  // Steps the registry and the twin through `delta`, which must apply.
  const auto step = [&](const serve::CheckpointDelta& delta,
                        bool full_recompile) {
    const serve::SwapReport report = registry.apply_delta("m", delta);
    EXPECT_EQ(report.full_recompile, full_recompile);
    EXPECT_EQ(report.state_hashes, 1u);
    serve::apply_delta(delta, *twin.model, twin.state.get());
    EXPECT_EQ(registry.state_hash("m"), twin.hash());
  };
  // The delta from the twin to `next` after one faked DST step.
  const auto dst_step = [&] {
    perturb(*next.state);
    return serve::make_delta(*twin.model, twin.state.get(), *next.model,
                             next.state.get());
  };

  for (int k = 0; k < 3; ++k) {
    SCOPED_TRACE(k);
    step(dst_step(), false);
  }

  // Rejected after writing (the result check fails): restored.
  serve::CheckpointDelta corrupt = dst_step();
  const serve::CheckpointDelta good = corrupt;
  corrupt.result_hash ^= 1;
  EXPECT_THROW(registry.apply_delta("m", corrupt), util::CheckError);
  EXPECT_EQ(registry.state_hash("m"), twin.hash());

  // Rejected before writing (the base is not the model's).
  serve::CheckpointDelta wrong_base = good;
  wrong_base.base_hash ^= 1;
  EXPECT_THROW(registry.apply_delta("m", wrong_base), util::CheckError);
  EXPECT_EQ(registry.state_hash("m"), twin.hash());
  step(good, false);

  // swap_model, accepted: the twin and `next` load the same checkpoint.
  SpareTwin other(kSeed + 1);
  other.model->spare[1] = 2.0f;
  train::save_checkpoint(dir + "/other.bin", *other.model, other.state.get());
  registry.swap_model("m", dir + "/other.bin");
  for (SpareTwin* t : {&twin, &next}) {
    train::load_checkpoint(dir + "/other.bin", *t->model, t->state.get());
  }
  EXPECT_EQ(registry.state_hash("m"), twin.hash());

  // swap_model, rejected part way: restored.
  {
    std::ifstream in(dir + "/other.bin", std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::ofstream out(dir + "/cut.bin", std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(registry.swap_model("m", dir + "/cut.bin"), util::CheckError);
  EXPECT_EQ(registry.state_hash("m"), twin.hash());

  // A delta that moves the spare buffer has no node to patch: the
  // registry recompiles, still hashing once, and serves the result.
  next.model->spare[0] = 1.5f;
  step(dst_step(), true);
  const auto x = random_tensor(tensor::Shape({12}), 92);
  EXPECT_TRUE(registry.submit("m", x).get().equals(
      serve::CompiledNet::compile(*twin.model, twin.state.get())
          .forward(x.reshaped(tensor::Shape({1, 12})))
          .reshaped(tensor::Shape({5}))));

  // The chain goes on from the recompiled version.
  step(dst_step(), false);
  registry.shutdown();
  std::filesystem::remove_all(dir);
}

TEST(Registry, SwapMetricsTileTheSwapAndCountRejections) {
  constexpr std::uint64_t kSeed = 95;
  constexpr std::size_t kDeltas = 4;
  obs::MetricsRegistry metrics;
  serve::ModelRegistry registry(&metrics);
  SeededModel::add_to(registry, "m", kSeed);
  SeededModel prev(kSeed);
  SeededModel next(kSeed);

  obs::trace().enable(1u << 30);  // on, but no request is sampled
  const std::int64_t since = obs::now_ns();
  for (std::size_t k = 0; k < kDeltas; ++k) {
    perturb(next.state);
    const serve::CheckpointDelta delta =
        serve::make_delta(prev.model, &prev.state, next.model, &next.state);
    perturb(prev.state);
    if (k == 1) {
      serve::CheckpointDelta corrupt = delta;
      corrupt.result_hash ^= 1;
      EXPECT_THROW(registry.apply_delta("m", corrupt), util::CheckError);
    }
    registry.apply_delta("m", delta);
  }
  obs::trace().disable();

  const obs::Histogram& total = metrics.histogram("dstee_swap_ms", "m");
  EXPECT_EQ(total.count(), kDeltas);
  EXPECT_GT(total.sum(), 0.0);
  double phases = 0.0;
  for (const char* phase : {"apply", "patch", "bind", "publish"}) {
    const obs::Histogram& h =
        metrics.histogram(std::string("dstee_swap_") + phase + "_ms", "m");
    EXPECT_EQ(h.count(), kDeltas) << phase;
    phases += h.sum();
  }
  EXPECT_NEAR(phases, total.sum(), 1e-9 * total.sum());
  EXPECT_EQ(metrics.counter("dstee_deltas_rejected_total", "m").value(), 1u);
  EXPECT_EQ(metrics.counter("dstee_swap_full_recompiles_total", "m").value(),
            0u);

  // Each swap left one `swap` span and four phases that tile it, on this
  // thread's lane.
  std::map<std::uint64_t, std::int64_t> swap_ns, phase_ns;
  std::map<std::uint64_t, std::size_t> phase_count;
  std::set<std::uint32_t> rings;
  for (const obs::TraceEvent& ev : obs::trace().drain()) {
    if (ev.ts_ns < since) continue;
    if (ev.kind == obs::SpanKind::kSwap) {
      swap_ns[ev.trace_id] = ev.dur_ns;
      rings.insert(ev.ring);
    } else if (ev.kind == obs::SpanKind::kSwapPhase) {
      phase_ns[ev.trace_id] += ev.dur_ns;
      ++phase_count[ev.trace_id];
      rings.insert(ev.ring);
    }
  }
  EXPECT_EQ(swap_ns.size(), kDeltas);
  EXPECT_EQ(rings.size(), 1u);
  for (const auto& [id, dur] : swap_ns) {
    EXPECT_EQ(phase_count[id], 4u) << id;
    EXPECT_EQ(phase_ns[id], dur) << id;
  }
  registry.shutdown();
}

}  // namespace
}  // namespace dstee
