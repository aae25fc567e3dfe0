// Serving-path tests: CompiledNet lowering (CSR SpMM, BN folding, dropout
// elision), the micro-batching InferenceServer (flush-on-full,
// flush-on-timeout, concurrency, shutdown semantics), the batcher's hold
// rule on a simulated clock and the checkpoint → CompiledNet round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "core/dst_ee.hpp"
#include "data/dataloader.hpp"
#include "data/synthetic_images.hpp"
#include "data/synthetic_tabular.hpp"
#include "methods/dst_engine.hpp"
#include "models/mlp.hpp"
#include "models/resnet.hpp"
#include "models/vgg.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/losses.hpp"
#include "nn/pooling.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "optim/optimizer.hpp"
#include "serve/compiled_net.hpp"
#include "serve/stats.hpp"
#include "serve/delta.hpp"
#include "serve/passes.hpp"
#include "serve/plan.hpp"
#include "serve/server.hpp"
#include "sparse/flops.hpp"
#include "sparse/sparse_model.hpp"
#include "tensor/init.hpp"
#include "test_helpers.hpp"
#include "train/checkpoint.hpp"
#include "util/check.hpp"

namespace dstee {
namespace {

using testing::random_tensor;

models::MlpConfig small_cfg(bool batch_norm = false, double dropout = 0.0) {
  models::MlpConfig cfg;
  cfg.in_features = 12;
  cfg.hidden = {24, 16};
  cfg.out_features = 5;
  cfg.batch_norm = batch_norm;
  cfg.dropout = dropout;
  return cfg;
}

/// Builds a sparse MLP, runs a few training-mode batches so batch-norm
/// running statistics move off their init, and switches to eval.
struct CompiledHarness {
  explicit CompiledHarness(double sparsity, bool batch_norm = false,
                           double dropout = 0.0, std::uint64_t seed = 3)
      : rng(seed),
        model(small_cfg(batch_norm, dropout), rng),
        smodel(model, sparsity, sparse::DistributionKind::kErk, rng) {
    for (int i = 0; i < 3; ++i) {
      model.forward(random_tensor(tensor::Shape({8, 12}), 100 + i));
    }
    model.set_training(false);
  }

  util::Rng rng;
  models::Mlp model;
  sparse::SparseModel smodel;
};

TEST(CompiledNet, MatchesDenseEvalForward) {
  CompiledHarness h(0.9);
  const auto net = serve::CompiledNet::compile(h.model, &h.smodel);
  const auto x = random_tensor(tensor::Shape({6, 12}), 7);
  EXPECT_TRUE(net.forward(x).allclose(h.model.forward(x), 1e-4f));
  EXPECT_EQ(net.total_nnz(), h.smodel.total_active());
  EXPECT_EQ(net.input_features(), 12u);
}

TEST(CompiledNet, MatchesDenseWithBatchNormAndDropout) {
  CompiledHarness h(0.8, /*batch_norm=*/true, /*dropout=*/0.25);
  const auto net = serve::CompiledNet::compile(h.model, &h.smodel);
  const auto x = random_tensor(tensor::Shape({5, 12}), 9);
  EXPECT_TRUE(net.forward(x).allclose(h.model.forward(x), 1e-4f));
  // Dropout layers disappear; BN folds into the preceding spmm, so the op
  // list is exactly linear+relu pairs plus the head: 3 spmm + 2 relu.
  EXPECT_EQ(net.num_elided(), 2u);
  EXPECT_EQ(net.num_ops(), 5u);
  EXPECT_EQ(net.num_sparse_ops(), 3u);
}

TEST(CompiledNet, StandaloneBatchNormLowersToScaleShift) {
  util::Rng rng(5);
  nn::Sequential seq;
  auto& bn = seq.emplace<nn::BatchNorm1d>(6);
  seq.emplace<nn::Tanh>();
  // Move running stats off init so the test is not trivially identity.
  seq.forward(random_tensor(tensor::Shape({16, 6}), 21));
  seq.set_training(false);
  (void)bn;

  const auto net = serve::CompiledNet::compile(seq);
  EXPECT_EQ(net.num_ops(), 2u);  // scale_shift + tanh, nothing folded
  const auto x = random_tensor(tensor::Shape({4, 6}), 22);
  EXPECT_TRUE(net.forward(x).allclose(seq.forward(x), 1e-4f));
}

TEST(CompiledNet, DenseFallbackWithoutSparseState) {
  CompiledHarness h(0.9);
  // No SparseModel passed: zeros in the masked weights still encode the
  // topology, so the compiled net is identical.
  const auto net = serve::CompiledNet::compile(h.model);
  const auto x = random_tensor(tensor::Shape({3, 12}), 11);
  EXPECT_TRUE(net.forward(x).allclose(h.model.forward(x), 1e-4f));
  EXPECT_LE(net.total_nnz(), h.smodel.total_active());
}

// nn/ and serve/ share the stateless kernels in src/kernels/, so there is
// no separate pooling/activation equivalence test pinning the two sides —
// the conv/VGG/ResNet end-to-end comparisons below cover composition.

/// A layer the compiler has no lowering for.
struct UnloweredModule final : nn::Module {
  tensor::Tensor forward(const tensor::Tensor& x) override { return x; }
  tensor::Tensor backward(const tensor::Tensor& g) override { return g; }
  std::string name() const override { return "unlowered_test_module"; }
};

TEST(CompiledNet, RejectsUnsupportedLayers) {
  nn::Sequential seq;
  seq.emplace<UnloweredModule>();
  seq.set_training(false);
  EXPECT_THROW(serve::CompiledNet::compile(seq), util::CheckError);
}

// --- conv lowering: CSR over im2col patches -----------------------------

/// Conv chains across stride/padding/bias/BN variants must reproduce the
/// eval-mode dense forward.
TEST(CompiledNet, ConvChainMatchesDenseEval) {
  struct Variant {
    std::size_t kernel, stride, padding;
    bool bias, batch_norm;
  };
  const Variant variants[] = {
      {3, 1, 1, false, false}, {3, 2, 0, true, false},
      {5, 2, 2, false, true},  {1, 1, 0, true, true},
  };
  for (const Variant& v : variants) {
    util::Rng rng(7 + v.kernel + v.stride);
    nn::Sequential seq;
    seq.emplace<nn::Conv2d>(3, 6, v.kernel, v.stride, v.padding, rng,
                            v.bias);
    if (v.batch_norm) seq.emplace<nn::BatchNorm2d>(6);
    seq.emplace<nn::ReLU>();
    seq.emplace<nn::Conv2d>(6, 4, 3, 1, 1, rng, v.bias);
    if (v.batch_norm) seq.emplace<nn::BatchNorm2d>(4);
    seq.emplace<nn::GlobalAvgPool>();
    // Move BN running stats off init before eval.
    seq.forward(random_tensor(tensor::Shape({6, 3, 11, 11}), 80));
    seq.set_training(false);

    const auto net = serve::CompiledNet::compile(seq);
    const auto x = random_tensor(tensor::Shape({3, 3, 11, 11}), 81);
    EXPECT_TRUE(net.forward(x).allclose(seq.forward(x), 1e-4f))
        << "k" << v.kernel << " s" << v.stride << " p" << v.padding
        << " bias=" << v.bias << " bn=" << v.batch_norm;
    // Eval-BN folds into the conv CSR: op count is unchanged by BN.
    EXPECT_EQ(net.num_ops(), 4u);
    EXPECT_EQ(net.num_sparse_ops(), 2u);
  }
}

TEST(CompiledNet, ConvIntraOpThreadsAreBitIdentical) {
  util::Rng rng(15);
  nn::Sequential seq;
  seq.emplace<nn::Conv2d>(3, 6, 3, 1, 1, rng);
  seq.emplace<nn::ReLU>();
  seq.emplace<nn::Conv2d>(6, 4, 3, 2, 1, rng);
  seq.set_training(false);

  const auto serial = serve::CompiledNet::compile(seq);
  serve::CompileOptions threaded_opts;
  threaded_opts.intra_op_threads = 3;
  const auto threaded = serve::CompiledNet::compile(seq, nullptr,
                                                    threaded_opts);
  // Image-parallel conv gives every output element exactly one writer, so
  // any thread count must produce identical bits (batch 7 does not divide
  // evenly across 3 workers on purpose).
  const auto x = random_tensor(tensor::Shape({7, 3, 9, 9}), 16);
  EXPECT_TRUE(threaded.forward(x).equals(serial.forward(x)));
}

TEST(CompiledNet, ConvMaskedTopologyDeploysFaithfully) {
  util::Rng rng(12);
  nn::Sequential seq;
  seq.emplace<nn::Conv2d>(3, 8, 3, 1, 1, rng);
  seq.emplace<nn::ReLU>();
  seq.emplace<nn::GlobalAvgPool>();
  seq.emplace<nn::Linear>(8, 5, rng);
  sparse::SparseModel smodel(seq, 0.8, sparse::DistributionKind::kErk, rng);
  seq.set_training(false);

  const auto net = serve::CompiledNet::compile(seq, &smodel);
  // Conv nnz now counts toward the model totals (not just Linear).
  EXPECT_EQ(net.total_nnz(), smodel.total_active());
  EXPECT_EQ(net.total_weights(), smodel.total_weights());
  const auto x = random_tensor(tensor::Shape({2, 3, 7, 7}), 13);
  EXPECT_TRUE(net.forward(x).allclose(seq.forward(x), 1e-4f));
}

TEST(CompiledNet, FlopsPerSampleCountsConvNnz) {
  util::Rng rng(19);
  nn::Sequential seq;
  seq.emplace<nn::Conv2d>(3, 8, 3, 1, 1, rng);
  sparse::SparseModel smodel(seq, 0.5, sparse::DistributionKind::kUniform,
                             rng);
  seq.set_training(false);
  const auto net = serve::CompiledNet::compile(seq, &smodel);

  // 6x6 input, k3 s1 p1 → 6x6 output positions; 2 FLOPs per stored weight
  // per position.
  const tensor::Shape sample({3, 6, 6});
  EXPECT_DOUBLE_EQ(net.flops_per_sample(sample),
                   sparse::conv_nnz_flops(net.total_nnz(), 6, 6));
  EXPECT_DOUBLE_EQ(net.dense_flops_per_sample(sample),
                   sparse::conv_nnz_flops(8 * 3 * 3 * 3, 6, 6));
  EXPECT_LT(net.flops_per_sample(sample),
            net.dense_flops_per_sample(sample));
}

TEST(CompiledNet, VggCompilesAndMatchesDenseEval) {
  models::VggConfig cfg;
  cfg.depth = 11;
  cfg.image_size = 8;
  cfg.num_classes = 5;
  cfg.width_multiplier = 0.08;  // tiny stages, full topology
  util::Rng rng(3);
  models::Vgg vgg(cfg, rng);
  sparse::SparseModel smodel(vgg, 0.9, sparse::DistributionKind::kErk, rng);
  vgg.forward(random_tensor(tensor::Shape({4, 3, 8, 8}), 90));
  vgg.set_training(false);

  const auto net = serve::CompiledNet::compile(vgg, &smodel);
  EXPECT_EQ(net.total_nnz(), smodel.total_active());
  EXPECT_EQ(net.num_residual_joins(), 0u);
  const auto x = random_tensor(tensor::Shape({3, 3, 8, 8}), 91);
  EXPECT_TRUE(net.forward(x).allclose(vgg.forward(x), 1e-4f));
}

// --- residual op-graph --------------------------------------------------

TEST(CompiledNet, ResNetCompilesAndMatchesDenseEval) {
  for (const int depth : {18, 50}) {
    models::ResNetConfig cfg;
    cfg.depth = depth;
    cfg.image_size = 8;
    cfg.num_classes = 4;
    cfg.width_multiplier = 0.07;
    util::Rng rng(4);
    models::ResNet resnet(cfg, rng);
    sparse::SparseModel smodel(resnet, 0.85, sparse::DistributionKind::kErk,
                               rng);
    resnet.forward(random_tensor(tensor::Shape({4, 3, 8, 8}), 92));
    resnet.set_training(false);

    const auto net = serve::CompiledNet::compile(resnet, &smodel);
    // One add+ReLU join per residual block: 8 blocks for depth 18, 16 for
    // depth 50 ({3,4,6,3} bottleneck).
    EXPECT_EQ(net.num_residual_joins(), depth == 18 ? 8u : 16u);
    EXPECT_EQ(net.total_nnz(), smodel.total_active());
    const auto x = random_tensor(tensor::Shape({2, 3, 8, 8}), 93);
    EXPECT_TRUE(net.forward(x).allclose(resnet.forward(x), 1e-4f))
        << "depth " << depth;
  }
}

TEST(ServeCheckpoint, ResNetRoundTripsThroughDisk) {
  const std::string path = "serve_ckpt/serve_resnet_roundtrip.bin";
  models::ResNetConfig cfg;
  cfg.depth = 18;
  cfg.image_size = 8;
  cfg.num_classes = 4;
  cfg.width_multiplier = 0.07;

  util::Rng rng(41);
  models::ResNet resnet(cfg, rng);
  sparse::SparseModel smodel(resnet, 0.85, sparse::DistributionKind::kErk,
                             rng);
  resnet.forward(random_tensor(tensor::Shape({4, 3, 8, 8}), 94));
  resnet.set_training(false);

  const auto in_memory = serve::CompiledNet::compile(resnet, &smodel);
  train::save_checkpoint(path, resnet, &smodel);

  // Fresh init, fresh topology — everything must come from the file,
  // including conv masks and BN running statistics.
  util::Rng rng2(77);
  models::ResNet loaded(cfg, rng2);
  sparse::SparseModel loaded_state(loaded, 0.85,
                                   sparse::DistributionKind::kErk, rng2);
  const auto from_disk =
      serve::CompiledNet::from_checkpoint(path, loaded, &loaded_state);

  EXPECT_EQ(from_disk.total_nnz(), in_memory.total_nnz());
  const auto x = random_tensor(tensor::Shape({3, 3, 8, 8}), 95);
  EXPECT_TRUE(from_disk.forward(x).allclose(in_memory.forward(x), 1e-7f));
  EXPECT_TRUE(from_disk.forward(x).allclose(resnet.forward(x), 1e-4f));
}

TEST(Server, ServesConvSamplesBatchedByShape) {
  util::Rng rng(21);
  nn::Sequential seq;
  seq.emplace<nn::Conv2d>(3, 4, 3, 1, 1, rng);
  seq.emplace<nn::ReLU>();
  seq.emplace<nn::GlobalAvgPool>();
  seq.set_training(false);
  const auto net = serve::CompiledNet::compile(seq);

  serve::ServerConfig cfg;
  cfg.num_threads = 2;
  cfg.max_batch = 4;
  cfg.max_delay_ms = 0.5;
  serve::InferenceServer server(net, cfg);

  std::vector<std::future<tensor::Tensor>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        server.submit(random_tensor(tensor::Shape({3, 6, 6}), 200 + i)));
  }
  for (int i = 0; i < 8; ++i) {
    const auto x = random_tensor(tensor::Shape({3, 6, 6}), 200 + i);
    const auto expected =
        net.forward(x.reshaped(tensor::Shape({1, 3, 6, 6})));
    EXPECT_TRUE(futures[static_cast<std::size_t>(i)].get().allclose(
        expected.reshaped(tensor::Shape({4})), 1e-6f));
  }
  server.shutdown();
  EXPECT_EQ(server.stats().requests, 8u);
}

TEST(Server, FailedBatchFailsOnlyItsRequestsAndServingContinues) {
  // A conv-first net accepts any [C, H, W] at submit and validates the
  // channel count inside its first op, so a wrong-channel sample reaches
  // a worker and its forward throws. Samples batch by shape, so the bad
  // one fails alone: only its future carries the error, every good
  // answer is exact, the shard keeps serving, and the failed request is
  // not counted.
  util::Rng rng(23);
  nn::Sequential seq;
  seq.emplace<nn::Conv2d>(3, 4, 3, 1, 1, rng);
  seq.emplace<nn::ReLU>();
  seq.emplace<nn::GlobalAvgPool>();
  seq.set_training(false);
  const auto net = serve::CompiledNet::compile(seq);

  serve::ServerConfig cfg;
  cfg.num_threads = 2;
  cfg.max_batch = 4;
  cfg.max_delay_ms = 0.5;
  serve::InferenceServer server(net, cfg);

  const tensor::Shape good({3, 6, 6});
  auto expected = [&](std::uint64_t seed) {
    return net.forward(random_tensor(good, seed).reshaped(good.prepended(1)))
        .reshaped(tensor::Shape({4}));
  };
  std::vector<std::future<tensor::Tensor>> before, after;
  for (int i = 0; i < 4; ++i) {
    before.push_back(server.submit(random_tensor(good, 230 + i)));
  }
  std::future<tensor::Tensor> bad =
      server.submit(random_tensor(tensor::Shape({2, 6, 6}), 239));
  for (int i = 0; i < 4; ++i) {
    after.push_back(server.submit(random_tensor(good, 240 + i)));
  }

  EXPECT_THROW(bad.get(), util::CheckError);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(before[static_cast<std::size_t>(i)].get().equals(
        expected(230 + i)))
        << "before " << i;
    EXPECT_TRUE(after[static_cast<std::size_t>(i)].get().equals(
        expected(240 + i)))
        << "after " << i;
  }
  EXPECT_TRUE(server.submit(random_tensor(good, 250)).get().equals(
      expected(250)));
  server.shutdown();
  EXPECT_EQ(server.stats().requests, 9u);
}

/// Nodes whose fp32 matrix is the same object in plans `a` and `b`.
std::size_t shared_csr_count(const serve::Plan& a, const serve::Plan& b) {
  std::size_t shared = 0;
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    if (a.ops[i].csr != nullptr && a.ops[i].csr == b.ops.at(i).csr) ++shared;
  }
  return shared;
}

TEST(CompiledNet, CloneSharesNoStateAndMatchesBitForBit) {
  CompiledHarness h(0.9, /*batch_norm=*/true);
  const auto net = serve::CompiledNet::compile(h.model, &h.smodel);
  const auto replica = net.clone();
  EXPECT_EQ(replica.num_ops(), net.num_ops());
  EXPECT_EQ(replica.total_nnz(), net.total_nnz());
  EXPECT_EQ(replica.input_features(), net.input_features());
  const auto x = random_tensor(tensor::Shape({5, 12}), 61);
  EXPECT_TRUE(replica.forward(x).equals(net.forward(x)));

  // Isolation by construction: a replica's plan names its own matrices.
  EXPECT_EQ(shared_csr_count(replica.plan(), net.plan()), 0u);
  // clone_shared hands exactly the named matrix through.
  const sparse::CsrMatrix* first = net.plan().ops.front().csr.get();
  ASSERT_NE(first, nullptr);
  const auto partial = net.clone_shared({first});
  EXPECT_EQ(shared_csr_count(partial.plan(), net.plan()), 1u);
  EXPECT_EQ(partial.plan().ops.front().csr.get(), first);
  EXPECT_TRUE(partial.forward(x).equals(net.forward(x)));
}

TEST(CompiledNet, ResNetCloneMatchesBitForBit) {
  // Clone must deep-copy the residual op graph (binary joins, shared
  // producers), not just chain nets.
  models::ResNetConfig cfg;
  cfg.depth = 18;
  cfg.image_size = 8;
  cfg.num_classes = 4;
  cfg.width_multiplier = 0.07;
  util::Rng rng(6);
  models::ResNet resnet(cfg, rng);
  resnet.forward(random_tensor(tensor::Shape({4, 3, 8, 8}), 96));
  resnet.set_training(false);
  const auto net = serve::CompiledNet::compile(resnet);
  const auto replica = net.clone();
  const auto x = random_tensor(tensor::Shape({2, 3, 8, 8}), 97);
  EXPECT_TRUE(replica.forward(x).equals(net.forward(x)));
}

TEST(Server, ShardedAnswersBitIdenticalToSingleShard) {
  CompiledHarness h(0.8);
  const auto net = serve::CompiledNet::compile(h.model, &h.smodel);
  // Sharding and the per-shape routing must be invisible to
  // clients: the CSR row reduction is batch-independent, so every shard
  // count returns identical bits for the same sample.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    serve::ServerConfig cfg;
    cfg.num_threads = 2;
    cfg.num_shards = shards;
    cfg.max_batch = 4;
    cfg.max_delay_ms = 0.5;
    serve::InferenceServer server(net, cfg);
    std::vector<std::future<tensor::Tensor>> futures;
    for (int i = 0; i < 12; ++i) {
      futures.push_back(
          server.submit(random_tensor(tensor::Shape({12}), 500 + i)));
    }
    for (int i = 0; i < 12; ++i) {
      const auto x = random_tensor(tensor::Shape({12}), 500 + i);
      const auto expected = net.forward(x.reshaped(tensor::Shape({1, 12})));
      EXPECT_TRUE(futures[static_cast<std::size_t>(i)].get().equals(
          expected.reshaped(tensor::Shape({5}))))
          << "shards=" << shards << " request " << i;
    }
    server.shutdown();
    EXPECT_EQ(server.stats().requests, 12u);
  }
}

TEST(Server, RoundRobinSplitsOneShapeEvenlyAcrossShards) {
  // Round robin per shape alternates one shape's requests between the
  // two shards, and each shard flushes only a full batch of 4 (the fixed
  // window holds a partial one for 60 s). So 4 requests complete nothing
  // (no shard got all 4), and 4 more complete all 8 in exactly two full
  // batches (each shard then holds 4): together these hold only for a
  // 4/4 split. Shutdown flushes whatever a wrong split leaves held, so a
  // failure does not hang.
  CompiledHarness h(0.5);
  const auto net = serve::CompiledNet::compile(h.model, &h.smodel);
  obs::MetricsRegistry registry;
  serve::ServerConfig cfg;
  cfg.num_threads = 1;
  cfg.num_shards = 2;
  cfg.max_batch = 4;
  cfg.max_delay_ms = 60000.0;
  cfg.fill_or_timeout = true;
  cfg.metrics = &registry;
  cfg.metrics_label = "m";
  serve::InferenceServer server(net, cfg);
  EXPECT_EQ(server.num_shards(), 2u);

  std::vector<std::future<tensor::Tensor>> futures;
  const auto submit = [&](int n) {
    for (int i = 0; i < n; ++i) {
      futures.push_back(server.submit(
          random_tensor(tensor::Shape({12}), 700 + futures.size())));
    }
  };
  submit(4);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);
  }
  submit(4);
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready);
    EXPECT_EQ(f.get().numel(), 5u);
  }
  server.shutdown();
  EXPECT_EQ(registry.counter("dstee_batch_flush_full_total", "m").value(), 2u);
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, 8u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.queue_peak, 4u);
}

TEST(Server, BackpressureBlockedTimeIsRecorded) {
  CompiledHarness h(0.5);
  const auto net = serve::CompiledNet::compile(h.model, &h.smodel);
  serve::ServerConfig cfg;
  cfg.num_threads = 1;
  cfg.max_batch = 1;
  cfg.queue_capacity = 1;  // every enqueue beyond the first must wait
  cfg.max_delay_ms = 0.0;
  serve::InferenceServer server(net, cfg);
  std::vector<std::future<tensor::Tensor>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(
        server.submit(random_tensor(tensor::Shape({12}), 800 + i)));
  }
  for (auto& f : futures) EXPECT_EQ(f.get().numel(), 5u);
  server.shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, 32u);
  EXPECT_EQ(stats.queue_peak, 1u);   // capacity bound was respected
  EXPECT_GE(stats.blocked_ms, 0.0);  // stall counter wired through
}

TEST(Server, StatsReadTheMetricsSeries) {
  // stats() is the metrics read back: after a run with a backpressure
  // stall and a shed, every count equals its series' value, exactly.
  CompiledHarness h(0.5);
  const auto net = serve::CompiledNet::compile(h.model, &h.smodel);
  obs::MetricsRegistry registry;
  serve::ServerConfig cfg;
  cfg.num_threads = 1;
  cfg.max_batch = 4;
  cfg.queue_capacity = 4;  // a full batch fills the queue
  cfg.queue_quota = 2;
  cfg.max_delay_ms = 60000.0;  // partial batches wait for shutdown
  cfg.fill_or_timeout = true;
  cfg.metrics = &registry;
  cfg.metrics_label = "m";
  serve::InferenceServer server(net, cfg);
  obs::Histogram& blocked = registry.histogram("dstee_submit_blocked_ms", "m");

  // Bursts of 4 from one client: a submit that finds the last burst's
  // full batch still queued stalls. Almost always the first burst does.
  std::vector<std::future<tensor::Tensor>> futures;
  for (int burst = 0; burst < 50 && blocked.count() == 0; ++burst) {
    for (int i = 0; i < 4; ++i) {
      futures.push_back(
          server.submit(random_tensor(tensor::Shape({12}), 900 + i)));
    }
  }
  for (auto& f : futures) EXPECT_EQ(f.get().numel(), 5u);
  ASSERT_GT(blocked.count(), 0u);
  // An empty queue takes 2 try_submits (the quota), held, and sheds the
  // third; shutdown flushes the 2.
  std::size_t accepted = futures.size();
  for (int i = 0; i < 3; ++i) {
    auto f = server.try_submit(random_tensor(tensor::Shape({12}), 950 + i));
    if (f) {
      ++accepted;
      futures.push_back(std::move(*f));
    }
  }
  server.shutdown();
  for (auto& f : futures) {
    if (f.valid()) {
      EXPECT_EQ(f.get().numel(), 5u);
    }
  }

  const serve::StatsSnapshot s = server.stats();
  obs::Histogram& latency = registry.histogram("dstee_request_latency_ms", "m");
  EXPECT_EQ(s.requests, accepted);
  EXPECT_EQ(s.requests, registry.counter("dstee_requests_total", "m").value());
  EXPECT_EQ(latency.count(), s.requests);
  EXPECT_EQ(s.batches, registry.counter("dstee_batches_total", "m").value());
  EXPECT_EQ(s.shed_total, 1u);
  EXPECT_EQ(s.shed_total,
            registry.counter("dstee_requests_shed_total", "m").value());
  EXPECT_EQ(s.queue_peak, 4u);
  EXPECT_EQ(static_cast<double>(s.queue_peak),
            registry.gauge("dstee_queue_depth_peak", "m").value());
  EXPECT_GT(s.blocked_ms, 0.0);
  EXPECT_EQ(s.blocked_ms, blocked.sum());
  EXPECT_DOUBLE_EQ(s.mean_batch_size, static_cast<double>(s.requests) /
                                          static_cast<double>(s.batches));
  EXPECT_DOUBLE_EQ(s.latency_mean_ms,
                   latency.sum() / static_cast<double>(latency.count()));
  EXPECT_EQ(s.latency_p50_ms, latency.quantile(0.5));
  EXPECT_EQ(s.latency_p99_ms, latency.quantile(0.99));
  EXPECT_EQ(s.latency_max_ms, latency.quantile(1.0));
  EXPECT_GT(s.latency_p50_ms, 0.0);
  EXPECT_EQ(s.swap_count, server.swap_epoch());
}

TEST(Server, StatsReadWhileClientsSubmitAreExactAfterShutdown) {
  // stats() reads lock-free series while the workers record into them. A
  // reader polling it while clients submit must not race (this test runs
  // under the TSan CI job) and sees counts that only grow; read after
  // shutdown() every count is exact.
  CompiledHarness h(0.5);
  const auto net = serve::CompiledNet::compile(h.model, &h.smodel);
  serve::ServerConfig cfg;
  cfg.num_threads = 2;
  cfg.num_shards = 2;
  cfg.max_batch = 4;
  serve::InferenceServer server(net, cfg);
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 100;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    serve::StatsSnapshot last;
    while (!done.load()) {
      const serve::StatsSnapshot s = server.stats();
      EXPECT_GE(s.requests, last.requests);
      EXPECT_GE(s.batches, last.batches);
      EXPECT_LE(s.requests, kClients * kPerClient);
      EXPECT_GE(s.latency_max_ms, 0.0);
      last = s;
    }
  });
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const auto x = random_tensor(tensor::Shape({12}), c * 1000 + i);
        EXPECT_EQ(server.submit(x).get().numel(), 5u);
      }
    });
  }
  for (auto& t : clients) t.join();
  done.store(true);
  reader.join();
  server.shutdown();
  const serve::StatsSnapshot s = server.stats();
  EXPECT_EQ(s.requests, kClients * kPerClient);
  EXPECT_GE(s.batches, 1u);
  EXPECT_LE(s.batches, s.requests);
  EXPECT_GT(s.latency_p50_ms, 0.0);
  EXPECT_LE(s.latency_p50_ms, s.latency_max_ms);
}

TEST(Server, FlushOnFullBatch) {
  CompiledHarness h(0.5);
  const auto net = serve::CompiledNet::compile(h.model, &h.smodel);
  serve::ServerConfig cfg;
  cfg.num_threads = 1;
  cfg.max_batch = 4;
  cfg.max_delay_ms = 60000.0;  // never flush on time — only on fill
  cfg.fill_or_timeout = true;
  serve::InferenceServer server(net, cfg);

  std::vector<std::future<tensor::Tensor>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(
        server.submit(random_tensor(tensor::Shape({12}), 40 + i)));
  }
  for (auto& f : futures) EXPECT_EQ(f.get().numel(), 5u);
  server.shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.batches, 1u);  // one full micro-batch, no timeout needed
  EXPECT_DOUBLE_EQ(stats.mean_batch_size, 4.0);
}

TEST(Server, FlushOnTimeout) {
  CompiledHarness h(0.5);
  const auto net = serve::CompiledNet::compile(h.model, &h.smodel);
  serve::ServerConfig cfg;
  cfg.num_threads = 1;
  cfg.max_batch = 64;       // far more than we submit
  cfg.max_delay_ms = 5.0;   // so only the deadline can flush
  cfg.fill_or_timeout = true;
  serve::InferenceServer server(net, cfg);

  std::vector<std::future<tensor::Tensor>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(
        server.submit(random_tensor(tensor::Shape({12}), 50 + i)));
  }
  for (auto& f : futures) EXPECT_EQ(f.get().numel(), 5u);  // must not hang
  server.shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_GE(stats.batches, 1u);
}

TEST(Server, IdleShardDoesNotWaitOutMaxDelay) {
  // A partial batch is held for about one forward time, capped at
  // max_delay_ms — not for max_delay_ms itself. The shard's first batch
  // is not held at all, the second at most the first's forward time, so
  // with a 60 s cap both lone requests resolve long before 5 s. Under the
  // fixed window each would wait the full 60 s (shutdown still flushes
  // them at once, so a failure does not hang).
  CompiledHarness h(0.5);
  const auto net = serve::CompiledNet::compile(h.model, &h.smodel);
  serve::ServerConfig cfg;
  cfg.num_threads = 1;
  cfg.max_batch = 16;
  cfg.max_delay_ms = 60000.0;
  serve::InferenceServer server(net, cfg);
  for (int i = 0; i < 2; ++i) {
    const auto x = random_tensor(tensor::Shape({12}), 70 + i);
    std::future<tensor::Tensor> reply = server.submit(x);
    ASSERT_EQ(reply.wait_for(std::chrono::seconds(5)),
              std::future_status::ready)
        << "request " << i;
    const auto expected = net.forward(x.reshaped(tensor::Shape({1, 12})));
    EXPECT_TRUE(reply.get().equals(expected.reshaped(tensor::Shape({5}))))
        << "request " << i;
  }
  server.shutdown();
}

TEST(Server, FirstLoneRequestFlushesIdle) {
  // Before its first forward a shard's forward estimate is zero, shorter
  // than any arrival gap: the first batch is not held, and its flush is
  // counted and traced as idle.
  CompiledHarness h(0.5);
  const auto net = serve::CompiledNet::compile(h.model, &h.smodel);
  obs::MetricsRegistry registry;
  serve::ServerConfig cfg;
  cfg.num_threads = 1;
  cfg.max_delay_ms = 60000.0;
  cfg.metrics = &registry;
  cfg.metrics_label = "m0";
  // The process-wide recorder keeps earlier tests' spans: count only
  // flush spans that start after this stamp.
  const std::int64_t start_ns = obs::now_ns();
  obs::trace().enable(/*sample_every=*/1);
  serve::InferenceServer server(net, cfg);
  std::future<tensor::Tensor> reply =
      server.submit(random_tensor(tensor::Shape({12}), 75));
  ASSERT_EQ(reply.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  server.shutdown();
  obs::trace().disable();
  EXPECT_EQ(registry.counter("dstee_batches_total", "m0").value(), 1u);
  EXPECT_EQ(registry.counter("dstee_batch_flush_idle_total", "m0").value(),
            1u);
  std::vector<std::string> flushes;
  for (const obs::TraceEvent& event : obs::trace().drain()) {
    if (event.kind == obs::SpanKind::kFlush && event.ts_ns >= start_ns) {
      flushes.emplace_back(event.name);
    }
  }
  EXPECT_EQ(flushes, std::vector<std::string>{"flush:idle"});
}

// --- The hold rule on a simulated clock --------------------------------
//
// decide_hold is a pure function of what a shard observes, so these tests
// drive it with scripted arrivals and forwards on a simulated clock: no
// sleeps, no threads, and every decision is asserted exactly.

using SimDuration = obs::Clock::duration;
using SimTime = obs::Clock::time_point;

SimDuration sim_us(double us) {
  return std::chrono::duration_cast<SimDuration>(
      std::chrono::duration<double, std::micro>(us));
}

/// One simulated micro-batch: its size, why its hold ended and how many
/// hold decisions came before the flush.
struct SimBatch {
  std::size_t size = 0;
  serve::FlushReason reason = serve::FlushReason::kFull;
  std::size_t holds = 0;
};

/// Runs one shard with one worker as next_batch does: each arrival joins
/// the queue and the shard's ArrivalGaps at its time, the worker asks
/// decide_hold and either flushes or sleeps until the next arrival or the
/// hold's end, and batch k takes `forward(k, size)`, which the shard's
/// ForwardEstimate records. `on_done(size, done, arrivals)` may script
/// the arrivals a completed batch causes (a closed loop). Stops after
/// `max_batches` batches or when no request is left.
std::vector<SimBatch> simulate_shard(
    const serve::ServerConfig& config, std::multiset<SimTime> arrivals,
    const std::function<SimDuration(std::size_t, std::size_t)>& forward,
    const std::function<void(std::size_t, SimTime, std::multiset<SimTime>&)>&
        on_done,
    std::size_t max_batches) {
  serve::ArrivalGaps gaps;
  serve::ForwardEstimate forwards;
  std::deque<SimTime> queue;
  std::vector<SimBatch> batches;
  SimTime now{};
  const auto admit = [&] {
    while (!arrivals.empty() && *arrivals.begin() <= now) {
      gaps.observe(*arrivals.begin());
      queue.push_back(*arrivals.begin());
      arrivals.erase(arrivals.begin());
    }
  };
  while (batches.size() < max_batches) {
    admit();
    if (queue.empty()) {
      if (arrivals.empty()) break;
      now = *arrivals.begin();
      continue;
    }
    SimBatch batch;
    for (;;) {
      const serve::HoldDecision decision =
          serve::decide_hold(queue.size(), now - queue.front(),
                             forwards.estimate(), gaps.mean(),
                             /*stopping=*/false, config);
      if (const auto* reason = std::get_if<serve::FlushReason>(&decision)) {
        batch.reason = *reason;
        break;
      }
      ++batch.holds;
      const SimTime until = now + std::get<SimDuration>(decision);
      now = !arrivals.empty() && *arrivals.begin() <= until
                ? *arrivals.begin()
                : until;
      admit();
    }
    batch.size = std::min(queue.size(), config.max_batch);
    queue.erase(queue.begin(),
                queue.begin() + static_cast<std::ptrdiff_t>(batch.size));
    const SimDuration took = forward(batches.size(), batch.size);
    now += took;
    forwards.record(took);
    batches.push_back(batch);
    if (on_done) on_done(batch.size, now, arrivals);
  }
  return batches;
}

/// Poisson arrivals at `rate` per second from a fixed seed.
std::multiset<SimTime> poisson_arrivals(double rate, std::size_t count,
                                        std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::exponential_distribution<double> gap_s(rate);
  std::multiset<SimTime> arrivals;
  double t_s = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t_s += gap_s(gen);
    arrivals.insert(SimTime{} + sim_us(t_s * 1e6));
  }
  return arrivals;
}

/// perfbench's mlp_fleet_swap shard: max_batch 16, max_delay_ms 2.
serve::ServerConfig fleet_shard_config() {
  serve::ServerConfig cfg;
  cfg.max_batch = 16;
  cfg.max_delay_ms = 2.0;
  return cfg;
}

TEST(HoldRule, PoissonArrivalsFlushEveryRequestIdle) {
  // One shard of mlp_fleet_swap: 500 req/s (a 2 ms mean gap) against a
  // 0.043 ms forward. No second request is due within one forward, so
  // no request is ever held.
  const std::vector<SimBatch> batches = simulate_shard(
      fleet_shard_config(), poisson_arrivals(500.0, 4000, 61),
      [](std::size_t, std::size_t) { return sim_us(43); }, {}, 4000);
  std::size_t requests = 0, lone = 0;
  for (std::size_t k = 0; k < batches.size(); ++k) {
    EXPECT_EQ(batches[k].reason, serve::FlushReason::kIdle) << "batch " << k;
    EXPECT_EQ(batches[k].holds, 0u) << "batch " << k;
    requests += batches[k].size;
    if (batches[k].size == 1) ++lone;
  }
  EXPECT_EQ(requests, 4000u);
  EXPECT_GT(lone, batches.size() * 9 / 10);
}

TEST(HoldRule, ClosedLoopBurstsHoldThenFlushFullOrWindow) {
  // sweep_shards' shape: closed-loop clients resubmit as soon as their
  // batch completes, so a burst arrives after each batch, microseconds
  // apart, and the mean gap stays far below one forward.
  for (const std::size_t clients : {std::size_t{8}, std::size_t{4}}) {
    serve::ServerConfig cfg;
    cfg.max_batch = 8;
    cfg.max_delay_ms = 0.2;
    std::multiset<SimTime> first_burst;
    for (std::size_t c = 0; c < clients; ++c) {
      first_burst.insert(SimTime{} + sim_us(1.0 + 2.0 * c));
    }
    const auto resubmit = [](std::size_t size, SimTime done,
                             std::multiset<SimTime>& arrivals) {
      for (std::size_t c = 0; c < size; ++c) {
        arrivals.insert(done + sim_us(1.0 + 2.0 * c));
      }
    };
    const std::vector<SimBatch> batches = simulate_shard(
        cfg, first_burst,
        [](std::size_t, std::size_t size) {
          return sim_us(40.0 + 6.0 * static_cast<double>(size));
        },
        resubmit, 200);
    ASSERT_EQ(batches.size(), 200u);
    // The first batch runs before any forward is known.
    EXPECT_EQ(batches[0].reason, serve::FlushReason::kIdle);
    // Eight clients fill max_batch; four never can, so their hold ends
    // after one forward estimate.
    const serve::FlushReason expected = clients == 8
                                            ? serve::FlushReason::kFull
                                            : serve::FlushReason::kWindow;
    for (std::size_t k = 2; k < batches.size(); ++k) {
      SCOPED_TRACE(std::to_string(clients) + " clients, batch " +
                   std::to_string(k));
      EXPECT_GE(batches[k].holds, 1u);
      EXPECT_EQ(batches[k].reason, expected);
      EXPECT_EQ(batches[k].size, clients);
    }
  }
}

TEST(HoldRule, OnePreemptedForwardDoesNotChangeTheNextDecisions) {
  // Batch 100's forward is preempted for 5 ms among 0.043 ms ones. The
  // median of the last three forwards ignores it, so every later decision
  // is the one an unpreempted run makes: flush idle, hold nothing.
  const serve::ServerConfig cfg = fleet_shard_config();
  const auto run = [&](bool preempted) {
    return simulate_shard(
        cfg, poisson_arrivals(500.0, 2000, 73),
        [preempted](std::size_t k, std::size_t) {
          return sim_us(preempted && k == 100 ? 5000.0 : 43.0);
        },
        {}, 2000);
  };
  const std::vector<SimBatch> steady = run(false);
  const std::vector<SimBatch> preempted = run(true);
  ASSERT_GT(preempted.size(), 101u);
  ASSERT_GE(steady.size(), preempted.size());
  for (std::size_t k = 101; k < preempted.size(); ++k) {
    EXPECT_EQ(preempted[k].reason, steady[k].reason) << "batch " << k;
    EXPECT_EQ(preempted[k].holds, steady[k].holds) << "batch " << k;
  }
  // A last-forward estimate would hold the next lone request to the
  // max_delay_ms cap.
  EXPECT_EQ(serve::decide_hold(1, {}, sim_us(5000), sim_us(2000), false, cfg),
            serve::HoldDecision{sim_us(2000)});
}

TEST(HoldRule, FirstBatchIsNotHeld) {
  const serve::ServerConfig cfg = fleet_shard_config();
  // No forward and no second arrival yet.
  EXPECT_EQ(serve::decide_hold(1, {}, {}, SimDuration::max(), false, cfg),
            serve::HoldDecision{serve::FlushReason::kIdle});
  EXPECT_EQ(serve::decide_hold(3, {}, {}, sim_us(1), false, cfg),
            serve::HoldDecision{serve::FlushReason::kIdle});
  // Even arrivals with equal stamps get a zero hold.
  EXPECT_EQ(serve::decide_hold(2, {}, {}, {}, false, cfg),
            serve::HoldDecision{serve::FlushReason::kWindow});
}

TEST(HoldRule, HoldsOneForwardWhenASecondRequestIsDue) {
  const serve::ServerConfig cfg = fleet_shard_config();
  // A 50 us forward against a 20 us mean gap: hold the head 50 us.
  EXPECT_EQ(serve::decide_hold(1, {}, sim_us(50), sim_us(20), false, cfg),
            serve::HoldDecision{sim_us(50)});
  EXPECT_EQ(serve::decide_hold(3, sim_us(30), sim_us(50), sim_us(20), false,
                               cfg),
            serve::HoldDecision{sim_us(20)});
  EXPECT_EQ(serve::decide_hold(3, sim_us(50), sim_us(50), sim_us(20), false,
                               cfg),
            serve::HoldDecision{serve::FlushReason::kWindow});
  // A forward exactly as long as the mean gap still holds.
  EXPECT_EQ(serve::decide_hold(1, {}, sim_us(50), sim_us(50), false, cfg),
            serve::HoldDecision{sim_us(50)});
  EXPECT_EQ(serve::decide_hold(1, {}, sim_us(50), sim_us(51), false, cfg),
            serve::HoldDecision{serve::FlushReason::kIdle});
}

TEST(HoldRule, FillOrTimeoutHoldsToMaxDelayAndFlushesDeadline) {
  serve::ServerConfig cfg = fleet_shard_config();
  cfg.fill_or_timeout = true;
  // Whatever the forward and the gaps, the idle rule included.
  for (const SimDuration forward : {SimDuration{}, sim_us(50)}) {
    for (const SimDuration gap : {sim_us(10), SimDuration::max()}) {
      EXPECT_EQ(serve::decide_hold(1, {}, forward, gap, false, cfg),
                serve::HoldDecision{sim_us(2000)});
      EXPECT_EQ(serve::decide_hold(4, sim_us(1500), forward, gap, false, cfg),
                serve::HoldDecision{sim_us(500)});
      EXPECT_EQ(serve::decide_hold(4, sim_us(2000), forward, gap, false, cfg),
                serve::HoldDecision{serve::FlushReason::kDeadline});
    }
  }
}

TEST(HoldRule, ForwardAtLeastMaxDelayHoldsToMaxDelayAndFlushesDeadline) {
  const serve::ServerConfig cfg = fleet_shard_config();  // 2 ms cap
  for (const SimDuration forward : {sim_us(2000), sim_us(3000)}) {
    EXPECT_EQ(serve::decide_hold(1, {}, forward, sim_us(100), false, cfg),
              serve::HoldDecision{sim_us(2000)});
    EXPECT_EQ(serve::decide_hold(1, sim_us(2000), forward, sim_us(100), false,
                                 cfg),
              serve::HoldDecision{serve::FlushReason::kDeadline});
  }
}

TEST(HoldRule, StoppingFlushesShutdownAndAFullQueueFlushesFull) {
  serve::ServerConfig cfg = fleet_shard_config();
  for (const bool fixed : {false, true}) {
    cfg.fill_or_timeout = fixed;
    EXPECT_EQ(serve::decide_hold(1, {}, sim_us(50), sim_us(20), true, cfg),
              serve::HoldDecision{serve::FlushReason::kShutdown});
    // A full queue flushes kFull, during shutdown too.
    for (const bool stopping : {false, true}) {
      EXPECT_EQ(serve::decide_hold(16, {}, sim_us(50), sim_us(20), stopping,
                                   cfg),
                serve::HoldDecision{serve::FlushReason::kFull});
      EXPECT_EQ(serve::decide_hold(40, {}, sim_us(50), sim_us(20), stopping,
                                   cfg),
                serve::HoldDecision{serve::FlushReason::kFull});
    }
  }
}

TEST(HoldRule, ForwardEstimateIsTheMedianOfTheLastThree) {
  serve::ForwardEstimate forwards;
  EXPECT_EQ(forwards.estimate(), SimDuration{});
  forwards.record(sim_us(90));
  EXPECT_EQ(forwards.estimate(), sim_us(90));
  forwards.record(sim_us(40));
  EXPECT_EQ(forwards.estimate(), sim_us(40));  // the smaller of two
  forwards.record(sim_us(5000));
  EXPECT_EQ(forwards.estimate(), sim_us(90));
  forwards.record(sim_us(45));  // overwrites the 90
  EXPECT_EQ(forwards.estimate(), sim_us(45));
  forwards.record(sim_us(50));  // overwrites the 40
  EXPECT_EQ(forwards.estimate(), sim_us(50));
  forwards.record(sim_us(41));  // overwrites the 5000
  EXPECT_EQ(forwards.estimate(), sim_us(45));
}

TEST(HoldRule, ArrivalGapsAreAMovingAverageWithWeightOneEighth) {
  serve::ArrivalGaps gaps;
  EXPECT_EQ(gaps.mean(), SimDuration::max());
  const SimTime t0 = SimTime{} + sim_us(1000);
  gaps.observe(t0);
  EXPECT_EQ(gaps.mean(), SimDuration::max());  // no gap yet
  gaps.observe(t0 + sim_us(800));
  EXPECT_EQ(gaps.mean(), sim_us(800));  // the first gap seeds it
  gaps.observe(t0 + sim_us(800));
  EXPECT_EQ(gaps.mean(), sim_us(700));  // 800 + (0 - 800) / 8
  gaps.observe(t0 + sim_us(2400));
  EXPECT_EQ(gaps.mean(), sim_us(812.5));  // 700 + (1600 - 700) / 8
}

TEST(Server, ConcurrentClientsGetTheirOwnAnswers) {
  CompiledHarness h(0.8);
  const auto net = serve::CompiledNet::compile(h.model, &h.smodel);
  serve::ServerConfig cfg;
  cfg.num_threads = 4;
  cfg.max_batch = 8;
  cfg.max_delay_ms = 0.5;
  serve::InferenceServer server(net, cfg);

  constexpr std::size_t kClients = 6;
  constexpr std::size_t kPerClient = 20;
  std::atomic<std::size_t> mismatches{0};

  auto client = [&](std::size_t id) {
    for (std::size_t i = 0; i < kPerClient; ++i) {
      const auto x =
          random_tensor(tensor::Shape({12}), 1000 + id * kPerClient + i);
      // Reference through the same compiled net, single-threaded: the CSR
      // row reduction order is batch-independent, so results must agree to
      // float round-off regardless of how requests get batched.
      const auto expected =
          net.forward(x.reshaped(tensor::Shape({1, 12})));
      const auto got = server.submit(x).get();
      if (got.numel() != 5 ||
          !got.allclose(expected.reshaped(tensor::Shape({5})), 1e-6f)) {
        mismatches.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (auto& t : clients) t.join();
  server.shutdown();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(server.stats().requests, kClients * kPerClient);
}

TEST(Server, ShutdownDrainsPendingRequests) {
  CompiledHarness h(0.5);
  const auto net = serve::CompiledNet::compile(h.model, &h.smodel);
  serve::ServerConfig cfg;
  cfg.num_threads = 2;
  cfg.max_batch = 4;
  cfg.max_delay_ms = 10000.0;  // only shutdown can flush the tail
  cfg.fill_or_timeout = true;
  serve::InferenceServer server(net, cfg);

  std::vector<std::future<tensor::Tensor>> futures;
  for (int i = 0; i < 11; ++i) {  // not a multiple of max_batch
    futures.push_back(
        server.submit(random_tensor(tensor::Shape({12}), 60 + i)));
  }
  server.shutdown();
  for (auto& f : futures) EXPECT_EQ(f.get().numel(), 5u);
  EXPECT_EQ(server.stats().requests, 11u);
  EXPECT_THROW(server.submit(random_tensor(tensor::Shape({12}), 99)),
               util::CheckError);
}

TEST(Server, ShutdownUnderLoadResolvesEveryAcceptedFuture) {
  // Four clients submit in a loop to a 2-shard server while the main
  // thread shuts it down. Every submit() that returned a future was
  // accepted: shutdown drains it, and it resolves to the right reply.
  // Every submit() after shutdown() returned throws.
  CompiledHarness h(0.8);
  const auto net = serve::CompiledNet::compile(h.model, &h.smodel);
  constexpr std::size_t kInputs = 8;
  std::vector<tensor::Tensor> inputs;
  std::vector<tensor::Tensor> expected;
  for (std::size_t k = 0; k < kInputs; ++k) {
    inputs.push_back(random_tensor(tensor::Shape({12}), 640 + k));
    expected.push_back(
        net.forward(inputs.back().reshaped(tensor::Shape({1, 12})))
            .reshaped(tensor::Shape({5})));
  }
  serve::ServerConfig cfg;
  cfg.num_threads = 1;
  cfg.num_shards = 2;
  cfg.max_batch = 8;
  cfg.max_delay_ms = 1.0;
  serve::InferenceServer server(net, cfg);

  struct Client {
    std::vector<std::pair<std::size_t, std::future<tensor::Tensor>>> accepted;
    bool rejected_after_shutdown = false;
  };
  constexpr std::size_t kClients = 4;
  std::vector<Client> clients(kClients);
  std::atomic<std::size_t> submitted{0};
  std::atomic<bool> shut_down{false};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client& me = clients[c];
      for (std::size_t i = 0;; ++i) {
        const std::size_t k = (c + i) % kInputs;
        try {
          me.accepted.emplace_back(k, server.submit(inputs[k]));
        } catch (const util::CheckError&) {
          break;  // shutdown has reached the shard this submit routed to
        }
        submitted.fetch_add(1);
      }
      while (!shut_down.load()) std::this_thread::yield();
      try {
        server.submit(inputs[c]);
      } catch (const util::CheckError&) {
        me.rejected_after_shutdown = true;
      }
    });
  }
  while (submitted.load() < 2000) std::this_thread::yield();
  server.shutdown();
  shut_down.store(true);
  EXPECT_THROW(server.submit(inputs[0]), util::CheckError);
  for (auto& t : threads) t.join();

  std::size_t futures = 0;
  for (Client& client : clients) {
    EXPECT_TRUE(client.rejected_after_shutdown);
    for (auto& [k, reply] : client.accepted) {
      ++futures;
      ASSERT_EQ(reply.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);  // shutdown drained it
      EXPECT_TRUE(reply.get().equals(expected[k]));
    }
  }
  EXPECT_GE(futures, 2000u);
  EXPECT_EQ(server.stats().requests, futures);
}

TEST(Server, ScaleToDuringShutdownResolvesEveryAcceptedFuture) {
  // Clients submit while one thread keeps moving the routing bound over
  // 1..3 shards and the main thread shuts the server down, then
  // decommissions it. A request routed to any shard, parked or active,
  // is either refused or drained: every accepted future resolves to the
  // right reply.
  CompiledHarness h(0.8);
  const auto net = serve::CompiledNet::compile(h.model, &h.smodel);
  constexpr std::size_t kInputs = 8;
  std::vector<tensor::Tensor> inputs;
  std::vector<tensor::Tensor> expected;
  for (std::size_t k = 0; k < kInputs; ++k) {
    inputs.push_back(random_tensor(tensor::Shape({12}), 660 + k));
    expected.push_back(
        net.forward(inputs.back().reshaped(tensor::Shape({1, 12})))
            .reshaped(tensor::Shape({5})));
  }
  serve::ServerConfig cfg;
  cfg.num_threads = 1;
  cfg.num_shards = 1;
  cfg.max_shards = 3;
  cfg.max_batch = 8;
  cfg.max_delay_ms = 1.0;
  serve::InferenceServer server(net, cfg);

  struct Client {
    std::vector<std::pair<std::size_t, std::future<tensor::Tensor>>> accepted;
    bool rejected_after_shutdown = false;
  };
  constexpr std::size_t kClients = 3;
  std::vector<Client> clients(kClients);
  std::atomic<std::size_t> submitted{0};
  std::atomic<bool> shut_down{false}, stop_scaling{false};
  std::thread scaler([&] {
    for (std::size_t n = 1; !stop_scaling.load(); n = n % 3 + 1) {
      EXPECT_EQ(server.scale_to(n), n);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client& me = clients[c];
      for (std::size_t i = 0;; ++i) {
        const std::size_t k = (c + i) % kInputs;
        try {
          me.accepted.emplace_back(k, server.submit(inputs[k]));
        } catch (const util::CheckError&) {
          break;  // shutdown has reached the shard this submit routed to
        }
        submitted.fetch_add(1);
      }
      while (!shut_down.load()) std::this_thread::yield();
      try {
        server.submit(inputs[c]);
      } catch (const util::CheckError&) {
        me.rejected_after_shutdown = true;
      }
    });
  }
  while (submitted.load() < 2000) std::this_thread::yield();
  server.shutdown();
  server.decommission();
  shut_down.store(true);
  for (auto& t : threads) t.join();
  stop_scaling.store(true);
  scaler.join();

  std::size_t futures = 0;
  for (Client& client : clients) {
    EXPECT_TRUE(client.rejected_after_shutdown);
    for (auto& [k, reply] : client.accepted) {
      ++futures;
      ASSERT_EQ(reply.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);  // shutdown drained it
      EXPECT_TRUE(reply.get().equals(expected[k]));
    }
  }
  EXPECT_GE(futures, 2000u);
  EXPECT_EQ(server.stats().requests, futures);
}

TEST(Server, RejectsWrongFeatureCount) {
  CompiledHarness h(0.5);
  const auto net = serve::CompiledNet::compile(h.model, &h.smodel);
  serve::InferenceServer server(net, {});
  EXPECT_THROW(server.submit(random_tensor(tensor::Shape({7}), 1)),
               util::CheckError);
  EXPECT_THROW(server.submit(random_tensor(tensor::Shape({2, 12}), 1)),
               util::CheckError);
}

// --- checkpoint → CompiledNet round trip -------------------------------

TEST(ServeCheckpoint, TrainedMlpRoundTripsThroughDisk) {
  // Own scratch dir: gap_checkpoint_test remove_all()s test_ckpt/, and
  // ctest -j runs both binaries concurrently in the same cwd.
  const std::string path = "serve_ckpt/serve_roundtrip.bin";
  models::MlpConfig cfg;
  cfg.in_features = 8;
  cfg.hidden = {16};
  cfg.out_features = 4;

  util::Rng rng(31);
  models::Mlp model(cfg, rng);
  sparse::SparseModel smodel(model, 0.8, sparse::DistributionKind::kErk,
                             rng);
  optim::Sgd::Config scfg;
  scfg.lr = 0.05;
  optim::Sgd optimizer(model.parameters(), scfg);

  methods::DstEngineConfig ecfg;
  ecfg.schedule.delta_t = 5;
  ecfg.schedule.total_iterations = 40;
  ecfg.schedule.initial_drop_fraction = 0.3;
  ecfg.drop = std::make_unique<methods::MagnitudeDrop>();
  ecfg.grow = std::make_unique<methods::DstEeGrow>(methods::DstEeGrow::Config{});
  methods::DstEngine engine(smodel, optimizer, std::move(ecfg),
                            rng.fork("engine"));

  // A real (if tiny) DST training loop on random data.
  nn::SoftmaxCrossEntropy loss;
  for (std::size_t it = 1; it <= 40; ++it) {
    const auto x = random_tensor(tensor::Shape({16, 8}), 200 + it);
    std::vector<std::size_t> labels(16);
    for (std::size_t i = 0; i < 16; ++i) labels[i] = (it + i) % 4;
    model.zero_grad();
    loss.forward(model.forward(x), labels);
    model.backward(loss.backward());
    engine.maybe_update(it, 0.05);
    smodel.apply_masks_to_grads();
    optimizer.step();
    smodel.apply_masks_to_values();
  }
  model.set_training(false);

  const auto in_memory = serve::CompiledNet::compile(model, &smodel);
  train::save_checkpoint(path, model, &smodel);

  // Fresh architecture, different init, different topology — everything
  // must come from the file.
  util::Rng rng2(99);
  models::Mlp loaded(cfg, rng2);
  sparse::SparseModel loaded_state(loaded, 0.8,
                                   sparse::DistributionKind::kErk, rng2);
  const auto from_disk = serve::CompiledNet::from_checkpoint(
      path, loaded, &loaded_state);

  EXPECT_EQ(from_disk.total_nnz(), in_memory.total_nnz());
  const auto x = random_tensor(tensor::Shape({10, 8}), 77);
  const auto expected = in_memory.forward(x);
  const auto actual = from_disk.forward(x);
  EXPECT_TRUE(actual.allclose(expected, 1e-7f));  // identical logits
  // And both still match the eval-mode dense model.
  EXPECT_TRUE(actual.allclose(model.forward(x), 1e-4f));
}

TEST(ServeCheckpoint, BatchNormRunningStatsSurviveTheRoundTrip) {
  // Regression: checkpoint v1 persisted only parameters, so gamma/beta
  // came back but running mean/var stayed at init and a reloaded BN model
  // silently served the wrong affine constants.
  const std::string path = "serve_ckpt/serve_bn_roundtrip.bin";
  CompiledHarness h(0.8, /*batch_norm=*/true);  // ctor moves running stats
  const auto in_memory = serve::CompiledNet::compile(h.model, &h.smodel);
  train::save_checkpoint(path, h.model, &h.smodel);

  CompiledHarness loaded(0.8, /*batch_norm=*/true, 0.0, /*seed=*/123);
  const auto from_disk =
      serve::CompiledNet::from_checkpoint(path, loaded.model,
                                          &loaded.smodel);

  // The loaded module tree itself must carry the saved running stats
  // (two BN layers × {mean, var}).
  const auto saved = h.model.state_buffers();
  const auto restored = loaded.model.state_buffers();
  ASSERT_EQ(saved.size(), 4u);
  ASSERT_EQ(restored.size(), 4u);
  for (std::size_t i = 0; i < saved.size(); ++i) {
    EXPECT_TRUE(restored[i]->allclose(*saved[i], 1e-7f));
  }
  const auto x = random_tensor(tensor::Shape({9, 12}), 88);
  EXPECT_TRUE(from_disk.forward(x).allclose(in_memory.forward(x), 1e-7f));
  EXPECT_TRUE(from_disk.forward(x).allclose(h.model.forward(x), 1e-4f));
}

// --- Plan / pass pipeline ----------------------------------------------

std::size_t count_kind(const serve::Plan& plan, serve::PlanOpKind kind) {
  std::size_t n = 0;
  for (const serve::PlanOp& op : plan.ops) {
    if (op.kind == kind) ++n;
  }
  return n;
}

TEST(Compiler, DefaultPipelineMatchesFacadeBitForBit) {
  // CompiledNet::compile is a thin facade over serve::Compiler; an
  // explicitly constructed Compiler must produce the same program down to
  // the bits — the equivalence contract of the redesign.
  CompiledHarness h(0.85, /*batch_norm=*/true, /*dropout=*/0.25);
  const auto facade = serve::CompiledNet::compile(h.model, &h.smodel);
  const auto staged = serve::Compiler().compile(h.model, &h.smodel);
  EXPECT_EQ(staged.num_ops(), facade.num_ops());
  EXPECT_EQ(staged.num_elided(), facade.num_elided());
  EXPECT_EQ(staged.total_nnz(), facade.total_nnz());
  const auto x = random_tensor(tensor::Shape({6, 12}), 301);
  EXPECT_TRUE(staged.forward(x).equals(facade.forward(x)));
  EXPECT_TRUE(staged.forward(x).allclose(h.model.forward(x), 1e-4f));
}

TEST(Compiler, LoweringEmitsOneNodePerModule) {
  // Lowering takes no optimization decisions: dropout and batch-norm
  // appear as their own nodes until the passes rewrite them.
  CompiledHarness h(0.8, /*batch_norm=*/true, /*dropout=*/0.25);
  serve::Plan raw = serve::lower(h.model, &h.smodel);
  EXPECT_EQ(count_kind(raw, serve::PlanOpKind::kDropout), 2u);
  EXPECT_EQ(count_kind(raw, serve::PlanOpKind::kScaleShift), 2u);
  EXPECT_EQ(count_kind(raw, serve::PlanOpKind::kSpmm), 3u);
  EXPECT_EQ(raw.elided, 0u);
  EXPECT_TRUE(raw.release_after.empty());
}

TEST(Passes, ElideDropoutRemovesEvalIdentityNodes) {
  CompiledHarness h(0.8, /*batch_norm=*/false, /*dropout=*/0.25);
  serve::Plan plan = serve::lower(h.model, &h.smodel);
  const std::size_t dropouts =
      count_kind(plan, serve::PlanOpKind::kDropout);
  ASSERT_GT(dropouts, 0u);
  const std::size_t before = plan.size();
  serve::elide_dropout(plan);
  EXPECT_EQ(count_kind(plan, serve::PlanOpKind::kDropout), 0u);
  EXPECT_EQ(plan.size(), before - dropouts);
  EXPECT_EQ(plan.elided, dropouts);
}

TEST(Passes, FoldBatchNormRequiresAdjacentSingleConsumerCsr) {
  util::Rng rng(91);
  nn::Sequential foldable;
  foldable.emplace<nn::Linear>(6, 4, rng);
  foldable.emplace<nn::BatchNorm1d>(4);
  nn::Sequential unfoldable;  // ReLU between Linear and BN blocks the fold
  unfoldable.emplace<nn::Linear>(6, 4, rng);
  unfoldable.emplace<nn::ReLU>();
  unfoldable.emplace<nn::BatchNorm1d>(4);
  for (nn::Sequential* seq : {&foldable, &unfoldable}) {
    seq->forward(random_tensor(tensor::Shape({16, 6}), 92));
    seq->set_training(false);
  }

  serve::Plan unfolded = serve::lower(foldable);
  serve::Plan fold_plan = unfolded;  // plans are value types
  serve::fold_batch_norm(fold_plan);
  EXPECT_EQ(fold_plan.size(), 1u);
  EXPECT_TRUE(fold_plan.ops[0].folded_bn);
  EXPECT_TRUE(fold_plan.ops[0].has_bias);
  // The fold must not reach through the shared weights into the copy:
  // binding the untouched plan still reproduces the dense forward.
  {
    EXPECT_EQ(unfolded.size(), 2u);
    const auto x = random_tensor(tensor::Shape({4, 6}), 96);
    const auto net =
        serve::CompiledNet::bind(std::move(unfolded), serve::CompileOptions{});
    EXPECT_TRUE(net.forward(x).allclose(foldable.forward(x), 1e-4f));
  }

  serve::Plan keep_plan = serve::lower(unfoldable);
  const std::size_t before = keep_plan.size();
  serve::fold_batch_norm(keep_plan);
  EXPECT_EQ(keep_plan.size(), before);  // nothing adjacent to fold into
  EXPECT_EQ(count_kind(keep_plan, serve::PlanOpKind::kScaleShift), 1u);

  // Both variants still reproduce the dense eval forward when bound.
  const auto x = random_tensor(tensor::Shape({5, 6}), 93);
  EXPECT_TRUE(serve::Compiler()
                  .compile(foldable)
                  .forward(x)
                  .allclose(foldable.forward(x), 1e-4f));
  EXPECT_TRUE(serve::Compiler()
                  .compile(unfoldable)
                  .forward(x)
                  .allclose(unfoldable.forward(x), 1e-4f));
}

TEST(Passes, FreeAfterLastUseReleasesEachIntermediateOnce) {
  models::ResNetConfig cfg;
  cfg.depth = 18;
  cfg.image_size = 8;
  cfg.num_classes = 4;
  cfg.width_multiplier = 0.07;
  util::Rng rng(94);
  models::ResNet resnet(cfg, rng);
  resnet.forward(random_tensor(tensor::Shape({2, 3, 8, 8}), 95));
  resnet.set_training(false);

  serve::Compiler compiler;
  serve::Plan plan = compiler.plan(resnet);
  ASSERT_EQ(plan.release_after.size(), plan.size());
  std::vector<std::size_t> released_at(plan.size(),
                                       serve::Plan::kInputId);
  for (std::size_t i = 0; i < plan.release_after.size(); ++i) {
    for (const std::size_t id : plan.release_after[i]) {
      EXPECT_EQ(released_at[id], serve::Plan::kInputId)
          << "node " << id << " released twice";
      released_at[id] = i;
    }
  }
  // Every intermediate except the output dies exactly once, no earlier
  // than its last consumer.
  const std::vector<std::size_t> uses = plan.use_counts();
  for (std::size_t id = 0; id + 1 < plan.size(); ++id) {
    if (uses[id] == 0) continue;
    ASSERT_NE(released_at[id], serve::Plan::kInputId) << "node " << id;
    for (std::size_t i = released_at[id] + 1; i < plan.size(); ++i) {
      for (const std::size_t in : plan.ops[i].inputs) {
        EXPECT_NE(in, id) << "node " << id << " read after release";
      }
    }
  }
}

TEST(Plan, DumpAnnotatesCostShares) {
  CompiledHarness h(0.9, /*batch_norm=*/true);
  serve::Compiler compiler;
  serve::Plan plan = compiler.plan(h.model, &h.smodel);
  plan.validate();
  const tensor::Shape sample({12});
  const std::string dump = plan.dump(&sample);
  EXPECT_NE(dump.find("out="), std::string::npos);   // annotated shapes
  EXPECT_NE(dump.find("flops="), std::string::npos);
  EXPECT_NE(dump.find("%)"), std::string::npos);  // cost shares
  // annotate()'s per-node weight bytes sum to the plan's total (no node
  // double-counted, none dropped), and the bound net reports that total.
  std::size_t node_bytes = 0;
  for (const auto& c : plan.annotate(sample)) node_bytes += c.weight_bytes;
  EXPECT_GT(node_bytes, 0u);
  EXPECT_EQ(node_bytes, plan.total_weight_bytes());
  const std::size_t total_bytes = plan.total_weight_bytes();
  // The plan is still bindable after inspection.
  const auto net = compiler.bind(std::move(plan));
  EXPECT_EQ(net.total_weight_bytes(), total_bytes);
  const auto x = random_tensor(tensor::Shape({3, 12}), 412);
  EXPECT_TRUE(
      net.forward(x).equals(serve::CompiledNet::compile(h.model, &h.smodel)
                                .forward(x)));
}

// ---------------------------------------------------------------------
// Checkpoint delta format v4 + the plan-level ApplyDelta patch path.

/// One faked DST step touching ONLY `layer_idx`: flip one mask position
/// each way and jitter a few surviving values. Confining the edit to a
/// single layer is what lets the tests assert the patch rebuilds just
/// that layer's plan node.
void perturb_layer(sparse::SparseModel& state, std::size_t layer_idx) {
  sparse::MaskedParameter& layer = state.layer(layer_idx);
  const std::vector<std::size_t> active = layer.mask().active_indices();
  const std::vector<std::size_t> inactive = layer.mask().inactive_indices();
  ASSERT_GE(active.size(), 4u);
  ASSERT_GE(inactive.size(), 1u);
  layer.mask().deactivate(active[0]);
  layer.mask().activate(inactive[0]);
  layer.param().value[inactive[0]] = 0.125f;
  for (std::size_t k = 1; k < 4; ++k) {
    layer.param().value[active[k]] += 0.25f * static_cast<float>(k);
  }
  layer.apply_mask_to_value();
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The message of the CheckError `fn` throws; empty when it throws none.
template <typename Fn>
std::string check_message(Fn&& fn) {
  try {
    fn();
  } catch (const util::CheckError& e) {
    return e.what();
  }
  return "";
}

::testing::AssertionResult mentions(const std::string& message,
                                    const std::string& part) {
  if (message.find(part) != std::string::npos) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "\"" << message << "\" does not mention \"" << part << "\"";
}

TEST(Delta, MlpPatchBitIdenticalToFullRecompileAndSharesUntouched) {
  CompiledHarness base(0.9, false, 0.0, 11);
  serve::Compiler compiler;
  serve::Plan base_plan = compiler.plan(base.model, &base.smodel);
  serve::Plan bound = base_plan;
  const auto base_net = compiler.bind(std::move(bound));

  // Identical twin (same seed), advanced one DST step in layer 1 only.
  CompiledHarness next(0.9, false, 0.0, 11);
  perturb_layer(next.smodel, 1);
  const serve::CheckpointDelta delta =
      serve::make_delta(base.model, &base.smodel, next.model, &next.smodel);
  ASSERT_EQ(delta.sparse_layers.size(), 1u);
  EXPECT_EQ(delta.sparse_layers[0].layer, 1u);
  EXPECT_EQ(delta.sparse_layers[0].removed.size(), 1u);
  EXPECT_EQ(delta.sparse_layers[0].added.size(), 1u);
  EXPECT_EQ(delta.sparse_layers[0].changed.size(), 3u);
  EXPECT_TRUE(delta.dense_params.empty());  // biases did not move

  // Disk round trip preserves the delta exactly.
  const std::string path = "serve_ckpt/mlp_step.delta";
  serve::save_delta(path, delta);
  const serve::CheckpointDelta loaded = serve::load_delta(path);
  EXPECT_EQ(loaded.base_hash, delta.base_hash);
  EXPECT_EQ(loaded.result_hash, delta.result_hash);
  ASSERT_EQ(loaded.sparse_layers.size(), 1u);
  EXPECT_EQ(loaded.sparse_layers[0].added, delta.sparse_layers[0].added);
  EXPECT_EQ(loaded.sparse_layers[0].changed,
            delta.sparse_layers[0].changed);

  serve::apply_delta(loaded, base.model, &base.smodel);
  const serve::PlanPatch patch = serve::apply_delta_to_plan(
      base_plan, loaded, base.model, &base.smodel);
  EXPECT_FALSE(patch.needs_full_recompile);
  EXPECT_EQ(patch.total_weight_nodes, 3u);    // 3 Linear layers
  EXPECT_EQ(patch.patched_weight_nodes, 1u);  // only layer 1 rebuilt

  // Untouched nodes keep the base plan's exact matrices (the zero-copy
  // seam clone_shared builds on); the touched node got a fresh one.
  const auto csr_of = [](const serve::Plan& p, std::size_t ordinal) {
    for (const serve::PlanOp& op : p.ops) {
      if (op.kind == serve::PlanOpKind::kSpmm &&
          op.sparse_ordinal == ordinal) {
        return static_cast<const sparse::CsrMatrix*>(op.csr.get());
      }
    }
    return static_cast<const sparse::CsrMatrix*>(nullptr);
  };
  EXPECT_EQ(csr_of(patch.plan, 0), csr_of(base_plan, 0));
  EXPECT_NE(csr_of(patch.plan, 1), csr_of(base_plan, 1));
  EXPECT_EQ(csr_of(patch.plan, 2), csr_of(base_plan, 2));

  // The patched program is BIT-identical to recompiling the updated
  // model from scratch, and serves the perturbed model's answers.
  serve::Plan patched_plan = patch.plan;
  const auto patched_net = compiler.bind(std::move(patched_plan));
  const auto full_net = compiler.compile(base.model, &base.smodel);
  const auto x = random_tensor(tensor::Shape({5, 12}), 77);
  EXPECT_TRUE(patched_net.forward(x).equals(full_net.forward(x)));
  EXPECT_TRUE(patched_net.forward(x).allclose(next.model.forward(x), 1e-4f));
  EXPECT_EQ(patched_net.total_nnz(), base.smodel.total_active());
}

TEST(Delta, ResNetDeltaRefoldsBatchNormThroughCheckpoint) {
  const std::string base_path = "serve_ckpt/delta_resnet_base.bin";
  const std::string delta_path = "serve_ckpt/delta_resnet_step.delta";
  models::ResNetConfig cfg;
  cfg.depth = 18;
  cfg.image_size = 8;
  cfg.num_classes = 4;
  cfg.width_multiplier = 0.07;

  util::Rng rng(51);
  models::ResNet trained(cfg, rng);
  sparse::SparseModel trained_state(trained, 0.85,
                                    sparse::DistributionKind::kErk, rng);
  trained.forward(random_tensor(tensor::Shape({4, 3, 8, 8}), 97));
  trained.set_training(false);
  train::save_checkpoint(base_path, trained, &trained_state);

  // "Next" state: the checkpoint plus one DST step on conv layer 2, a
  // batch-norm affine nudge and a running-stat drift — the folded-BN
  // paths a real training step would touch.
  util::Rng rng_next(52);
  models::ResNet next(cfg, rng_next);
  sparse::SparseModel next_state(next, 0.85,
                                 sparse::DistributionKind::kErk, rng_next);
  train::load_checkpoint(base_path, next, &next_state);
  next.set_training(false);
  // ERK leaves the tiniest conv layers fully dense; step the first layer
  // that actually has sparse headroom to flip a position each way.
  std::size_t dst_layer = next_state.num_layers();
  for (std::size_t l = 0; l < next_state.num_layers(); ++l) {
    if (next_state.layer(l).mask().active_indices().size() >= 4 &&
        !next_state.layer(l).mask().inactive_indices().empty()) {
      dst_layer = l;
      break;
    }
  }
  ASSERT_LT(dst_layer, next_state.num_layers());
  perturb_layer(next_state, dst_layer);
  serve::LoweredModules mods = serve::collect_lowered_modules(next);
  ASSERT_GT(mods.bns.size(), 1u);
  const nn::BatchNorm* bn = mods.bns[1];
  for (nn::Parameter* p : next.parameters()) {
    if (p == &bn->gamma()) p->value[0] += 0.05f;
  }
  for (tensor::Tensor* b : next.state_buffers()) {
    if (b == &bn->running_mean()) (*b)[0] += 0.01f;
  }

  // Fresh base from the checkpoint; diff, round-trip, apply, patch.
  util::Rng rng_base(53);
  models::ResNet base(cfg, rng_base);
  sparse::SparseModel base_state(base, 0.85,
                                 sparse::DistributionKind::kErk, rng_base);
  train::load_checkpoint(base_path, base, &base_state);
  base.set_training(false);
  const serve::CheckpointDelta delta =
      serve::make_delta(base, &base_state, next, &next_state);
  EXPECT_FALSE(delta.empty());
  serve::save_delta(delta_path, delta);
  const serve::CheckpointDelta loaded = serve::load_delta(delta_path);

  serve::Compiler compiler;
  serve::Plan base_plan = compiler.plan(base, &base_state);
  serve::apply_delta(loaded, base, &base_state);
  const serve::PlanPatch patch =
      serve::apply_delta_to_plan(base_plan, loaded, base, &base_state);
  EXPECT_FALSE(patch.needs_full_recompile);
  EXPECT_GT(patch.patched_weight_nodes, 0u);
  EXPECT_LT(patch.patched_weight_nodes, patch.total_weight_nodes);

  serve::Plan patched_plan = patch.plan;
  const auto patched_net = compiler.bind(std::move(patched_plan));
  const auto full_net = compiler.compile(base, &base_state);
  const auto x = random_tensor(tensor::Shape({2, 3, 8, 8}), 98);
  EXPECT_TRUE(patched_net.forward(x).equals(full_net.forward(x)));
  EXPECT_TRUE(patched_net.forward(x).allclose(next.forward(x), 1e-4f));
}

TEST(Delta, RejectedDeltaFailsLoudlyAndMutatesNothing) {
  CompiledHarness a(0.9, false, 0.0, 11);
  CompiledHarness b(0.9, false, 0.0, 11);
  perturb_layer(b.smodel, 0);
  const serve::CheckpointDelta delta =
      serve::make_delta(a.model, &a.smodel, b.model, &b.smodel);

  // Wrong base (different seed): rejected up front.
  CompiledHarness other(0.9, false, 0.0, 99);
  const std::uint64_t before =
      serve::model_state_hash(other.model, &other.smodel);
  EXPECT_THROW(serve::apply_delta(delta, other.model, &other.smodel),
               util::CheckError);
  EXPECT_EQ(serve::model_state_hash(other.model, &other.smodel), before);

  // Right base, rejected later: every entry applied before the failing
  // check is undone, so the model still hashes to the base.
  serve::CheckpointDelta wrong_result = delta;
  wrong_result.result_hash ^= 1;
  serve::CheckpointDelta bad_entry = delta;  // the valid layer-0 entries run
  serve::SparseLayerDelta inactive;
  inactive.layer = 1;
  inactive.removed = {a.smodel.layer(1).mask().inactive_indices().front()};
  bad_entry.sparse_layers.push_back(inactive);
  serve::CheckpointDelta bad_dense = delta;  // a dense tensor is written
  const std::vector<nn::Parameter*> params = a.model.parameters();
  bad_dense.dense_params.push_back(
      {params.size() - 1,
       std::vector<float>(params.back()->value.numel(), 0.5f)});
  bad_dense.dense_params.push_back({params.size(), {}});  // out of range
  for (const serve::CheckpointDelta* bad :
       {&wrong_result, &bad_entry, &bad_dense}) {
    EXPECT_THROW(serve::apply_delta(*bad, a.model, &a.smodel),
                 util::CheckError);
    EXPECT_EQ(serve::model_state_hash(a.model, &a.smodel), delta.base_hash);
  }

  // Applying twice: the first moves the state to result_hash, so the
  // second no longer matches the base.
  serve::apply_delta(delta, a.model, &a.smodel);
  EXPECT_EQ(serve::model_state_hash(a.model, &a.smodel), delta.result_hash);
  EXPECT_THROW(serve::apply_delta(delta, a.model, &a.smodel),
               util::CheckError);
}

TEST(Delta, WrongVerifiedHashIsABaseMismatchAndWritesNothing) {
  CompiledHarness a(0.9, false, 0.0, 11);
  CompiledHarness b(0.9, false, 0.0, 11);
  perturb_layer(b.smodel, 0);
  const serve::CheckpointDelta delta =
      serve::make_delta(a.model, &a.smodel, b.model, &b.smodel);
  const tensor::Tensor weights = a.smodel.layer(0).param().value;
  const sparse::Mask mask = a.smodel.layer(0).mask();

  // The model is the delta's base, but the caller vouches for another
  // hash: the overload trusts it, so the base check fails with the
  // 3-argument form's message naming that hash, before any write.
  const std::uint64_t wrong = delta.base_hash ^ 1;
  const std::string message = check_message([&] {
    serve::apply_delta(delta, a.model, &a.smodel, wrong);
  });
  EXPECT_TRUE(mentions(message, "delta base mismatch"));
  EXPECT_TRUE(mentions(message, "the model hashes to " + std::to_string(wrong)));
  EXPECT_EQ(serve::model_state_hash(a.model, &a.smodel), delta.base_hash);
  EXPECT_TRUE(a.smodel.layer(0).param().value.equals(weights));
  EXPECT_TRUE(a.smodel.layer(0).mask() == mask);
}

TEST(Delta, StateHashOfSeededModelsIsPinned) {
  // model_state_hash mixes each mask as its 0.0f / 1.0f float form, so
  // every base_hash and result_hash keeps the value it had when masks
  // were stored as floats. The literals were computed that way. Every
  // MLP layer has an odd position count, so its last position pairs
  // with the zero padding.
  {
    util::Rng rng(2027);
    models::MlpConfig cfg;
    cfg.in_features = 13;
    cfg.hidden = {31, 17};
    cfg.out_features = 5;
    models::Mlp model(cfg, rng);
    sparse::SparseModel state(model, 0.9, sparse::DistributionKind::kErk,
                              rng);
    EXPECT_EQ(serve::model_state_hash(model, &state), 0x6ce2b2d0432cf9ebull);
  }
  {
    util::Rng rng(2029);
    models::ResNetConfig cfg;
    cfg.depth = 18;
    cfg.image_size = 32;
    cfg.num_classes = 10;
    cfg.width_multiplier = 0.25;
    models::ResNet model(cfg, rng);
    sparse::SparseModel state(model, 0.9, sparse::DistributionKind::kErk,
                              rng);
    EXPECT_EQ(serve::model_state_hash(model, &state), 0x65fd6730fdc34424ull);
  }
}

TEST(Delta, VerifiedHashOverloadEqualsTheThreeArgumentFormAlongAChain) {
  // Two twins walk one chain: `full` through the 3-argument form, which
  // hashes base and result, `cached` through the overload keyed by the
  // last verified result hash, which hashes the result only. `prev` and
  // `next` make each step's delta.
  CompiledHarness full(0.9, false, 0.0, 13);
  CompiledHarness cached(0.9, false, 0.0, 13);
  CompiledHarness prev(0.9, false, 0.0, 13);
  CompiledHarness next(0.9, false, 0.0, 13);
  std::uint64_t verified =
      serve::model_state_hash(cached.model, &cached.smodel);
  for (std::size_t step = 0; step < 4; ++step) {
    SCOPED_TRACE(step);
    const std::size_t layer = step % next.smodel.num_layers();
    perturb_layer(next.smodel, layer);
    const serve::CheckpointDelta delta =
        serve::make_delta(prev.model, &prev.smodel, next.model, &next.smodel);
    perturb_layer(prev.smodel, layer);
    ASSERT_EQ(delta.base_hash, verified);

    const std::uint64_t h0 = serve::state_hashes_on_this_thread();
    serve::apply_delta(delta, full.model, &full.smodel);
    const std::uint64_t h1 = serve::state_hashes_on_this_thread();
    serve::apply_delta(delta, cached.model, &cached.smodel, verified);
    const std::uint64_t h2 = serve::state_hashes_on_this_thread();
    EXPECT_EQ(h1 - h0, 2u);
    EXPECT_EQ(h2 - h1, 1u);
    verified = delta.result_hash;

    const std::vector<nn::Parameter*> fp = full.model.parameters();
    const std::vector<nn::Parameter*> cp = cached.model.parameters();
    ASSERT_EQ(fp.size(), cp.size());
    for (std::size_t i = 0; i < fp.size(); ++i) {
      EXPECT_TRUE(fp[i]->value.equals(cp[i]->value)) << "parameter " << i;
    }
    for (std::size_t l = 0; l < full.smodel.num_layers(); ++l) {
      EXPECT_TRUE(full.smodel.layer(l).mask() == cached.smodel.layer(l).mask())
          << "mask " << l;
    }
    EXPECT_EQ(serve::model_state_hash(cached.model, &cached.smodel),
              delta.result_hash);
  }
}

TEST(Delta, LoadersRejectEachOthersFormats) {
  CompiledHarness a(0.9, false, 0.0, 11);
  CompiledHarness b(0.9, false, 0.0, 11);
  perturb_layer(b.smodel, 0);
  const serve::CheckpointDelta delta =
      serve::make_delta(a.model, &a.smodel, b.model, &b.smodel);

  const std::string full_path = "serve_ckpt/reject_full.bin";
  const std::string delta_path = "serve_ckpt/reject_step.delta";
  train::save_checkpoint(full_path, a.model, &a.smodel);
  serve::save_delta(delta_path, delta);

  // A full checkpoint is not a delta, and vice versa — both loaders
  // reject the other's file with a pointer at the right entry point.
  EXPECT_THROW(serve::load_delta(full_path), util::CheckError);
  EXPECT_THROW(train::load_checkpoint(delta_path, a.model, &a.smodel),
               util::CheckError);
  EXPECT_TRUE(mentions(check_message([&] { serve::load_delta(full_path); }),
                       "load it with train::load_checkpoint"));
  EXPECT_TRUE(mentions(check_message([&] {
                         train::load_checkpoint(delta_path, a.model, &a.smodel);
                       }),
                       "is a sparse delta (v4); apply it to its base model "
                       "with serve::load_delta"));

  // The same delta patched to version 3, which was keyed by the old state
  // hash: load_delta asks for a new one, load_checkpoint still points at
  // load_delta.
  std::string bytes = read_bytes(delta_path);
  const std::uint32_t v3 = 3;
  std::memcpy(bytes.data() + 4, &v3, sizeof(v3));
  const std::string v3_path = "serve_ckpt/reject_step_v3.delta";
  write_bytes(v3_path, bytes);
  EXPECT_THROW(serve::load_delta(v3_path), util::CheckError);
  const std::string v3_message =
      check_message([&] { serve::load_delta(v3_path); });
  EXPECT_TRUE(mentions(v3_message, "keyed by the old state hash"));
  EXPECT_TRUE(mentions(v3_message, "re-make it with serve::make_delta"));
  EXPECT_TRUE(mentions(check_message([&] {
                         train::load_checkpoint(v3_path, a.model, &a.smodel);
                       }),
                       "is a sparse delta (v3); apply it to its base model "
                       "with serve::load_delta"));
}

TEST(Delta, HugeCountFailsWithCheckError) {
  // The sparse-section count follows the header (4-byte magic, u32
  // version, base and result hashes); the first section's removed count
  // follows its layer index. A corrupt delta that sets either field to
  // 2^40 must fail with a CheckError before the count sizes anything.
  CompiledHarness a(0.9, false, 0.0, 11);
  CompiledHarness b(0.9, false, 0.0, 11);
  perturb_layer(b.smodel, 0);
  const std::string path = "serve_ckpt/huge_count.delta";
  serve::save_delta(
      path, serve::make_delta(a.model, &a.smodel, b.model, &b.smodel));
  const std::string bytes = read_bytes(path);
  constexpr std::size_t kSectionsAt = 4 + 4 + 8 + 8;
  constexpr std::size_t kRemovedAt = kSectionsAt + 8 + 8;
  std::uint64_t field = 0;
  ASSERT_GT(bytes.size(), kRemovedAt + sizeof(field));
  std::memcpy(&field, bytes.data() + kSectionsAt, sizeof(field));
  ASSERT_EQ(field, 1u);  // one sparse section: layer 0
  std::memcpy(&field, bytes.data() + kRemovedAt, sizeof(field));
  ASSERT_EQ(field, 1u);  // one removed position

  const std::uint64_t huge = std::uint64_t{1} << 40;
  for (const std::size_t at : {kSectionsAt, kRemovedAt}) {
    std::string patched = bytes;
    std::memcpy(patched.data() + at, &huge, sizeof(huge));
    const std::string bad = "serve_ckpt/huge_count_patched.delta";
    write_bytes(bad, patched);
    EXPECT_THROW(serve::load_delta(bad), util::CheckError)
        << "field at byte " << at;
  }
}

TEST(Delta, StateHashSeesEveryTensorAndMaskBit) {
  // Twins from one seed hash equal. Each edit below is the smallest one a
  // DST-EE round or a batch-norm update makes, and each moves the hash.
  CompiledHarness a(0.9, /*batch_norm=*/true, 0.0, 11);
  CompiledHarness b(0.9, /*batch_norm=*/true, 0.0, 11);
  const auto hash = [&a] {
    return serve::model_state_hash(a.model, &a.smodel);
  };
  const std::uint64_t base = hash();
  EXPECT_EQ(serve::model_state_hash(b.model, &b.smodel), base);

  // The lowest bit of one parameter value.
  sparse::MaskedParameter& layer = a.smodel.layer(1);
  const std::vector<std::size_t> active = layer.mask().active_indices();
  const std::vector<std::size_t> inactive = layer.mask().inactive_indices();
  ASSERT_FALSE(active.empty());
  ASSERT_FALSE(inactive.empty());
  float& weight = layer.param().value[active.front()];
  const float kept = weight;
  std::uint32_t bits = 0;
  std::memcpy(&bits, &weight, sizeof(bits));
  bits ^= 1u;
  std::memcpy(&weight, &bits, sizeof(bits));
  EXPECT_NE(hash(), base);
  weight = kept;
  EXPECT_EQ(hash(), base);

  // A grow that leaves the value at 0.0, as DstEngine's grow does: only
  // the mask moves.
  const std::size_t grown = inactive.front();
  ASSERT_EQ(layer.param().value[grown], 0.0f);
  layer.mask().activate(grown);
  EXPECT_NE(hash(), base);
  layer.mask().deactivate(grown);
  EXPECT_EQ(hash(), base);

  // One batch-norm running statistic, by one ulp.
  const std::vector<tensor::Tensor*> buffers = a.model.state_buffers();
  ASSERT_FALSE(buffers.empty());
  float& stat = (*buffers.back())[0];
  stat = std::nextafter(stat, std::numeric_limits<float>::infinity());
  EXPECT_NE(hash(), base);
}

/// A 70%-sparse MLP whose delta, when every weight moves, spans more than
/// two of load_delta's 64 KiB windows, so its fields straddle refills.
struct WideHarness {
  explicit WideHarness(std::uint64_t seed)
      : rng(seed), model(cfg(), rng),
        smodel(model, 0.7, sparse::DistributionKind::kUniform, rng) {
    model.set_training(false);
  }

  static models::MlpConfig cfg() {
    models::MlpConfig c;
    c.in_features = 64;
    c.hidden = {256, 128};
    c.out_features = 10;
    return c;
  }

  /// One faked training step: a position flips each way in every layer,
  /// every active weight moves and every bias moves.
  void step() {
    std::unordered_set<const nn::Parameter*> masked;
    for (std::size_t l = 0; l < smodel.num_layers(); ++l) {
      perturb_layer(smodel, l);
      masked.insert(&smodel.layer(l).param());
    }
    for (nn::Parameter* p : model.parameters()) {
      if (masked.count(p) == 0) {
        p->value[0] += 0.25f;
      } else {
        for (std::size_t i = 0; i < p->value.numel(); ++i) {
          p->value[i] *= 1.5f;  // inactive positions stay zero
        }
      }
    }
  }

  util::Rng rng;
  models::Mlp model;
  sparse::SparseModel smodel;
};

void expect_same_delta(const serve::CheckpointDelta& a,
                       const serve::CheckpointDelta& b) {
  EXPECT_EQ(a.base_hash, b.base_hash);
  EXPECT_EQ(a.result_hash, b.result_hash);
  ASSERT_EQ(a.sparse_layers.size(), b.sparse_layers.size());
  for (std::size_t i = 0; i < a.sparse_layers.size(); ++i) {
    EXPECT_EQ(a.sparse_layers[i].layer, b.sparse_layers[i].layer);
    EXPECT_EQ(a.sparse_layers[i].removed, b.sparse_layers[i].removed);
    EXPECT_EQ(a.sparse_layers[i].added, b.sparse_layers[i].added);
    EXPECT_EQ(a.sparse_layers[i].changed, b.sparse_layers[i].changed);
  }
  for (const auto& [x, y] : {std::pair{&a.dense_params, &b.dense_params},
                             std::pair{&a.state_buffers, &b.state_buffers}}) {
    ASSERT_EQ(x->size(), y->size());
    for (std::size_t i = 0; i < x->size(); ++i) {
      EXPECT_EQ((*x)[i].index, (*y)[i].index);
      EXPECT_EQ((*x)[i].values, (*y)[i].values);
    }
  }
}

/// (byte offset, value) of every count field in `delta`'s file, walking
/// the v4 layout: the header, then per sparse section the layer and the
/// removed/added/changed lists, then the two dense lists.
std::vector<std::pair<std::size_t, std::uint64_t>> count_fields(
    const serve::CheckpointDelta& delta) {
  constexpr std::size_t kU64 = 8;
  constexpr std::size_t kPair = 8 + 4;  // index, value
  std::vector<std::pair<std::size_t, std::uint64_t>> fields;
  std::size_t at = 4 + 4 + kU64 + kU64;  // magic, version, both hashes
  const auto count = [&](std::uint64_t n, std::size_t item_bytes) {
    fields.emplace_back(at, n);
    at += kU64 + n * item_bytes;
  };
  count(delta.sparse_layers.size(), 0);
  for (const serve::SparseLayerDelta& s : delta.sparse_layers) {
    at += kU64;  // layer
    count(s.removed.size(), kU64);
    count(s.added.size(), kPair);
    count(s.changed.size(), kPair);
  }
  for (const auto* list : {&delta.dense_params, &delta.state_buffers}) {
    count(list->size(), 0);
    for (const serve::DenseTensorDelta& d : *list) {
      at += kU64;  // index
      count(d.values.size(), sizeof(float));
    }
  }
  return fields;
}

TEST(Delta, LoaderMutationFuzzReturnsOrThrowsCheckError) {
  constexpr std::uint64_t kSeed = 17;
  auto base = std::make_unique<WideHarness>(kSeed);
  WideHarness next(kSeed);
  next.step();
  const serve::CheckpointDelta delta =
      serve::make_delta(base->model, &base->smodel, next.model, &next.smodel);
  const std::string path = "serve_ckpt/fuzz.delta";
  serve::save_delta(path, delta);
  const std::string bytes = read_bytes(path);
  ASSERT_GT(bytes.size(), 2 * (std::size_t{64} << 10));
  expect_same_delta(serve::load_delta(path), delta);

  // Loads `mutant`; returns whether it loaded. Any exception but a
  // CheckError escapes and fails the test. A mutant that loads must take
  // the base to its result_hash, or be rejected leaving the base intact.
  const std::string mutant_path = "serve_ckpt/fuzz_mutant.delta";
  std::size_t loaded_count = 0;
  const auto load_and_apply = [&](const std::string& mutant) {
    write_bytes(mutant_path, mutant);
    serve::CheckpointDelta loaded;
    try {
      loaded = serve::load_delta(mutant_path);
    } catch (const util::CheckError&) {
      return false;
    }
    ++loaded_count;
    try {
      serve::apply_delta(loaded, base->model, &base->smodel);
    } catch (const util::CheckError&) {
      EXPECT_EQ(serve::model_state_hash(base->model, &base->smodel),
                delta.base_hash);
      return true;
    }
    EXPECT_EQ(serve::model_state_hash(base->model, &base->smodel),
              loaded.result_hash);
    base = std::make_unique<WideHarness>(kSeed);  // back to the base
    return true;
  };

  // Truncated anywhere, the file is short of a field it needs.
  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n < 64; ++n) cuts.push_back(n);
  for (std::size_t n = 64; n < bytes.size(); n += 4099) cuts.push_back(n);
  cuts.push_back(bytes.size() - 1);
  for (const std::size_t n : cuts) {
    EXPECT_FALSE(load_and_apply(bytes.substr(0, n))) << "cut at byte " << n;
  }

  // Every count field, inflated: 2^40 cannot fit in the bytes left.
  const auto fields = count_fields(delta);
  EXPECT_EQ(fields.size(), 1 + 3 * delta.sparse_layers.size() + 2 +
                               delta.dense_params.size() +
                               delta.state_buffers.size());
  for (const auto& [at, count] : fields) {
    std::uint64_t stored = 0;
    std::memcpy(&stored, bytes.data() + at, sizeof(stored));
    ASSERT_EQ(stored, count) << "count field at byte " << at;
    for (const std::uint64_t inflated : {std::uint64_t{1} << 40, count + 1}) {
      std::string mutant = bytes;
      std::memcpy(mutant.data() + at, &inflated, sizeof(inflated));
      const bool loaded = load_and_apply(mutant);
      if (inflated == std::uint64_t{1} << 40) {
        EXPECT_FALSE(loaded) << "count field at byte " << at;
      }
    }
  }

  // Every bit of the first 64 bytes, flipped: the magic, the version, both
  // hashes, the section count and the first section's head.
  for (std::size_t bit = 0; bit < 64 * 8; ++bit) {
    std::string mutant = bytes;
    mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
    load_and_apply(mutant);
  }
  // At least the 128 hash-bit flips load, so apply_delta ran on them.
  EXPECT_GE(loaded_count, 128u);

  // The base survived every rejected mutant: the real delta still applies.
  serve::apply_delta(delta, base->model, &base->smodel);
  EXPECT_EQ(serve::model_state_hash(base->model, &base->smodel),
            delta.result_hash);
}

// --- Observability: measured costs, op profiles, tracing ---------------

TEST(Plan, AnnotateOverridesSharesWithMeasuredProfile) {
  CompiledHarness h(0.9);
  serve::Plan plan = serve::Compiler().plan(h.model, &h.smodel);
  const tensor::Shape sample({12});

  // A size-mismatched profile is ignored: analytic shares stand.
  obs::OpProfile wrong_size(plan.ops.size() + 1);
  const auto analytic = plan.annotate(sample);
  const auto ignored = plan.annotate(sample, &wrong_size);
  ASSERT_EQ(ignored.size(), analytic.size());
  for (std::size_t i = 0; i < analytic.size(); ++i) {
    EXPECT_DOUBLE_EQ(ignored[i].share, analytic[i].share);
    EXPECT_DOUBLE_EQ(ignored[i].measured_ms, 0.0);
  }
  // So is an attached-but-empty profile (nothing measured yet).
  obs::OpProfile empty(plan.ops.size());
  const auto still_analytic = plan.annotate(sample, &empty);
  for (std::size_t i = 0; i < analytic.size(); ++i) {
    EXPECT_DOUBLE_EQ(still_analytic[i].share, analytic[i].share);
  }

  // Measured time replaces the shares: 3ms on node 0, 1ms on node 1.
  obs::OpProfile measured(plan.ops.size());
  measured.add(0, 3'000'000);
  measured.add(1, 1'000'000);
  const auto costs = plan.annotate(sample, &measured);
  EXPECT_DOUBLE_EQ(costs[0].share, 0.75);
  EXPECT_DOUBLE_EQ(costs[0].measured_ms, 3.0);
  EXPECT_DOUBLE_EQ(costs[1].share, 0.25);
  EXPECT_DOUBLE_EQ(costs[1].measured_ms, 1.0);
  for (std::size_t i = 2; i < costs.size(); ++i) {
    EXPECT_DOUBLE_EQ(costs[i].share, 0.0);
    EXPECT_DOUBLE_EQ(costs[i].measured_ms, 0.0);
  }
  // The FLOPs column is analytic and unaffected by measurement.
  EXPECT_DOUBLE_EQ(costs[0].flops, analytic[0].flops);
}

TEST(CompiledNet, ProfileOpsAccumulatesAndIsSharedAcrossClones) {
  CompiledHarness h(0.9);
  serve::CompileOptions opts;
  opts.profile_ops = true;
  const auto net =
      serve::Compiler(opts).compile(h.model, &h.smodel);
  const obs::OpProfile* profile = net.op_profile();
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->size(), net.num_ops());
  EXPECT_EQ(profile->total_ns(), 0);

  net.forward(random_tensor(tensor::Shape({4, 12}), 606));
  std::uint64_t calls = 0;
  for (std::size_t i = 0; i < profile->size(); ++i) {
    calls += profile->node_calls(i);
  }
  EXPECT_EQ(calls, net.num_ops());  // every node timed exactly once

  // Replica clones aggregate into the SAME profile, so shard counts sum.
  const auto replica = net.clone();
  EXPECT_EQ(replica.op_profile(), profile);
  replica.forward(random_tensor(tensor::Shape({4, 12}), 607));
  calls = 0;
  for (std::size_t i = 0; i < profile->size(); ++i) {
    calls += profile->node_calls(i);
  }
  EXPECT_EQ(calls, 2 * net.num_ops());

  // Off by default: no profile, no timing.
  const auto plain = serve::CompiledNet::compile(h.model, &h.smodel);
  EXPECT_EQ(plain.op_profile(), nullptr);
}

TEST(Server, TraceSpansTileRequestLatencyExactly) {
  // queue = [enqueued, popped] and batch = [popped, done] derive from the
  // same three integer stamps as request = [enqueued, done], so the two
  // child spans tile the request span EXACTLY — no slack.
  CompiledHarness h(0.8);
  const auto net = serve::CompiledNet::compile(h.model, &h.smodel);
  obs::trace().enable(/*sample_every=*/1);
  serve::ServerConfig cfg;
  cfg.num_threads = 2;
  cfg.max_batch = 4;
  cfg.max_delay_ms = 0.5;
  serve::InferenceServer server(net, cfg);
  std::vector<std::future<tensor::Tensor>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        server.submit(random_tensor(tensor::Shape({12}), 620 + i)));
  }
  for (auto& f : futures) f.get();
  server.shutdown();
  obs::trace().disable();

  struct Lane {
    const obs::TraceEvent* request = nullptr;
    const obs::TraceEvent* queue = nullptr;
    const obs::TraceEvent* batch = nullptr;
  };
  std::map<std::uint64_t, Lane> lanes;
  std::size_t op_spans = 0;
  const std::vector<obs::TraceEvent> events = obs::trace().drain();
  for (const obs::TraceEvent& ev : events) {
    if (ev.kind == obs::SpanKind::kOp) ++op_spans;
    if (!obs::is_request_scoped(ev.kind)) continue;
    Lane& lane = lanes[ev.trace_id];
    if (ev.kind == obs::SpanKind::kRequest) lane.request = &ev;
    if (ev.kind == obs::SpanKind::kQueue) lane.queue = &ev;
    if (ev.kind == obs::SpanKind::kBatch) lane.batch = &ev;
  }
  // The global recorder is shared across tests; only require that OUR
  // requests produced complete lanes (other tests may leave partial
  // rings behind). At sample_every=1 all 8 lanes must be complete.
  std::size_t complete = 0;
  for (const auto& [trace_id, lane] : lanes) {
    if (lane.request == nullptr || lane.queue == nullptr ||
        lane.batch == nullptr) {
      continue;
    }
    ++complete;
    EXPECT_EQ(lane.queue->ts_ns, lane.request->ts_ns) << trace_id;
    EXPECT_EQ(lane.batch->ts_ns, lane.queue->ts_ns + lane.queue->dur_ns)
        << trace_id;
    EXPECT_EQ(lane.queue->dur_ns + lane.batch->dur_ns,
              lane.request->dur_ns)
        << trace_id;
  }
  EXPECT_GE(complete, 8u);
  EXPECT_GT(op_spans, 0u);  // executor recorded per-PlanOp spans
}

TEST(Server, MetricsRegistryRecordsRequestsAndLatency) {
  CompiledHarness h(0.8);
  const auto net = serve::CompiledNet::compile(h.model, &h.smodel);
  obs::MetricsRegistry registry;
  serve::ServerConfig cfg;
  cfg.num_threads = 2;
  cfg.max_batch = 4;
  cfg.max_delay_ms = 0.5;
  cfg.metrics = &registry;
  cfg.metrics_label = "m0";
  serve::InferenceServer server(net, cfg);
  std::vector<std::future<tensor::Tensor>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(
        server.submit(random_tensor(tensor::Shape({12}), 630 + i)));
  }
  for (auto& f : futures) f.get();
  // Futures resolve before the worker bumps its counters; shutdown joins
  // the workers, so the snapshot taken after it is complete.
  server.shutdown();
  const serve::StatsSnapshot snapshot = server.stats();

  EXPECT_EQ(registry.counter("dstee_requests_total", "m0").value(), 6u);
  obs::Histogram& lat = registry.histogram("dstee_request_latency_ms", "m0");
  EXPECT_EQ(lat.count(), 6u);
  EXPECT_GE(registry.counter("dstee_batches_total", "m0").value(), 1u);

  // The batcher's decisions: each executed batch counts one flush reason
  // and one size, and each request one queue wait.
  const std::uint64_t batches =
      registry.counter("dstee_batches_total", "m0").value();
  std::uint64_t flushes = 0;
  for (const std::string reason :
       {"full", "window", "deadline", "shutdown", "idle"}) {
    flushes +=
        registry.counter("dstee_batch_flush_" + reason + "_total", "m0")
            .value();
  }
  EXPECT_EQ(flushes, batches);
  obs::Histogram& sizes = registry.histogram("dstee_batch_size", "m0");
  EXPECT_EQ(sizes.count(), batches);
  EXPECT_DOUBLE_EQ(sizes.sum(), 6.0);
  EXPECT_EQ(registry.histogram("dstee_queue_wait_ms", "m0").count(), 6u);

  // stats() reads these very series.
  EXPECT_EQ(snapshot.requests, 6u);
  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("dstee_requests_total{model=\"m0\"} 6"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dstee_request_latency_ms histogram"),
            std::string::npos);
}

// --- DST-EE delta chains: a swap patches every node by merge ----------

/// A sparse net trained by DST-EE with ΔT = 1, so every step is a
/// drop-and-grow round and SGD moves every active weight: each delta has
/// a section for every masked layer, as in perfbench's chains. `build`
/// makes the architecture; `served` is a twin loaded from the trainer's
/// starting checkpoint that follows the chain one delta behind.
struct DstEeChain {
  using Build = std::unique_ptr<nn::Sequential> (*)(util::Rng&);

  DstEeChain(Build build, std::unique_ptr<data::Dataset> dataset,
             const std::string& ckpt, std::size_t steps, std::uint64_t seed)
      : rng(seed),
        module(build(rng)),
        data(std::move(dataset)),
        opt(module->parameters(), sgd()),
        loader(*data, 4, rng.fork("loader")) {
    core::DstEeConfig ee;
    ee.sparsity = 0.9;
    ee.delta_t = 1;
    ee.stop_fraction = 1.0;
    session =
        std::make_unique<core::DstEeSession>(*module, opt, ee, steps + 1, seed);
    // Two training-mode batches move batch-norm statistics off their
    // init, so folding is not the identity.
    for (int i = 0; i < 2; ++i) module->forward(next_batch().examples);
    module->set_training(false);
    train::save_checkpoint(ckpt, *module, &session->sparse_model());
    util::Rng twin_rng(seed + 1);
    served = build(twin_rng);
    served_state = std::make_unique<sparse::SparseModel>(
        *served, 0.9, sparse::DistributionKind::kErk, twin_rng);
    train::load_checkpoint(ckpt, *served, served_state.get());
    served->set_training(false);
  }

  static optim::Sgd::Config sgd() {
    optim::Sgd::Config cfg;
    cfg.lr = 0.05;
    cfg.momentum = 0.9;
    return cfg;
  }

  data::DataLoader::Batch next_batch() {
    if (!loader.has_next()) loader.start_epoch();
    return loader.next_batch();
  }

  /// One training step, then the delta from `served` to the trainer.
  serve::CheckpointDelta step(std::size_t it) {
    module->set_training(true);
    const data::DataLoader::Batch batch = next_batch();
    module->zero_grad();
    loss.forward(module->forward(batch.examples), batch.labels);
    module->backward(loss.backward());
    session->on_iteration_end(it, sgd().lr);
    opt.step();
    session->after_optimizer_step();
    module->set_training(false);
    return serve::make_delta(*served, served_state.get(), *module,
                             &session->sparse_model());
  }

  util::Rng rng;
  std::unique_ptr<nn::Sequential> module;
  std::unique_ptr<data::Dataset> data;
  optim::Sgd opt;
  data::DataLoader loader;
  std::unique_ptr<core::DstEeSession> session;
  nn::SoftmaxCrossEntropy loss;
  std::unique_ptr<nn::Sequential> served;
  std::unique_ptr<sparse::SparseModel> served_state;
};

/// Every weight node of `a` and `b` holds the same row pointers, columns,
/// value bits and bias bits.
::testing::AssertionResult same_weights(const serve::Plan& a,
                                        const serve::Plan& b) {
  if (a.ops.size() != b.ops.size()) {
    return ::testing::AssertionFailure() << "node counts differ";
  }
  const auto same_bits = [](const float* x, const float* y, std::size_t n) {
    return std::memcmp(x, y, n * sizeof(float)) == 0;
  };
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    const serve::PlanOp& x = a.ops[i];
    const serve::PlanOp& y = b.ops[i];
    if ((x.csr == nullptr) != (y.csr == nullptr)) {
      return ::testing::AssertionFailure() << "node " << i << ": kind";
    }
    if (x.csr == nullptr) continue;
    if (x.csr->row_ptr() != y.csr->row_ptr() ||
        x.csr->col_idx() != y.csr->col_idx() ||
        x.csr->nnz() != y.csr->nnz() ||
        !same_bits(x.csr->values().data(), y.csr->values().data(),
                   x.csr->nnz())) {
      return ::testing::AssertionFailure() << "node " << i << ": matrix";
    }
    if (x.has_bias != y.has_bias || x.bias.numel() != y.bias.numel() ||
        !same_bits(x.bias.raw(), y.bias.raw(), x.bias.numel())) {
      return ::testing::AssertionFailure() << "node " << i << ": bias";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Runs `steps` DST-EE steps; each delta is applied to the served twin
/// and patched into its plan. Every patch must merge every node (none by
/// a dense scan) and equal a full recompile byte for byte.
void expect_chain_patches_by_merge(DstEeChain& chain,
                                   const serve::Compiler& compiler,
                                   const tensor::Tensor& x,
                                   std::size_t steps) {
  serve::Plan plan = compiler.plan(*chain.served, chain.served_state.get());
  std::size_t grown = 0;
  for (std::size_t k = 0; k < steps; ++k) {
    const serve::CheckpointDelta delta = chain.step(k);
    EXPECT_EQ(delta.sparse_layers.size(), chain.served_state->num_layers())
        << "step " << k;
    for (const serve::SparseLayerDelta& s : delta.sparse_layers) {
      grown += s.added.size();
    }
    serve::apply_delta(delta, *chain.served, chain.served_state.get());
    serve::PlanPatch patch = serve::apply_delta_to_plan(
        plan, delta, *chain.served, chain.served_state.get());
    ASSERT_FALSE(patch.needs_full_recompile) << "step " << k;
    EXPECT_EQ(patch.patched_weight_nodes, patch.total_weight_nodes)
        << "step " << k;
    EXPECT_EQ(patch.scanned_weight_nodes, 0u) << "step " << k;
    const serve::Plan full =
        compiler.plan(*chain.served, chain.served_state.get());
    EXPECT_TRUE(same_weights(patch.plan, full)) << "step " << k;

    plan = std::move(patch.plan);
    serve::Plan bound = plan;
    const auto patched_net = compiler.bind(std::move(bound));
    const auto full_net =
        compiler.compile(*chain.served, chain.served_state.get());
    EXPECT_TRUE(patched_net.forward(x).equals(full_net.forward(x)))
        << "step " << k;
  }
  EXPECT_GT(grown, 0u);  // the chain rewired, not only moved values
}

std::unique_ptr<data::Dataset> tabular_data(std::uint64_t seed) {
  data::SyntheticTabularConfig cfg;
  cfg.num_classes = 5;
  cfg.features = 12;
  cfg.train_per_class = 8;
  cfg.test_per_class = 1;
  cfg.seed = seed;
  return std::make_unique<data::SyntheticTabularDataset>(
      cfg, data::SyntheticTabularDataset::Split::kTrain);
}

std::unique_ptr<nn::Sequential> chain_mlp(util::Rng& rng) {
  return std::make_unique<models::Mlp>(small_cfg(/*batch_norm=*/true), rng);
}

TEST(Delta, DstEeMlpChainPatchesEveryNodeByMerge) {
  DstEeChain chain(chain_mlp, tabular_data(61), "serve_ckpt/chain_mlp.bin",
                   6, 61);
  expect_chain_patches_by_merge(chain, serve::Compiler(),
                                random_tensor(tensor::Shape({3, 12}), 62), 6);
}

TEST(Delta, DstEeResNetChainPatchesEveryNodeByMerge) {
  const auto build = [](util::Rng& rng) -> std::unique_ptr<nn::Sequential> {
    models::ResNetConfig cfg;
    cfg.depth = 18;
    cfg.image_size = 8;
    cfg.num_classes = 4;
    cfg.width_multiplier = 0.07;
    return std::make_unique<models::ResNet>(cfg, rng);
  };
  data::SyntheticImageConfig cfg;
  cfg.num_classes = 4;
  cfg.image_size = 8;
  cfg.train_per_class = 4;
  cfg.test_per_class = 1;
  cfg.seed = 63;
  DstEeChain chain(build,
                   std::make_unique<data::SyntheticImageDataset>(
                       cfg, data::SyntheticImageDataset::Split::kTrain),
                   "serve_ckpt/chain_resnet.bin", 5, 63);
  expect_chain_patches_by_merge(
      chain, serve::Compiler(),
      random_tensor(tensor::Shape({2, 3, 8, 8}), 64), 5);
}

TEST(Delta, UnfitSectionsPatchBitIdenticallyThroughTheDenseScan) {
  // Valid deltas that do not fit the base nodes: every list reversed, or
  // one layer's section split in two. Both apply, since apply_delta takes
  // entries in any order, and patch the same plan a full recompile
  // builds, by the dense-scan fallback, which the patch reports.
  DstEeChain chain(chain_mlp, tabular_data(65), "serve_ckpt/chain_unfit.bin",
                   1, 65);
  const serve::CheckpointDelta delta = chain.step(0);
  ASSERT_EQ(delta.sparse_layers.size(), 3u);

  serve::CheckpointDelta reversed = delta;
  for (serve::SparseLayerDelta& s : reversed.sparse_layers) {
    ASSERT_GT(s.changed.size(), 1u);
    std::reverse(s.removed.begin(), s.removed.end());
    std::reverse(s.added.begin(), s.added.end());
    std::reverse(s.changed.begin(), s.changed.end());
  }
  serve::CheckpointDelta split = delta;
  serve::SparseLayerDelta second;
  second.layer = split.sparse_layers[1].layer;
  second.changed = std::move(split.sparse_layers[1].changed);
  split.sparse_layers[1].changed.clear();
  split.sparse_layers.push_back(std::move(second));

  serve::Compiler compiler;
  for (const auto& [variant, scanned] :
       {std::pair{&reversed, std::size_t{3}}, std::pair{&split, std::size_t{1}}}) {
    // A fresh served twin at the delta's base for each variant.
    util::Rng rng(66);
    auto module = chain_mlp(rng);
    sparse::SparseModel state(*module, 0.9, sparse::DistributionKind::kErk,
                              rng);
    train::load_checkpoint("serve_ckpt/chain_unfit.bin", *module, &state);
    module->set_training(false);
    const serve::Plan base_plan = compiler.plan(*module, &state);

    serve::apply_delta(*variant, *module, &state);
    const serve::PlanPatch patch =
        serve::apply_delta_to_plan(base_plan, *variant, *module, &state);
    ASSERT_FALSE(patch.needs_full_recompile);
    EXPECT_EQ(patch.patched_weight_nodes, 3u);
    EXPECT_EQ(patch.scanned_weight_nodes, scanned);
    EXPECT_TRUE(same_weights(patch.plan, compiler.plan(*module, &state)));
  }
}

}  // namespace
}  // namespace dstee
