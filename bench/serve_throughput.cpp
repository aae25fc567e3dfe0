// serve_throughput — dense eval forward vs. compiled-CSR forward, plus
// the runtime-pool scaling story.
//
// The deployment claim of the sparse-training story: once the topology is
// fixed, inference cost should track density. This bench sweeps sparsity
// (50–95%) × batch size on an MLP workload (CSR SpMM) and a VGG-style conv
// workload (direct sparse conv) and reports rows/second for the dense
// training-stack forward and the serve::CompiledNet CSR forward, plus the
// speedup. Rows land in bench_results/serve_throughput.csv with a
// `workload` column.
//
// Runtime sweeps follow: (1) epilogue fusion (fused vs unfused
// pipelines, equals-gated); (2) SIMD kernel-backend dispatch and int8
// quantized serving (equals-/top-1-gated against scalar fp32); (3)
// InferenceServer closed-loop throughput at 1 and 2 shards, the default
// batch hold against the fixed fill-or-timeout window, hard-gated; (4)
// tail latency under a mid-run delta hot swap; (5) observability
// overhead — tracing disabled vs armed-idle, noted against a 2%
// throughput budget. All land in bench_results/serve_scaling.csv. The
// util::check equality gates and the [FAIL] lines of the shard gates
// fail the run (nonzero exit); the [ok]/[note] shape checks are printed
// only.
//
// DSTEE_SCALE scales the model width; DSTEE_SERVE_MIN_TIME (seconds, default
// 0.15) controls per-cell measurement time.
#include <atomic>
#include <cmath>
#include <future>

#include "bench_common.hpp"
#include "kernels/simd/backend.hpp"
#include "models/mlp.hpp"
#include "models/resnet.hpp"
#include "models/vgg.hpp"
#include "obs/trace.hpp"
#include "serve/compiled_net.hpp"
#include "serve/delta.hpp"
#include "serve/passes.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "sparse/sparse_model.hpp"
#include "tensor/init.hpp"

namespace dstee {
namespace {

/// Rows/second of `fn` (which consumes `rows` rows per call), time-boxed.
double measure_rows_per_s(const std::function<void()>& fn, std::size_t rows,
                          double min_seconds) {
  fn();  // warmup
  util::Timer timer;
  std::size_t iters = 0;
  do {
    fn();
    ++iters;
  } while (timer.seconds() < min_seconds);
  return static_cast<double>(rows * iters) / timer.seconds();
}

struct SweepFlags {
  bool csr_wins_at_90 = true;
  bool csr_monotone = true;
};

/// One (model, sparsity) × batches sweep: correctness gate, then timing.
void sweep_batches(nn::Sequential& model, const serve::CompiledNet& net,
                   const tensor::Shape& sample_shape, double sparsity,
                   const std::vector<std::size_t>& batches,
                   const std::string& workload, double min_time,
                   util::Table& table, util::CsvWriter& csv,
                   SweepFlags& flags, double& prev_csr_rate_tail) {
  for (const std::size_t batch : batches) {
    tensor::Tensor x{sample_shape.prepended(batch)};
    util::Rng xrng(batch);
    tensor::fill_normal(x, xrng, 0.0f, 1.0f);

    // Correctness gate before timing anything.
    util::check(net.forward(x).allclose(model.forward(x), 1e-3f),
                "compiled forward diverged from dense eval forward");

    const double dense_rate =
        measure_rows_per_s([&] { model.forward(x); }, batch, min_time);
    const double csr_rate =
        measure_rows_per_s([&] { net.forward(x); }, batch, min_time);
    const double speedup = csr_rate / dense_rate;

    if (sparsity >= 0.9 && speedup <= 1.0) flags.csr_wins_at_90 = false;
    if (batch == batches.back()) {
      if (prev_csr_rate_tail > 0.0 && csr_rate < prev_csr_rate_tail * 0.8) {
        flags.csr_monotone = false;  // higher sparsity must not serve slower
      }
      prev_csr_rate_tail = csr_rate;
    }

    table.add_row({workload, util::format_fixed(sparsity, 2),
                   std::to_string(batch), util::format_fixed(dense_rate, 0),
                   util::format_fixed(csr_rate, 0),
                   util::format_fixed(speedup, 2) + "x",
                   util::format_fixed(net.density() * 100.0, 1) + "%"});
    csv.write_row({workload, util::format_fixed(sparsity, 4),
                   std::to_string(batch), util::format_fixed(dense_rate, 1),
                   util::format_fixed(csr_rate, 1),
                   util::format_fixed(speedup, 3),
                   std::to_string(net.total_nnz()),
                   util::format_fixed(net.density(), 4)});
  }
}

/// Epilogue fusion (serve::FuseEpilogue): the graph-fusion step. The
/// fused pipeline absorbs activation and residual-add nodes into the
/// producing CSR op's kernel epilogue, so each output element is biased,
/// added and activated in-register during the SpMM output loop instead
/// of in separate full passes over the output tensor. Two workloads:
///
///   fusion_mlp     90%-sparse MLP (ReLU epilogues on the hidden SpMMs)
///   fusion_resnet  90%-sparse ResNet-18 (conv ReLUs + residual adds)
///
/// Every fused program is gated bit-identical to the unfused default
/// pipeline before timing — fusion reorders no float ops, it only
/// removes tensor-wide passes. The fused batch-1 rate is the latency
/// claim: small batches are memory-pass-bound, so dropping a pass shows
/// up directly.
void sweep_fusion(const bench::BenchEnv& env, double min_time,
                  util::CsvWriter& csv) {
  constexpr const char* kFusedSpec =
      "elide-dropout,fold-bn,fuse-epilogue,free-after-last-use";
  const std::vector<std::size_t> batches = {1, 2, 4, 8};

  struct B1 {
    double unfused = 0.0;
    double fused = 0.0;
  };
  auto run_workload = [&](const std::string& workload,
                          nn::Sequential& model,
                          const sparse::SparseModel& smodel,
                          const tensor::Shape& sample) {
    const serve::CompiledNet unfused =
        serve::CompiledNet::compile(model, &smodel);
    serve::Compiler compiler;
    compiler.pipeline_from_spec(kFusedSpec);
    const serve::CompiledNet fused = compiler.compile(model, &smodel);
    util::check(fused.num_fused_ops() > 0,
                "fusion sweep workload produced no fused ops");

    std::cout << "epilogue fusion: " << workload << " ("
              << fused.num_fused_ops() << " fused ops, "
              << unfused.num_ops() - fused.num_ops()
              << " nodes removed)\n";
    util::Table table(
        {"batch", "unfused rows/s", "fused rows/s", "speedup"});
    B1 b1;
    for (const std::size_t batch : batches) {
      tensor::Tensor x{sample.prepended(batch)};
      util::Rng xrng(300 + batch);
      tensor::fill_normal(x, xrng, 0.0f, 1.0f);
      // Equals gate: fused must match unfused bit-for-bit, not just
      // approximately — fusion changes where ops run, never their order.
      util::check(fused.forward(x).equals(unfused.forward(x)),
                  "fused forward diverged from unfused");
      const double base =
          measure_rows_per_s([&] { unfused.forward(x); }, batch, min_time);
      const double rate =
          measure_rows_per_s([&] { fused.forward(x); }, batch, min_time);
      if (batch == 1) {
        b1.unfused = base;
        b1.fused = rate;
      }
      table.add_row({std::to_string(batch), util::format_fixed(base, 0),
                     util::format_fixed(rate, 0),
                     util::format_fixed(rate / base, 2) + "x"});
      csv.write_row({workload, "-", "-", std::to_string(batch),
                     util::format_fixed(base, 1), util::format_fixed(rate, 1),
                     util::format_fixed(rate / base, 3)});
    }
    std::cout << table.render() << "\n";
    return b1;
  };

  models::MlpConfig mcfg;
  mcfg.in_features = env.scaled(256, 32);
  mcfg.hidden = {env.scaled(512, 64), env.scaled(512, 64)};
  mcfg.out_features = 10;
  util::Rng mrng(61);
  models::Mlp mlp(mcfg, mrng);
  sparse::SparseModel mlp_state(mlp, 0.9, sparse::DistributionKind::kErk,
                                mrng);
  mlp.set_training(false);
  const B1 mlp_b1 = run_workload("fusion_mlp", mlp, mlp_state,
                                 tensor::Shape({mcfg.in_features}));

  models::ResNetConfig rcfg;
  rcfg.depth = 18;
  rcfg.image_size = 8;
  rcfg.num_classes = 10;
  rcfg.width_multiplier = 0.25 * env.scale;
  util::Rng rrng(62);
  models::ResNet resnet(rcfg, rrng);
  sparse::SparseModel resnet_state(resnet, 0.9,
                                   sparse::DistributionKind::kErk, rrng);
  tensor::Tensor warm({2, 3, rcfg.image_size, rcfg.image_size});
  util::Rng wrng(63);
  tensor::fill_normal(warm, wrng, 0.0f, 1.0f);
  resnet.forward(warm);  // move BN stats off init so folding is non-trivial
  resnet.set_training(false);
  const B1 res_b1 = run_workload(
      "fusion_resnet", resnet, resnet_state,
      tensor::Shape({3, rcfg.image_size, rcfg.image_size}));

  // Gate on the geomean across both workloads: one noisy cell on the
  // tiny scaled-down models must not flip the claim.
  const double geomean = std::sqrt((mlp_b1.fused / mlp_b1.unfused) *
                                   (res_b1.fused / res_b1.unfused));
  bench::shape_check(
      "epilogue fusion improves batch-1 latency (geomean, mlp+resnet)",
      geomean > 1.0);
}

/// Kernel-backend dispatch: the same 90%-sparse MLP served under every
/// backend this host supports (rows `kernel_backend`, backend name in the
/// shards column) and under the int8-quantized pipeline on the process
/// default backend (rows `kernel_int8`). Backend cells are equals-gated
/// against the scalar-bound net — backends are bit-identical by contract;
/// int8 cells are top-1-gated, since quantization rounds the weights.
void sweep_kernel_backend(const bench::BenchEnv& env, double min_time,
                          util::CsvWriter& csv) {
  models::MlpConfig cfg;
  cfg.in_features = env.scaled(256, 32);
  cfg.hidden = {env.scaled(512, 64), env.scaled(512, 64)};
  cfg.out_features = 10;
  util::Rng rng(71);
  models::Mlp model(cfg, rng);
  sparse::SparseModel smodel(model, 0.9, sparse::DistributionKind::kErk,
                             rng);
  model.set_training(false);

  const auto compile_with = [&](const std::string& backend) {
    serve::CompileOptions opts;
    opts.kernel_backend = backend;
    return serve::CompiledNet::compile(model, &smodel, opts);
  };
  const serve::CompiledNet scalar_net = compile_with("scalar");
  const std::vector<std::size_t> batches = {1, 8, 32};

  std::cout << "kernel backends: 90%-sparse MLP under every supported "
               "backend (scalar-gated)\n";
  util::Table table({"backend", "batch", "rows/s", "vs scalar"});
  std::vector<double> scalar_rates(batches.size(), 0.0);
  for (const std::string& name : kernels::simd::available_backends()) {
    const serve::CompiledNet net =
        name == "scalar" ? scalar_net.clone() : compile_with(name);
    for (std::size_t i = 0; i < batches.size(); ++i) {
      const std::size_t batch = batches[i];
      tensor::Tensor x({batch, cfg.in_features});
      util::Rng xrng(400 + batch);
      tensor::fill_normal(x, xrng, 0.0f, 1.0f);
      util::check(net.forward(x).equals(scalar_net.forward(x)),
                  "backend '" + name + "' diverged from scalar");
      const double rate =
          measure_rows_per_s([&] { net.forward(x); }, batch, min_time);
      if (name == "scalar") scalar_rates[i] = rate;
      const double speedup = rate / scalar_rates[i];
      table.add_row({name, std::to_string(batch),
                     util::format_fixed(rate, 0),
                     util::format_fixed(speedup, 2) + "x"});
      csv.write_row({"kernel_backend", name, "-", std::to_string(batch),
                     util::format_fixed(scalar_rates[i], 1),
                     util::format_fixed(rate, 1),
                     util::format_fixed(speedup, 3)});
    }
  }

  serve::Compiler quant;
  quant.pipeline_from_spec(
      "elide-dropout,fold-bn,fuse-epilogue,quantize:int8,"
      "free-after-last-use");
  const serve::CompiledNet qnet = quant.compile(model, &smodel);
  util::check(qnet.num_quantized_ops() > 0,
              "quantize pass produced no int8 ops");
  const auto top1 = [](const tensor::Tensor& logits, std::size_t batch) {
    const std::size_t classes = logits.numel() / batch;
    std::vector<std::size_t> out(batch, 0);
    for (std::size_t n = 0; n < batch; ++n) {
      for (std::size_t c = 1; c < classes; ++c) {
        if (logits[n * classes + c] > logits[n * classes + out[n]]) {
          out[n] = c;
        }
      }
    }
    return out;
  };
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const std::size_t batch = batches[i];
    tensor::Tensor x({batch, cfg.in_features});
    util::Rng xrng(400 + batch);
    tensor::fill_normal(x, xrng, 0.0f, 1.0f);
    util::check(top1(qnet.forward(x), batch) ==
                    top1(scalar_net.forward(x), batch),
                "int8 serve changed a probe sample's top-1");
    const double rate =
        measure_rows_per_s([&] { qnet.forward(x); }, batch, min_time);
    table.add_row({"int8 (" +
                       std::string(kernels::simd::active_backend().name) +
                       ")",
                   std::to_string(batch), util::format_fixed(rate, 0),
                   util::format_fixed(rate / scalar_rates[i], 2) + "x"});
    csv.write_row({"kernel_int8", kernels::simd::active_backend().name, "-",
                   std::to_string(batch),
                   util::format_fixed(scalar_rates[i], 1),
                   util::format_fixed(rate, 1),
                   util::format_fixed(rate / scalar_rates[i], 3)});
  }
  std::cout << table.render() << "\n";
  std::cout << "int8 weight bytes: " << qnet.total_weight_bytes() << " vs "
            << scalar_net.total_weight_bytes() << " fp32 ("
            << util::format_fixed(
                   100.0 * static_cast<double>(qnet.total_weight_bytes()) /
                       static_cast<double>(scalar_net.total_weight_bytes()),
                   1)
            << "%)\n\n";
}

/// Closed-loop aggregate throughput of the sharded InferenceServer. Each
/// shard owns a replica and its own worker; shards are the scaling knob.
double measure_server_rps(const serve::CompiledNet& net,
                          const tensor::Shape& sample_shape,
                          std::size_t shards, std::size_t clients,
                          double seconds, serve::StatsSnapshot& out_stats,
                          bool fill_or_timeout = false) {
  serve::ServerConfig cfg;
  cfg.num_threads = 1;
  cfg.num_shards = shards;
  cfg.max_batch = 8;
  cfg.max_delay_ms = 0.2;
  cfg.fill_or_timeout = fill_or_timeout;
  serve::InferenceServer server(net, cfg);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> completed{0};
  auto client = [&](std::size_t id) {
    util::Rng crng(900 + id);
    while (!stop.load(std::memory_order_relaxed)) {
      tensor::Tensor sample(sample_shape);
      tensor::fill_normal(sample, crng, 0.0f, 1.0f);
      server.submit(std::move(sample)).get();
      completed.fetch_add(1, std::memory_order_relaxed);
    }
  };
  util::Timer wall;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  while (wall.seconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  const double elapsed = wall.seconds();
  server.shutdown();
  out_stats = server.stats();
  return static_cast<double>(completed.load()) / elapsed;
}

/// Sharded serving under closed-loop overload (8 clients, 1 worker per
/// shard, max_batch 8, max_delay_ms 0.2): the default batch hold (about
/// one forward time) against the fixed fill-or-timeout window, at 1 and 2
/// shards. The four cells alternate, so host drift hits every cell alike,
/// and each keeps its best of 7: on a shared 4-vCPU host one 0.45 s
/// default-hold cell swings by +-15% (a preempted forward stretches the
/// next hold to the cap), and best of 3 or 5 still let a ratio fall below
/// its gate now and then. Two hard gates, armed at >= 4 hardware
/// threads (the bench host's count): at 1 shard the default keeps >=
/// 0.85x the fixed window's req/s, because the short hold still fills
/// batches while the one worker runs; at 2 shards it reaches >= 1.15x,
/// because the fixed window makes each shard's partial batch wait out
/// max_delay_ms. Returns false when an armed gate fails.
bool sweep_shards(const bench::BenchEnv& env, double min_time,
                  util::CsvWriter& csv) {
  models::MlpConfig cfg;
  cfg.in_features = env.scaled(256, 32);
  cfg.hidden = {env.scaled(512, 64), env.scaled(512, 64)};
  cfg.out_features = 10;
  util::Rng rng(41);
  models::Mlp model(cfg, rng);
  sparse::SparseModel smodel(model, 0.9, sparse::DistributionKind::kErk,
                             rng);
  model.set_training(false);
  const serve::CompiledNet net = serve::CompiledNet::compile(model, &smodel);

  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const double seconds = std::max(0.3, min_time * 3.0);
  const std::size_t clients = 8;
  constexpr int kReps = 7;

  struct Cell {
    double rps = 0.0;
    serve::StatsSnapshot stats;
  };
  Cell cells[2][2];  // [shards - 1][fill_or_timeout]
  for (int rep = 0; rep < kReps; ++rep) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
      for (const bool fixed : {false, true}) {
        serve::StatsSnapshot stats;
        const double rps =
            measure_server_rps(net, tensor::Shape({cfg.in_features}), shards,
                               clients, seconds, stats, fixed);
        Cell& cell = cells[shards - 1][fixed];
        if (rps > cell.rps) cell = {rps, stats};
      }
    }
  }

  std::cout << "sharded serving: closed-loop throughput, one-forward hold "
               "vs fill-or-timeout ("
            << clients << " clients, 1 worker/shard, best of " << kReps
            << ", " << hw << " hw threads)\n";
  util::Table table({"shards", "hold", "req/s", "vs fixed", "mean batch",
                     "p50 ms", "p99 ms"});
  double ratio[2] = {0.0, 0.0};
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    const double fixed_rps = cells[shards - 1][1].rps;
    ratio[shards - 1] = cells[shards - 1][0].rps / fixed_rps;
    for (const bool fixed : {false, true}) {
      const Cell& cell = cells[shards - 1][fixed];
      const double vs_fixed = cell.rps / fixed_rps;
      table.add_row({std::to_string(shards),
                     fixed ? "fill-or-timeout" : "one forward",
                     util::format_fixed(cell.rps, 0),
                     util::format_fixed(vs_fixed, 2) + "x",
                     util::format_fixed(cell.stats.mean_batch_size, 2),
                     util::format_fixed(cell.stats.latency_p50_ms, 3),
                     util::format_fixed(cell.stats.latency_p99_ms, 3)});
      csv.write_row({fixed ? "shards_fill_or_timeout" : "shards",
                     std::to_string(shards), "1", "-",
                     util::format_fixed(fixed_rps, 1),
                     util::format_fixed(cell.rps, 1),
                     util::format_fixed(vs_fixed, 3)});
    }
  }
  std::cout << table.render() << "\n";
  if (hw < 4) {
    std::cout << "  [skip] shard hold gates need >= 4 hardware threads\n";
    return true;
  }
  bool ok = bench::gate(
      "1 shard: one-forward hold keeps >= 0.85x fill-or-timeout req/s",
      ratio[0] >= 0.85);
  ok &= bench::gate(
      "2 shards: one-forward hold reaches >= 1.15x fill-or-timeout req/s",
      ratio[1] >= 1.15);
  return ok;
}

/// One faked DST step — the delta payload the hot-swap sweep publishes
/// mid-run. Only layers with room to move are perturbed: at least 2
/// active slots (one to prune, one to jitter) and 1 inactive slot to
/// grow. ERK can keep a small layer (the 512x10 head) fully dense.
void hotswap_step(sparse::SparseModel& state) {
  std::size_t changed = 0;
  for (std::size_t l = 0; l < state.num_layers(); ++l) {
    sparse::MaskedParameter& layer = state.layer(l);
    const std::vector<std::size_t> active = layer.mask().active_indices();
    const std::vector<std::size_t> inactive = layer.mask().inactive_indices();
    if (active.size() < 2 || inactive.empty()) continue;
    layer.mask().deactivate(active[0]);
    layer.mask().activate(inactive[0]);
    layer.param().value[inactive[0]] = 0.125f;
    layer.param().value[active[1]] += 0.25f;
    layer.apply_mask_to_value();
    ++changed;
  }
  util::check(changed > 0, "hotswap sweep model has no sparse headroom");
}

/// Tail latency under a mid-run hot swap: the same open-loop arrival
/// stream measured once without a swap (baseline) and once with a
/// sparse-delta swap published halfway through. The gate is the
/// zero-downtime claim in latency form: the swap window's p99 stays
/// within 2x of the steady-state p99 (plus a small absolute floor for
/// timer noise on the tiny scaled-down model).
void sweep_hotswap(const bench::BenchEnv& env, double min_time,
                   util::CsvWriter& csv) {
  models::MlpConfig cfg;
  cfg.in_features = env.scaled(256, 32);
  cfg.hidden = {env.scaled(512, 64), env.scaled(512, 64)};
  cfg.out_features = 10;
  const tensor::Shape sample_shape({cfg.in_features});
  constexpr std::uint64_t kSeed = 43;
  constexpr std::size_t kShards = 2;

  const auto make_registry = [&](serve::ModelRegistry& registry) {
    util::Rng rng(kSeed);
    auto module = std::make_unique<models::Mlp>(cfg, rng);
    auto state = std::make_unique<sparse::SparseModel>(
        *module, 0.9, sparse::DistributionKind::kErk, rng);
    module->set_training(false);
    serve::ModelOptions mopts;
    mopts.server.num_threads = 1;
    mopts.server.num_shards = kShards;
    mopts.server.max_batch = 8;
    mopts.server.max_delay_ms = 0.2;
    registry.add_model("m", std::move(module), std::move(state),
                       std::move(mopts));
  };

  // The delta: the registry's model (a pure function of the seed),
  // reconstructed out-of-band and advanced one DST step.
  const serve::CheckpointDelta delta = [&] {
    util::Rng brng(kSeed);
    models::Mlp base(cfg, brng);
    sparse::SparseModel base_state(base, 0.9,
                                   sparse::DistributionKind::kErk, brng);
    util::Rng nrng(kSeed);
    models::Mlp next(cfg, nrng);
    sparse::SparseModel next_state(next, 0.9,
                                   sparse::DistributionKind::kErk, nrng);
    hotswap_step(next_state);
    return serve::make_delta(base, &base_state, next, &next_state);
  }();

  // Calibrate the arrival rate to half of closed-loop capacity so the
  // open-loop phases run loaded but un-saturated — a saturated queue
  // would make p99 a function of overload, not of the swap.
  const double calibrated_rps = [&] {
    serve::ModelRegistry registry;
    make_registry(registry);
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> done{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        util::Rng crng(700 + c);
        while (!stop.load(std::memory_order_relaxed)) {
          tensor::Tensor sample(sample_shape);
          tensor::fill_normal(sample, crng, 0.0f, 1.0f);
          registry.submit("m", std::move(sample)).get();
          done.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    util::Timer timer;
    while (timer.seconds() < std::max(0.15, min_time)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop.store(true);
    for (auto& t : clients) t.join();
    const double elapsed = timer.seconds();
    registry.shutdown();
    return static_cast<double>(done.load()) / elapsed;
  }();

  const double seconds = std::max(0.4, min_time * 3.0);
  const double rate = std::max(50.0, calibrated_rps * 0.5);
  const std::size_t total =
      std::max<std::size_t>(200, static_cast<std::size_t>(rate * seconds));
  const double interval_s = seconds / static_cast<double>(total);

  // One open-loop phase: fixed-interval arrivals; when `swap` is set, a
  // control-plane thread publishes the delta at the halfway arrival.
  const auto run_phase = [&](bool swap, serve::StatsSnapshot& stats,
                             serve::SwapReport& report) {
    serve::ModelRegistry registry;
    make_registry(registry);
    std::vector<std::future<tensor::Tensor>> futures;
    futures.reserve(total);
    std::thread swapper;
    util::Rng arng(800);
    util::Timer wall;
    for (std::size_t i = 0; i < total; ++i) {
      const double due = static_cast<double>(i) * interval_s;
      while (wall.seconds() < due) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      if (swap && i == total / 2) {
        swapper = std::thread(
            [&] { report = registry.apply_delta("m", delta); });
      }
      tensor::Tensor sample(sample_shape);
      tensor::fill_normal(sample, arng, 0.0f, 1.0f);
      futures.push_back(registry.submit("m", std::move(sample)));
    }
    for (auto& f : futures) f.get();
    if (swapper.joinable()) swapper.join();
    registry.shutdown();
    stats = registry.stats("m");
  };

  serve::StatsSnapshot base_stats, swap_stats;
  serve::SwapReport unused, report;
  run_phase(false, base_stats, unused);
  run_phase(true, swap_stats, report);
  const double base_p99 = base_stats.latency_p99_ms;
  const double swap_p99 = swap_stats.latency_p99_ms;

  std::cout << "hot swap under open-loop load (" << kShards << " shards, "
            << util::format_fixed(rate, 0) << " req/s, " << total
            << " requests/phase)\n";
  util::Table table({"phase", "completed", "p50 ms", "p99 ms", "swaps"});
  table.add_row({"no swap", std::to_string(base_stats.requests),
                 util::format_fixed(base_stats.latency_p50_ms, 3),
                 util::format_fixed(base_p99, 3),
                 std::to_string(base_stats.swap_count)});
  table.add_row({"swap mid-run", std::to_string(swap_stats.requests),
                 util::format_fixed(swap_stats.latency_p50_ms, 3),
                 util::format_fixed(swap_p99, 3),
                 std::to_string(swap_stats.swap_count)});
  std::cout << table.render() << "\n";
  // For the hotswap row the rate columns hold p99 ms (baseline, swap) and
  // `speedup` their ratio.
  csv.write_row({"hotswap", std::to_string(kShards), "1", "-",
                 util::format_fixed(base_p99, 3),
                 util::format_fixed(swap_p99, 3),
                 util::format_fixed(base_p99 > 0.0 ? swap_p99 / base_p99 : 1.0,
                                    3)});

  bench::shape_check("hot swap drops nothing (every arrival completed)",
                     swap_stats.requests == total);
  bench::shape_check("delta swap patched the plan without a full recompile",
                     swap_stats.swap_count == 1 && !report.full_recompile &&
                         report.patched_weight_nodes > 0);
  bench::shape_check("p99 with a mid-run swap stays within 2x of baseline",
                     swap_p99 <= base_p99 * 2.0 + 2.0);
}

/// Observability overhead: closed-loop server throughput with the trace
/// recorder fully disabled vs armed-but-idle (enabled with a sampling
/// period no request ever reaches, so every submit pays the sample()
/// check and every worker pays the enabled-path branches, but no span is
/// recorded). This is the tentpole's "disabled tracing is free" claim in
/// bench form: one relaxed atomic load per request must cost <= 2%
/// throughput. Reps alternate off/armed so machine drift hits both sides
/// equally; each side keeps its best of 3.
void sweep_obs_overhead(const bench::BenchEnv& env, double min_time,
                        util::CsvWriter& csv) {
  models::MlpConfig cfg;
  cfg.in_features = env.scaled(256, 32);
  cfg.hidden = {env.scaled(512, 64), env.scaled(512, 64)};
  cfg.out_features = 10;
  util::Rng rng(47);
  models::Mlp model(cfg, rng);
  sparse::SparseModel smodel(model, 0.9, sparse::DistributionKind::kErk,
                             rng);
  model.set_training(false);
  const serve::CompiledNet net = serve::CompiledNet::compile(model, &smodel);
  const tensor::Shape sample_shape({cfg.in_features});

  // Equals gate first: a fully TRACED request (sample_every = 1, spans
  // recorded end to end) returns the same bits as the direct forward.
  obs::trace().enable(1);
  {
    serve::ServerConfig scfg;
    scfg.num_threads = 1;
    scfg.max_batch = 8;
    scfg.max_delay_ms = 0.2;
    serve::InferenceServer server(net, scfg);
    tensor::Tensor x(sample_shape);
    util::Rng xrng(48);
    tensor::fill_normal(x, xrng, 0.0f, 1.0f);
    const tensor::Tensor got = server.submit(x).get();
    const tensor::Tensor expected =
        net.forward(x.reshaped(sample_shape.prepended(1)));
    util::check(got.equals(expected.reshaped(tensor::Shape({got.numel()}))),
                "traced request diverged from direct forward");
    server.shutdown();
  }
  obs::trace().disable();

  const double seconds = std::max(0.3, min_time * 2.0);
  constexpr int kReps = 3;
  double best_off = 0.0, best_armed = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    serve::StatsSnapshot stats;
    obs::trace().disable();
    best_off = std::max(
        best_off, measure_server_rps(net, sample_shape, 1, 4, seconds,
                                     stats));
    obs::trace().enable(1u << 30);  // armed, but never actually samples
    best_armed = std::max(
        best_armed, measure_server_rps(net, sample_shape, 1, 4, seconds,
                                       stats));
  }
  obs::trace().disable();
  const double ratio = best_armed / best_off;

  std::cout << "observability overhead: tracing disabled vs armed-idle "
               "(closed loop, best of " << kReps << ")\n";
  util::Table table({"tracing", "req/s", "vs disabled"});
  table.add_row({"disabled", util::format_fixed(best_off, 0), "1.00x"});
  table.add_row({"armed idle", util::format_fixed(best_armed, 0),
                 util::format_fixed(ratio, 3) + "x"});
  std::cout << table.render() << "\n";
  csv.write_row({"obs_overhead", "1", "1", "-",
                 util::format_fixed(best_off, 1),
                 util::format_fixed(best_armed, 1),
                 util::format_fixed(ratio, 3)});

  bench::shape_check(
      "armed-idle tracing costs <= 2% closed-loop throughput (best-of-3)",
      ratio >= 0.98);
}

int run() {
  const bench::BenchEnv env = bench::BenchEnv::resolve();
  const double min_time = util::env_double("DSTEE_SERVE_MIN_TIME", 0.15);

  models::MlpConfig mcfg;
  mcfg.in_features = env.scaled(256, 32);
  mcfg.hidden = {env.scaled(512, 64), env.scaled(512, 64)};
  mcfg.out_features = 10;

  models::VggConfig vcfg;
  vcfg.depth = 11;
  vcfg.image_size = 16;
  vcfg.num_classes = 10;
  vcfg.width_multiplier = 0.25 * env.scale;

  std::cout << "serve_throughput: dense eval forward vs compiled CSR\n"
            << "  mlp workload:  " << mcfg.in_features << " -> "
            << mcfg.hidden[0] << " -> " << mcfg.hidden[1] << " -> "
            << mcfg.out_features << "\n"
            << "  conv workload: VGG-11 @ " << vcfg.image_size << "x"
            << vcfg.image_size << ", width x"
            << util::format_fixed(vcfg.width_multiplier, 2) << "\n\n";

  util::Table table({"workload", "sparsity", "batch", "dense rows/s",
                     "csr rows/s", "speedup", "density"});
  util::CsvWriter csv("bench_results/serve_throughput.csv",
                      {"workload", "sparsity", "batch", "dense_rows_per_s",
                       "csr_rows_per_s", "speedup", "nnz", "density"});

  SweepFlags mlp_flags;
  double prev_rate = 0.0;
  for (const double sparsity : {0.5, 0.8, 0.9, 0.95}) {
    util::Rng rng(17);
    models::Mlp model(mcfg, rng);
    sparse::SparseModel smodel(model, sparsity,
                               sparse::DistributionKind::kErk, rng);
    model.set_training(false);
    const serve::CompiledNet net =
        serve::CompiledNet::compile(model, &smodel);
    sweep_batches(model, net, tensor::Shape({mcfg.in_features}), sparsity,
                  {1, 8, 32}, "mlp", min_time, table, csv, mlp_flags,
                  prev_rate);
  }

  SweepFlags conv_flags;
  prev_rate = 0.0;
  const tensor::Shape image({3, vcfg.image_size, vcfg.image_size});
  for (const double sparsity : {0.5, 0.9, 0.95}) {
    util::Rng rng(23);
    models::Vgg model(vcfg, rng);
    sparse::SparseModel smodel(model, sparsity,
                               sparse::DistributionKind::kErk, rng);
    // Move BN running stats off init so folding is exercised for real.
    tensor::Tensor warm({4, 3, vcfg.image_size, vcfg.image_size});
    util::Rng wrng(5);
    tensor::fill_normal(warm, wrng, 0.0f, 1.0f);
    model.forward(warm);
    model.set_training(false);
    const serve::CompiledNet net =
        serve::CompiledNet::compile(model, &smodel);
    sweep_batches(model, net, image, sparsity, {1, 8}, "conv", min_time,
                  table, csv, conv_flags, prev_rate);
  }
  csv.flush();

  std::cout << table.render() << "\n";

  // Runtime scaling sweeps (epilogue fusion, kernel backends, shard
  // replicas, hot swap, obs overhead). For the fusion rows, baseline is
  // the unfused rate.
  util::CsvWriter scaling_csv(
      "bench_results/serve_scaling.csv",
      {"sweep", "shards", "intra_op", "batch", "baseline_rows_per_s",
       "rows_per_s", "speedup"});
  sweep_fusion(env, min_time, scaling_csv);
  sweep_kernel_backend(env, min_time, scaling_csv);
  const bool shards_ok = sweep_shards(env, min_time, scaling_csv);
  sweep_hotswap(env, min_time, scaling_csv);
  sweep_obs_overhead(env, min_time, scaling_csv);
  scaling_csv.flush();

  bench::shape_check(
      "compiled CSR beats dense eval forward at >=90% sparsity (mlp)",
      mlp_flags.csr_wins_at_90);
  bench::shape_check(
      "CSR throughput does not degrade as sparsity rises (mlp, batch 32)",
      mlp_flags.csr_monotone);
  bench::shape_check(
      "compiled CSR conv beats dense eval forward at >=90% sparsity",
      conv_flags.csr_wins_at_90);
  bench::shape_check(
      "CSR conv throughput does not degrade as sparsity rises (batch 8)",
      conv_flags.csr_monotone);
  std::cout << "\ncsv: bench_results/serve_throughput.csv\n";
  if (!shards_ok) {
    std::cerr << "error: a shard hold gate failed (see [FAIL] above)\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dstee

int main() {
  try {
    return dstee::run();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
