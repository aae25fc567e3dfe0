// dstee_serve — sparse inference server + load generator.
//
// Compiles an MLP, VGG or ResNet through the staged serve compiler
// (lower → pass pipeline → bind; Linear → CSR SpMM, Conv2d → direct
// sparse conv over the packed image, residual adds as graph joins),
// starts an InferenceServer (sharded replica worker groups + per-group
// micro-batching queues; intra-op work runs on the persistent runtime
// pool), drives it with either closed-loop client threads or an
// open-loop Poisson arrival process (--arrival-rate), and reports
// latency percentiles (p50/p99/p99.9 in open-loop mode), queue peaks,
// backpressure-blocked time, and throughput.
//
// --passes SPEC rebuilds the whole pipeline from the named pass registry
// (e.g. "elide-dropout,fold-bn,fuse-epilogue,quantize:int8"). --dump-plan
// prints the active pipeline and the post-pass plan (op, shape, nnz,
// FLOPs share, fusion/int8 annotations) and exits without serving.
//
// --registry N serves a fleet of N independently-seeded sparse MLPs from
// one ModelRegistry under mixed open-loop traffic with admission control
// (try_submit sheds beyond --queue-quota) and optional autoscaling;
// --swap-mid-run hot-swaps model m0 with a sparse checkpoint delta
// halfway through the arrival schedule and asserts nothing was dropped.
//
//   # serve a checkpoint trained by dstee_run (same architecture flags):
//   ./build/tools/dstee_run --model mlp --sparsity 0.95 --checkpoint m.bin
//   ./build/tools/dstee_serve --checkpoint m.bin --in 32 --hidden 128,128
//       --out 8 --clients 8 --requests 4000
//   # serve a VGG-19 checkpoint (conv layers deploy as direct sparse conv):
//   ./build/tools/dstee_run --model vgg19 --sparsity 0.9 --checkpoint v.bin
//   ./build/tools/dstee_serve --model vgg19 --checkpoint v.bin
//       --image-size 12 --classes 8 --width 0.1
//   # or serve a randomly-initialized sparse topology (no checkpoint):
//   ./build/tools/dstee_serve --model resnet18 --sparsity 0.9
// (join wrapped lines when copying; see --help for the full flag set)
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "kernels/simd/backend.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "models/mlp.hpp"
#include "models/resnet.hpp"
#include "models/vgg.hpp"
#include "serve/compiled_net.hpp"
#include "serve/delta.hpp"
#include "serve/passes.hpp"
#include "serve/plan.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "sparse/sparse_model.hpp"
#include "tensor/init.hpp"
#include "train/checkpoint.hpp"
#include "util/args.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"
#include "util/sync.hpp"
#include "util/timer.hpp"

namespace dstee {
namespace {

std::vector<std::size_t> parse_hidden(const std::string& text) {
  std::vector<std::size_t> sizes;
  for (const std::string& part : util::split(text, ',')) {
    const std::string t = util::trim(part);
    if (t.empty()) continue;
    const long v = std::stol(t);
    util::check(v > 0, "hidden sizes must be positive: " + text);
    sizes.push_back(static_cast<std::size_t>(v));
  }
  return sizes;
}

/// A servable model: the module tree plus the shapes the load generator
/// needs (per-sample input shape, output feature count).
struct ServeModel {
  std::unique_ptr<nn::Sequential> module;
  tensor::Shape sample_shape;
  std::size_t out_features = 0;
};

ServeModel build_model(const util::ArgParser& args, bool smoke,
                       util::Rng& rng) {
  const std::string kind = args.get_string("model");
  ServeModel m;
  if (kind == "mlp") {
    models::MlpConfig mcfg;
    mcfg.in_features = static_cast<std::size_t>(args.get_int("in"));
    mcfg.hidden = parse_hidden(args.get_string("hidden"));
    mcfg.out_features = static_cast<std::size_t>(args.get_int("out"));
    mcfg.batch_norm = args.get_bool("batch-norm");
    if (smoke) mcfg.hidden = {32, 32};
    m.module = std::make_unique<models::Mlp>(mcfg, rng);
    m.sample_shape = tensor::Shape({mcfg.in_features});
    m.out_features = mcfg.out_features;
    return m;
  }
  const std::size_t image_size =
      smoke ? 8 : static_cast<std::size_t>(args.get_int("image-size"));
  const std::size_t classes =
      static_cast<std::size_t>(args.get_int("classes"));
  const double width = args.get_double("width");
  if (kind == "vgg19") {
    models::VggConfig vcfg;
    vcfg.depth = 19;
    vcfg.image_size = image_size;
    vcfg.num_classes = classes;
    vcfg.width_multiplier = width;
    m.module = std::make_unique<models::Vgg>(vcfg, rng);
  } else if (kind == "resnet18" || kind == "resnet50") {
    models::ResNetConfig rcfg;
    rcfg.depth = kind == "resnet18" ? 18 : 50;
    rcfg.image_size = image_size;
    rcfg.num_classes = classes;
    rcfg.width_multiplier = width;
    m.module = std::make_unique<models::ResNet>(rcfg, rng);
  } else {
    util::fail("unknown model: " + kind +
               " (expected mlp | vgg19 | resnet18 | resnet50)");
  }
  m.sample_shape = tensor::Shape({3, image_size, image_size});
  m.out_features = classes;
  return m;
}

tensor::Tensor batched(const tensor::Shape& sample, std::size_t batch) {
  return tensor::Tensor{sample.prepended(batch)};
}

/// --trace FILE: arm the process-wide recorder before serving starts.
void arm_trace_if_requested(const util::ArgParser& args) {
  if (args.get_string("trace").empty()) return;
  const long every = args.get_int("trace-sample");
  util::check(every >= 1, "--trace-sample must be >= 1");
  obs::trace().enable(static_cast<std::uint32_t>(every));
}

/// --trace FILE: drain every ring to Chrome trace-event JSON after the
/// run. Load the file in Perfetto / chrome://tracing.
void write_trace_if_requested(const util::ArgParser& args) {
  const std::string path = args.get_string("trace");
  if (path.empty()) return;
  obs::trace().disable();
  std::ofstream out(path);
  util::check(out.good(), "cannot open --trace output file " + path);
  obs::trace().write_chrome_trace(out);
  util::check(out.good(), "failed writing trace JSON to " + path);
  std::cout << "trace: " << obs::trace().drain().size()
            << " spans -> " << path << " (Chrome trace JSON)\n";
}

/// --metrics-out FILE: Prometheus text exposition of everything in the
/// process-wide registry (live serve metrics + bridged StatsSnapshots).
void write_metrics_if_requested(const util::ArgParser& args) {
  const std::string path = args.get_string("metrics-out");
  if (path.empty()) return;
  std::ofstream out(path);
  util::check(out.good(), "cannot open --metrics-out file " + path);
  out << obs::metrics().prometheus_text();
  util::check(out.good(), "failed writing metrics to " + path);
  std::cout << "metrics: " << obs::metrics().num_metrics()
            << " metrics -> " << path << " (Prometheus text)\n";
}

/// --profile-ops: the measured per-op breakdown after the run.
/// The measured per-op breakdown after a run: wall ms, calls and share
/// per node, next to its achieved GFLOP/s and weight GB/s. Those come from
/// Plan::annotate's analytic per-sample FLOPs and weight bytes: FLOPs ×
/// `samples` forwarded ÷ the node's time, and its weight bytes once per
/// call ÷ the node's time (neither for a node without FLOPs or weights).
void print_op_profile(const serve::CompiledNet& net,
                      const tensor::Shape& sample_shape,
                      std::size_t samples) {
  const obs::OpProfile* prof = net.op_profile();
  if (prof == nullptr) return;
  const std::vector<serve::Plan::NodeCost> costs =
      net.plan().annotate(sample_shape);
  const double total = static_cast<double>(prof->total_ns());
  std::cout << "\nper-op profile (wall time over all forwards, all shards; "
            << samples << " samples):\n";
  for (std::size_t i = 0; i < net.num_ops(); ++i) {
    const std::int64_t ns = prof->node_ns(i);
    const double share = total > 0.0
                             ? 100.0 * static_cast<double>(ns) / total
                             : 0.0;
    std::cout << "  [" << i << "] " << net.executor().op_name(i) << ": "
              << util::format_fixed(static_cast<double>(ns) / 1e6, 3)
              << " ms / " << prof->node_calls(i) << " calls ("
              << util::format_fixed(share, 1) << "%)";
    // FLOPs / ns and bytes / ns are GFLOP/s and GB/s.
    if (ns > 0 && costs[i].flops > 0.0) {
      const double gflops = costs[i].flops * static_cast<double>(samples) /
                            static_cast<double>(ns);
      std::cout << ", " << util::format_fixed(gflops, 2) << " GFLOP/s";
    }
    if (ns > 0 && costs[i].weight_bytes > 0) {
      const double gbps = static_cast<double>(costs[i].weight_bytes) *
                          static_cast<double>(prof->node_calls(i)) /
                          static_cast<double>(ns);
      std::cout << ", weights " << util::format_fixed(gbps, 2) << " GB/s";
    }
    std::cout << "\n";
  }
}

/// One DST grow/prune step, faked: per layer, flip a couple of mask
/// positions and jitter a few surviving values. Deterministic, so the
/// perturbed model — and the delta diffed from it — reproduce from the
/// seed alone.
void perturb_dst_step(sparse::SparseModel& state) {
  for (std::size_t l = 0; l < state.num_layers(); ++l) {
    sparse::MaskedParameter& layer = state.layer(l);
    const std::vector<std::size_t> active = layer.mask().active_indices();
    const std::vector<std::size_t> inactive = layer.mask().inactive_indices();
    const std::size_t flips = std::min<std::size_t>(
        2, std::min(active.size() > 1 ? active.size() - 1 : 0,
                    inactive.size()));
    for (std::size_t k = 0; k < flips; ++k) {
      layer.mask().deactivate(active[k]);
      layer.mask().activate(inactive[k]);
      layer.param().value[inactive[k]] =
          0.05f * static_cast<float>(k + 1);
    }
    const std::size_t jitters = std::min<std::size_t>(8, active.size());
    for (std::size_t k = flips; k < jitters; ++k) {
      layer.param().value[active[k]] *=
          1.0f + 0.01f * static_cast<float>(k + 1);
    }
    layer.apply_mask_to_value();
  }
}

// GCC 12 emits -Wrestrict false positives on std::string operator+ chains
// (GCC bug 105651); the "m" + std::to_string(i) model names trip it, so
// silence exactly this diagnostic for this function.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

/// --registry N: a fleet of independently-seeded sparse MLPs served from
/// one ModelRegistry under mixed open-loop Poisson traffic, with
/// admission control (try_submit) and an optional mid-run delta hot swap
/// of m0. Every arrival must either complete or be shed — a swap drops
/// nothing.
int run_registry(const util::ArgParser& args) {
  const bool smoke = args.get_bool("smoke");
  util::check(args.get_string("model") == "mlp",
              "--registry mode serves MLP fleets (use --model mlp)");
  const std::size_t n_models =
      static_cast<std::size_t>(args.get_int("registry"));

  models::MlpConfig mcfg;
  mcfg.in_features = static_cast<std::size_t>(args.get_int("in"));
  mcfg.hidden = parse_hidden(args.get_string("hidden"));
  mcfg.out_features = static_cast<std::size_t>(args.get_int("out"));
  mcfg.batch_norm = args.get_bool("batch-norm");
  if (smoke) mcfg.hidden = {32, 32};

  serve::ModelOptions mopts;
  mopts.server.num_threads =
      static_cast<std::size_t>(args.get_int("threads"));
  mopts.server.num_shards =
      static_cast<std::size_t>(args.get_int("shards"));
  mopts.server.max_batch =
      static_cast<std::size_t>(args.get_int("max-batch"));
  mopts.server.max_delay_ms = args.get_double("max-delay-ms");
  mopts.server.max_shards =
      static_cast<std::size_t>(args.get_int("max-shards"));
  mopts.server.queue_quota =
      static_cast<std::size_t>(args.get_int("queue-quota"));
  mopts.compile.intra_op_threads =
      static_cast<std::size_t>(args.get_int("intra-op"));
  mopts.autoscaler.enabled = args.get_bool("autoscale");
  if (smoke) {
    mopts.server.num_threads = 2;
    mopts.server.max_batch = 8;
    mopts.server.max_delay_ms = 1.0;
    mopts.autoscaler.interval_ms = 10.0;
  }

  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed"));
  const double sparsity = args.get_double("sparsity");

  serve::ModelRegistry registry;
  for (std::size_t i = 0; i < n_models; ++i) {
    // Each model's weights AND topology are a pure function of its seed,
    // which is what lets the swap path rebuild m0's base out-of-band.
    util::Rng mrng(seed + 7919 * i);
    auto module = std::make_unique<models::Mlp>(mcfg, mrng);
    auto state = std::make_unique<sparse::SparseModel>(
        *module, sparsity, sparse::DistributionKind::kErk, mrng);
    module->set_training(false);
    registry.add_model("m" + std::to_string(i), std::move(module),
                       std::move(state), mopts);
  }
  std::cout << "registry: " << n_models << " models x "
            << mopts.server.num_shards << " shards ("
            << mopts.server.num_threads << " threads each)"
            << (mopts.autoscaler.enabled ? ", autoscaler on" : "") << "\n";
  arm_trace_if_requested(args);

  // Pre-build the hot-swap delta: reconstruct m0's exact state from its
  // seed, advance a copy one DST step, diff the two. The delta's base
  // hash must match what the registry is serving right now.
  std::optional<serve::CheckpointDelta> delta;
  if (args.get_bool("swap-mid-run")) {
    util::Rng arng(seed);
    models::Mlp base(mcfg, arng);
    sparse::SparseModel base_state(base, sparsity,
                                   sparse::DistributionKind::kErk, arng);
    util::Rng brng(seed);
    models::Mlp next(mcfg, brng);
    sparse::SparseModel next_state(next, sparsity,
                                   sparse::DistributionKind::kErk, brng);
    perturb_dst_step(next_state);
    delta = serve::make_delta(base, &base_state, next, &next_state);
    util::check(delta->base_hash == registry.state_hash("m0"),
                "prepared delta is out of sync with the registry's m0");
  }

  std::size_t total_requests =
      static_cast<std::size_t>(args.get_int("requests"));
  double arrival_rate = args.get_double("arrival-rate");
  if (smoke) total_requests = 120;
  if (arrival_rate <= 0.0) arrival_rate = smoke ? 1500.0 : 2000.0;

  std::atomic<std::size_t> failures{0};
  // Guards the function-local inflight queue of this load generator.
  // dstee-lint: allow(unguarded-mutex) -- local lock, not a member
  util::Mutex fmu;
  util::CondVar fcv;
  std::deque<std::future<tensor::Tensor>> inflight;
  bool dispatch_done = false;
  const std::size_t out_features = mcfg.out_features;
  // dstee-lint: allow(raw-thread) -- load-gen client, not library code
  std::thread reaper([&] {
    for (;;) {
      std::future<tensor::Tensor> f;
      {
        util::UniqueLock lock(fmu);
        while (!dispatch_done && inflight.empty()) fcv.wait(lock);
        if (inflight.empty()) return;
        f = std::move(inflight.front());
        inflight.pop_front();
      }
      try {
        if (f.get().numel() != out_features) failures.fetch_add(1);
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    }
  });

  util::Rng root(seed);
  util::Rng gap_rng = root.fork("poisson-arrivals");
  util::Rng pick_rng = root.fork("model-pick");
  util::Rng payload_rng = root.fork("openloop-payload");
  util::Timer wall;
  std::size_t shed_client = 0;
  const std::size_t swap_at = total_requests / 2;
  std::optional<serve::SwapReport> swap_report;

  using Clock = std::chrono::steady_clock;
  Clock::time_point next_arrival = Clock::now();
  for (std::size_t i = 0; i < total_requests; ++i) {
    if (delta && i == swap_at) {
      // Hot swap m0 mid-run: arrivals before this line may still be
      // queued or in flight — none of them may be dropped.
      swap_report = registry.apply_delta("m0", *delta);
      delta.reset();
    }
    const double gap_s = -std::log(1.0 - gap_rng.uniform()) / arrival_rate;
    next_arrival += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(gap_s));
    std::this_thread::sleep_until(next_arrival);
    const std::size_t pick = std::min<std::size_t>(
        n_models - 1,
        static_cast<std::size_t>(pick_rng.uniform() *
                                 static_cast<double>(n_models)));
    tensor::Tensor sample({mcfg.in_features});
    tensor::fill_normal(sample, payload_rng, 0.0f, 1.0f);
    std::optional<std::future<tensor::Tensor>> f =
        registry.try_submit("m" + std::to_string(pick), std::move(sample));
    if (!f) {
      ++shed_client;
      continue;
    }
    {
      util::MutexLock lock(fmu);
      inflight.push_back(std::move(*f));
    }
    fcv.notify_one();
  }
  const double offered_rps =
      static_cast<double>(total_requests) / wall.seconds();
  {
    util::MutexLock lock(fmu);
    dispatch_done = true;
  }
  fcv.notify_all();
  reaper.join();
  // Drain + join workers BEFORE reading stats: a worker fulfills the
  // promises of its last batch before recording them, so counters can
  // lag the reaper by one batch until shutdown joins everything.
  registry.shutdown();

  std::cout << "\n--- mixed open-loop traffic ("
            << util::format_fixed(arrival_rate, 1) << " req/s offered, "
            << util::format_fixed(offered_rps, 1) << " achieved) ---\n";
  std::size_t completed = 0, shed_server = 0, swaps = 0;
  for (const std::string& name : registry.model_names()) {
    const serve::StatsSnapshot s = registry.stats(name);
    completed += s.requests;
    shed_server += s.shed_total;
    swaps += s.swap_count;
    std::cout << "  " << name << ": " << s.requests << " reqs, "
              << s.shed_total << " shed, p50 "
              << util::format_fixed(s.latency_p50_ms, 3) << " ms, p99 "
              << util::format_fixed(s.latency_p99_ms, 3) << " ms, "
              << registry.num_active_shards(name) << " active shards, "
              << s.swap_count << " swaps\n";
  }
  if (swap_report) {
    std::cout << "hot swap m0: "
              << (swap_report->full_recompile
                      ? std::string("full recompile")
                      : std::to_string(swap_report->patched_weight_nodes) +
                            "/" +
                            std::to_string(swap_report->total_weight_nodes) +
                            " weight nodes patched")
              << ", swap epoch " << swap_report->swap_epoch << "\n";
  }

  write_trace_if_requested(args);
  if (!args.get_string("metrics-out").empty()) {
    // Per-model live metrics are already in the process registry (the
    // ModelRegistry wires every server); bridge the final snapshots too.
    for (const std::string& name : registry.model_names()) {
      serve::export_stats_metrics(obs::metrics(), name,
                                  registry.stats(name));
    }
    write_metrics_if_requested(args);
  }

  util::check(failures.load() == 0,
              std::to_string(failures.load()) +
                  " requests failed or returned a wrong-sized row");
  util::check(completed + shed_client == total_requests,
              "dropped requests: " + std::to_string(completed) +
                  " completed + " + std::to_string(shed_client) +
                  " shed != " + std::to_string(total_requests));
  util::check(shed_server == shed_client,
              "server shed accounting disagrees with the client");
  if (swap_report) {
    util::check(swaps >= 1, "swap ran but no server counted it");
    util::check(!swap_report->full_recompile,
                "sparse delta unexpectedly forced a full recompile");
  }
  if (smoke) std::cout << "\nSMOKE OK\n";
  return 0;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

int run(int argc, const char* const* argv) {
  util::ArgParser args(
      "dstee_serve — compile a (sparse) MLP/VGG/ResNet to CSR ops and serve "
      "it with a micro-batching thread pool under closed-loop load.");
  args.add_flag("model", "mlp | vgg19 | resnet18 | resnet50", "mlp")
      .add_flag("checkpoint",
                "dstee_run checkpoint to load (empty = random weights with "
                "a fresh random sparse topology)",
                "")
      .add_flag("in", "input features (mlp)", "32")
      .add_flag("hidden", "comma-separated hidden sizes (mlp)", "128,128")
      .add_flag("out", "output classes (mlp)", "8")
      .add_flag("batch-norm", "build the MLP with batch-norm", "false")
      .add_flag("image-size", "input resolution (vgg/resnet)", "12")
      .add_flag("classes", "output classes (vgg/resnet)", "8")
      .add_flag("width", "width multiplier (vgg/resnet)", "0.1")
      .add_flag("sparsity", "topology sparsity when no checkpoint", "0.9")
      .add_flag("threads", "server worker threads per shard", "2")
      .add_flag("shards", "replica worker groups (round-robin routing)",
                "1")
      .add_flag("max-batch", "micro-batch flush size", "16")
      .add_flag("max-delay-ms",
                "cap on how long a partial micro-batch is held (the hold "
                "is one forward time when shorter)",
                "2.0")
      .add_flag("intra-op",
                "intra-op chunks per kernel on the runtime pool (0 = "
                "pool-wide)",
                "1")
      .add_flag("passes",
                "replace the pass pipeline with this comma-separated spec "
                "(registry names, \":\"-separated args), e.g. "
                "\"elide-dropout,fold-bn,fuse-epilogue,quantize:int8\" "
                "(empty = default pipeline)",
                "")
      .add_flag("kernel-backend",
                "pin the sparse-kernel backend (\"scalar\", \"avx2\", "
                "\"avx512\"); empty = CPUID pick (the widest), or the "
                "DSTEE_KERNEL_BACKEND environment variable. Unsupported "
                "names fail loudly.",
                "")
      .add_flag("dump-plan",
                "print the active pass pipeline and the post-pass compile "
                "plan (shapes, nnz, FLOPs shares, fusion/int8 "
                "annotations) and exit without serving",
                "false")
      .add_flag("clients", "closed-loop client threads", "4")
      .add_flag("requests",
                "total requests (across clients, or open-loop arrivals)",
                "2000")
      .add_flag("arrival-rate",
                "open-loop Poisson arrivals per second (0 = closed loop)",
                "0")
      .add_flag("registry",
                "serve this many independently-seeded MLP models from one "
                "ModelRegistry under mixed open-loop traffic (0 = classic "
                "single-model mode)",
                "0")
      .add_flag("swap-mid-run",
                "registry mode: hot-swap model m0 with a sparse delta "
                "halfway through the arrival schedule",
                "false")
      .add_flag("max-shards",
                "scaling headroom per model (0 = --shards; registry mode)",
                "0")
      .add_flag("queue-quota",
                "per-shard admission quota for registry-mode try_submit "
                "(0 = shed only at queue capacity)",
                "0")
      .add_flag("autoscale",
                "registry mode: grow/shrink each model's active shards "
                "from queue depth",
                "false")
      .add_flag("trace",
                "record sampled request traces and write Chrome trace-event "
                "JSON (Perfetto-loadable) to this file after the run",
                "")
      .add_flag("trace-sample",
                "trace every Nth request (with --trace; 1 = every request)",
                "1")
      .add_flag("metrics-out",
                "write Prometheus text exposition of the obs metrics "
                "registry (latency histogram, request/batch counters, "
                "bridged stats) to this file after the run",
                "")
      .add_flag("profile-ops",
                "accumulate per-PlanOp wall time across all forwards and "
                "print the measured breakdown after the run, with each "
                "node's achieved GFLOP/s and weight GB/s",
                "false")
      .add_flag("seed", "random seed", "1")
      .add_flag("smoke",
                "tiny self-checking run for CI (overrides load knobs)",
                "false");
  if (!args.parse(argc, argv)) return 0;

  // Backend first: every mode (classic, registry, --dump-plan probe) runs
  // its kernels under the pinned choice. Unknown names fail loudly here.
  const std::string backend_name = args.get_string("kernel-backend");
  if (!backend_name.empty()) {
    kernels::simd::set_active_backend(backend_name);
  }
  std::cout << "kernel backend: " << kernels::simd::active_backend().name
            << "\n";

  if (args.get_int("registry") > 0) return run_registry(args);

  const bool smoke = args.get_bool("smoke");
  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed")));
  ServeModel m = build_model(args, smoke, rng);
  std::string ckpt = args.get_string("checkpoint");

  // Randomly-initialized conv nets carry batch-norm: push a few
  // training-mode batches through so running statistics move off init and
  // eval-BN folding is non-trivial. Pointless (and skipped) when a
  // checkpoint will overwrite every parameter and BN buffer anyway.
  if (ckpt.empty() && m.sample_shape.rank() == 3) {
    util::Rng warm_rng(rng.fork("bn-warmup"));
    for (int i = 0; i < 2; ++i) {
      tensor::Tensor warm = batched(m.sample_shape, 4);
      tensor::fill_normal(warm, warm_rng, 0.0f, 1.0f);
      m.module->forward(warm);
    }
  }
  m.module->set_training(false);

  serve::CompileOptions copts;
  copts.intra_op_threads =
      static_cast<std::size_t>(args.get_int("intra-op"));
  // Pin the backend into the bound ops too (not just the process-wide
  // active choice), so a later set_active_backend cannot move this net.
  copts.kernel_backend = backend_name;
  copts.profile_ops = args.get_bool("profile-ops");

  std::optional<sparse::SparseModel> smodel;
  if (ckpt.empty()) {
    smodel.emplace(*m.module, args.get_double("sparsity"),
                   sparse::DistributionKind::kErk, rng);
    if (smoke && m.sample_shape.rank() == 3) {
      // Smoke for conv models exercises the full artifact path: write the
      // random-topology model out as a checkpoint and serve THAT.
      ckpt = "serve_smoke_" + args.get_string("model") + ".bin";
      train::save_checkpoint(ckpt, *m.module, &*smodel);
    }
  }
  // The staged compiler: default pipeline (elide dropout, fold BN, free
  // after last use), or a named-registry spec via --passes.
  serve::Compiler compiler(copts);
  const std::string pass_spec = args.get_string("passes");
  if (!pass_spec.empty()) compiler.pipeline_from_spec(pass_spec);

  if (!ckpt.empty()) {
    // dstee_run saves parameter values only; masked weights are stored
    // as exact zeros, so dense_eps=0 recovers the trained topology.
    train::load_checkpoint(ckpt, *m.module, smodel ? &*smodel : nullptr);
  }
  serve::Plan plan = compiler.plan(*m.module, smodel ? &*smodel : nullptr);
  if (args.get_bool("dump-plan")) {
    // Inspection mode: print the active pipeline and the post-pass plan,
    // then stop before binding.
    std::cout << "pipeline: " << compiler.pipeline_spec() << "\n";
    std::cout << plan.dump(&m.sample_shape);
    std::cout << "PLAN OK\n";
    return 0;
  }
  serve::CompiledNet net = compiler.bind(std::move(plan));
  std::cout << net.summary();
  const double sp_flops = net.flops_per_sample(m.sample_shape);
  const double dn_flops = net.dense_flops_per_sample(m.sample_shape);
  std::cout << "flops/sample: " << util::format_fixed(sp_flops, 0)
            << " sparse vs " << util::format_fixed(dn_flops, 0)
            << " dense (" << util::format_fixed(dn_flops / sp_flops, 1)
            << "x compression)\n";

  // Sanity: the compiled program must reproduce the eval-mode dense
  // forward. Cheap, and turns --smoke into a real correctness gate. An
  // int8-quantized net is NOT elementwise-close to fp32 — for it the
  // gate is per-sample top-1 agreement, the serving-level contract.
  const std::size_t probe_batch = 4;
  {
    tensor::Tensor probe = batched(m.sample_shape, probe_batch);
    util::Rng probe_rng(rng.fork("probe"));
    tensor::fill_normal(probe, probe_rng, 0.0f, 1.0f);
    const tensor::Tensor dense_out = m.module->forward(probe);
    const tensor::Tensor compiled_out = net.forward(probe);
    if (net.num_quantized_ops() == 0) {
      util::check(compiled_out.allclose(dense_out, 1e-4f),
                  "compiled forward diverged from dense eval forward");
      std::cout << "compiled == dense eval forward on probe batch [ok]\n";
    } else {
      const std::size_t classes = compiled_out.dim(1);
      for (std::size_t n = 0; n < compiled_out.dim(0); ++n) {
        std::size_t dense_top = 0, q_top = 0;
        for (std::size_t c = 1; c < classes; ++c) {
          if (dense_out[n * classes + c] >
              dense_out[n * classes + dense_top]) {
            dense_top = c;
          }
          if (compiled_out[n * classes + c] >
              compiled_out[n * classes + q_top]) {
            q_top = c;
          }
        }
        util::check(dense_top == q_top,
                    "quantized forward changed a probe sample's top-1");
      }
      std::cout << "int8 top-1 == dense eval top-1 on probe batch [ok]\n";
    }
  }

  serve::ServerConfig scfg;
  scfg.num_threads = static_cast<std::size_t>(args.get_int("threads"));
  scfg.num_shards = static_cast<std::size_t>(args.get_int("shards"));
  scfg.max_batch = static_cast<std::size_t>(args.get_int("max-batch"));
  scfg.max_delay_ms = args.get_double("max-delay-ms");
  const double arrival_rate = args.get_double("arrival-rate");
  std::size_t clients = static_cast<std::size_t>(args.get_int("clients"));
  std::size_t total_requests =
      static_cast<std::size_t>(args.get_int("requests"));
  if (smoke) {
    // Smoke shrinks the load but keeps --shards/--arrival-rate, so the
    // sharded and open-loop paths get their own CI smokes.
    scfg.num_threads = 2;
    scfg.max_batch = 8;
    scfg.max_delay_ms = 1.0;
    clients = 2;
    total_requests = 64;
  }
  util::check(clients >= 1, "need at least one client");
  util::check(arrival_rate >= 0.0, "arrival rate must be non-negative");

  if (!args.get_string("metrics-out").empty()) {
    scfg.metrics = &obs::metrics();
    scfg.metrics_label = args.get_string("model");
  }
  arm_trace_if_requested(args);

  serve::InferenceServer server(net, scfg);
  std::atomic<std::size_t> failures{0};
  util::Timer wall;
  double offered_rps = 0.0;

  if (arrival_rate > 0.0) {
    // Open-loop (Poisson) load: arrivals follow a rate process that does
    // NOT wait for completions, so queueing delay lands in the latency
    // tail instead of silently throttling the offered load the way a
    // closed loop does. The main thread dispatches on exponential
    // inter-arrival gaps while a reaper thread consumes futures
    // concurrently, so reaping never delays an arrival. submit() can
    // still block when a shard queue hits capacity — that stall is the
    // finite-buffer reality, and it is measured and reported as
    // backpressure-blocked time.
    //
    // Two named streams rooted directly at --seed: the inter-arrival gap
    // sequence must be a pure function of the seed — not entangled with
    // how many draws model construction or payload synthesis consumed —
    // so the same offered-load trace reproduces across machines, models
    // and payload changes.
    util::Rng openloop_root(static_cast<std::uint64_t>(args.get_int("seed")));
    util::Rng gap_rng = openloop_root.fork("poisson-arrivals");
    util::Rng payload_rng = openloop_root.fork("openloop-payload");
    // Guards the function-local inflight queue of this load generator.
    // dstee-lint: allow(unguarded-mutex) -- local lock, not a member
    util::Mutex fmu;
    util::CondVar fcv;
    std::deque<std::future<tensor::Tensor>> inflight;
    bool dispatch_done = false;
    // The server's own threads all live on runtime::Pool or
    // InferenceServer workers; this is the load-generator client side.
    // dstee-lint: allow(raw-thread) -- load-gen client, not library code
    std::thread reaper([&] {
      for (;;) {
        std::future<tensor::Tensor> f;
        {
          util::UniqueLock lock(fmu);
          while (!dispatch_done && inflight.empty()) fcv.wait(lock);
          if (inflight.empty()) return;  // dispatch done and drained
          f = std::move(inflight.front());
          inflight.pop_front();
        }
        try {
          if (f.get().numel() != m.out_features) failures.fetch_add(1);
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
    using Clock = std::chrono::steady_clock;
    Clock::time_point next_arrival = Clock::now();
    for (std::size_t i = 0; i < total_requests; ++i) {
      const double gap_s =
          -std::log(1.0 - gap_rng.uniform()) / arrival_rate;
      next_arrival += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap_s));
      std::this_thread::sleep_until(next_arrival);  // no-op when behind
      tensor::Tensor sample(m.sample_shape);
      tensor::fill_normal(sample, payload_rng, 0.0f, 1.0f);
      try {
        std::future<tensor::Tensor> f = server.submit(std::move(sample));
        {
          util::MutexLock lock(fmu);
          inflight.push_back(std::move(f));
        }
        fcv.notify_one();
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    }
    offered_rps = static_cast<double>(total_requests) / wall.seconds();
    {
      util::MutexLock lock(fmu);
      dispatch_done = true;
    }
    fcv.notify_all();
    reaper.join();
  } else {
    std::atomic<std::size_t> next{0};
    auto client = [&](std::size_t client_id) {
      util::Rng crng(static_cast<std::uint64_t>(args.get_int("seed")) +
                     1000 + client_id);
      while (next.fetch_add(1) < total_requests) {
        tensor::Tensor sample(m.sample_shape);
        tensor::fill_normal(sample, crng, 0.0f, 1.0f);
        try {
          const tensor::Tensor out = server.submit(std::move(sample)).get();
          if (out.numel() != m.out_features) failures.fetch_add(1);
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    };
    // dstee-lint: allow(raw-thread) -- closed-loop load-gen clients.
    std::vector<std::thread> pool;
    for (std::size_t c = 1; c < clients; ++c) pool.emplace_back(client, c);
    client(0);
    for (auto& t : pool) t.join();
  }
  const double wall_s = wall.seconds();
  server.shutdown();

  const serve::StatsSnapshot stats = server.stats();
  if (arrival_rate > 0.0) {
    std::cout << "\n--- load generator (open-loop Poisson, "
              << util::format_fixed(arrival_rate, 1) << " req/s offered) "
              << "---\n"
              << stats.to_string() << "offered rate:    "
              << util::format_fixed(offered_rps, 1)
              << " req/s (achieved dispatch)\n"
              << "tail latency:    p50 "
              << util::format_fixed(stats.latency_p50_ms, 3) << " ms | p99 "
              << util::format_fixed(stats.latency_p99_ms, 3)
              << " ms | p99.9 "
              << util::format_fixed(stats.latency_p999_ms, 3) << " ms\n";
  } else {
    std::cout << "\n--- load generator (" << clients
              << " closed-loop clients) ---\n"
              << stats.to_string() << "client-side throughput: "
              << util::format_fixed(
                     static_cast<double>(stats.requests) / wall_s, 1)
              << " req/s\n";
  }
  if (server.num_shards() > 1) {
    std::cout << "\nper-shard (" << server.num_shards()
              << " replica groups, round-robin-by-shape routing):\n";
    for (std::size_t sh = 0; sh < server.num_shards(); ++sh) {
      const serve::StatsSnapshot ss = server.shard_stats(sh);
      std::cout << "  shard " << sh << ": " << ss.requests << " reqs in "
                << ss.batches << " batches (mean "
                << util::format_fixed(ss.mean_batch_size, 2) << "), p99 "
                << util::format_fixed(ss.latency_p99_ms, 3)
                << " ms, queue peak " << ss.queue_peak << ", blocked "
                << util::format_fixed(ss.blocked_ms, 3) << " ms\n";
    }
  }

  // The probe batch ran through the same profiled executor.
  print_op_profile(net, m.sample_shape, probe_batch + stats.requests);
  write_trace_if_requested(args);
  if (!args.get_string("metrics-out").empty()) {
    // Bridge the final snapshot alongside the live hot-path metrics, then
    // write the whole registry as one Prometheus exposition.
    serve::export_stats_metrics(obs::metrics(), args.get_string("model"),
                                stats);
    write_metrics_if_requested(args);
  }

  util::check(failures.load() == 0, std::to_string(failures.load()) +
                                        " requests failed or returned a "
                                        "wrong-sized row");
  util::check(stats.requests == total_requests,
              "server completed " + std::to_string(stats.requests) + " of " +
                  std::to_string(total_requests) + " requests");
  if (smoke) std::cout << "\nSMOKE OK\n";
  return 0;
}

}  // namespace
}  // namespace dstee

int main(int argc, char** argv) {
  try {
    return dstee::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
