// The workloads, mlp_fleet_swap and resnet18_b1: serving through
// serve::ModelRegistry while a control thread hot-swaps DST-EE deltas
// into the served models.
//
// Both share one shape: checkpoints and a chained delta per swap are
// written by `prepare` (each delta is one real DST-EE step plus an SGD
// step on a copy of the served model), set-up loads the checkpoints into
// a fresh registry several times, then one window of traffic runs with
// the swaps beside it. Every reply is compared with the precomputed
// batch-1 reply of each version of its model's delta chain.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>

#include "core/dst_ee.hpp"
#include "data/dataloader.hpp"
#include "data/synthetic_images.hpp"
#include "data/synthetic_tabular.hpp"
#include "models/mlp.hpp"
#include "models/resnet.hpp"
#include "nn/losses.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "optim/optimizer.hpp"
#include "replay.hpp"
#include "serve/delta.hpp"
#include "serve/registry.hpp"
#include "tensor/init.hpp"
#include "train/checkpoint.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dstee;

namespace {

constexpr double kWarmupS = 1.0;     // traffic before the window opens
constexpr std::size_t kSetups = 7;   // setup_s is their median
constexpr double kSetupSpinS = 0.3;  // harness-only warm-up before each
constexpr double kSparsity = 0.9;

struct Spec {
  std::size_t models = 1;
  bool open_loop = false;
  double rate_rps = 0.0;    // open loop: total Poisson arrival rate
  std::size_t clients = 0;  // closed loop: client threads
  double swap_period_s = 1.0;
  // Throughput, best-quarter and tracing granularity; a multiple of the
  // swap period so the control thread toggles tracing on the edges.
  double sub_window_s = 1.0;
  std::size_t payloads = 16;  // per model
  std::size_t train_batch = 4;
  std::uint32_t trace_sample_every = 20;
  std::size_t replay_passes = 50;
  serve::ServerConfig server;
  tensor::Shape sample;
  std::size_t classes = 10;
  bool resnet = false;
};

Spec spec_for(const std::string& workload) {
  Spec s;
  if (workload == "mlp_fleet_swap") {
    // The ROADMAP reference MLP, four tenants, default batching.
    s.models = 4;
    s.open_loop = true;
    s.rate_rps = 4000.0;
    s.swap_period_s = 0.2;
    s.payloads = 32;
    s.train_batch = 32;
    s.trace_sample_every = 20;
    s.replay_passes = 400;
    s.server.num_shards = 2;
    s.server.num_threads = 1;
    s.server.max_batch = 16;
    s.server.max_delay_ms = 2.0;
    s.sample = tensor::Shape({256});
  } else if (workload == "resnet18_b1") {
    // Batch 1 skips the batch window: the executor does the work.
    s.models = 1;
    s.clients = 2;
    s.swap_period_s = 0.5;
    s.sub_window_s = 0.5;
    s.payloads = 16;
    s.train_batch = 4;
    s.trace_sample_every = 40;
    s.replay_passes = 60;
    s.server.num_shards = 1;
    s.server.num_threads = 2;
    s.server.max_batch = 1;
    s.sample = tensor::Shape({3, 32, 32});
    s.resnet = true;
  } else {
    util::fail("unknown serving workload: " + workload);
  }
  return s;
}

std::unique_ptr<nn::Sequential> build_module(const Spec& spec,
                                             util::Rng& rng) {
  if (spec.resnet) {
    models::ResNetConfig cfg;
    cfg.depth = 18;
    cfg.in_channels = 3;
    cfg.image_size = 32;
    cfg.num_classes = spec.classes;
    cfg.width_multiplier = 0.25;
    return std::make_unique<models::ResNet>(cfg, rng);
  }
  models::MlpConfig cfg;
  cfg.in_features = 256;
  cfg.hidden = {512, 512};
  cfg.out_features = spec.classes;
  return std::make_unique<models::Mlp>(cfg, rng);
}

std::uint64_t model_seed(std::uint64_t seed, std::size_t m) {
  return seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL * (m + 1);
}

/// The DST-EE training that produces a model's delta chain: the model,
/// SGD, a DstEeSession with ΔT = 1 (every step is a drop-and-grow round)
/// and a loader over seeded synthetic data — a pure function of the
/// seed, so the traced run can replay the chain's steps exactly.
struct DeltaTrainer {
  static constexpr double kLr = 0.05;

  DeltaTrainer(const Spec& spec, std::uint64_t seed, std::size_t steps) {
    const std::int64_t t0 = now_ns();
    if (spec.resnet) {
      data::SyntheticImageConfig cfg;
      cfg.num_classes = spec.classes;
      cfg.image_size = spec.sample.dim(1);
      cfg.train_per_class = 8;
      cfg.test_per_class = 1;
      cfg.seed = seed;
      data = std::make_unique<data::SyntheticImageDataset>(
          cfg, data::SyntheticImageDataset::Split::kTrain);
    } else {
      data::SyntheticTabularConfig cfg;
      cfg.num_classes = spec.classes;
      cfg.features = spec.sample.dim(0);
      cfg.train_per_class = 32;
      cfg.test_per_class = 1;
      cfg.seed = seed;
      data = std::make_unique<data::SyntheticTabularDataset>(
          cfg, data::SyntheticTabularDataset::Split::kTrain);
    }
    synth_ms = static_cast<double>(now_ns() - t0) / 1e6;
    util::Rng rng(seed);
    module = build_module(spec, rng);
    optim::Sgd::Config sgd;
    sgd.lr = kLr;
    sgd.momentum = 0.9;
    opt = std::make_unique<optim::Sgd>(module->parameters(), sgd);
    core::DstEeConfig ee;
    ee.sparsity = kSparsity;
    ee.delta_t = 1;
    ee.stop_fraction = 1.0;
    session = std::make_unique<core::DstEeSession>(*module, *opt, ee,
                                                   steps + 1, seed);
    loader = std::make_unique<data::DataLoader>(*data, spec.train_batch,
                                                rng.fork("loader"));
    if (spec.resnet) {
      // Move the BN running statistics off their init so eval-BN folding
      // is not the identity.
      for (int i = 0; i < 2; ++i) module->forward(next_batch().examples);
    }
    module->set_training(false);
  }

  data::DataLoader::Batch next_batch() {
    if (!loader->has_next()) loader->start_epoch();
    return loader->next_batch();
  }

  /// One training step; `stamps` (8 entries) receives the boundaries of
  /// next_batch, forward, loss, backward, on_iteration_end, Sgd::step and
  /// after_optimizer_step. Returns whether a round fired.
  bool step(std::size_t it, std::int64_t* stamps) {
    module->set_training(true);
    stamps[0] = now_ns();
    const data::DataLoader::Batch batch = next_batch();
    stamps[1] = now_ns();
    module->zero_grad();
    const tensor::Tensor logits = module->forward(batch.examples);
    stamps[2] = now_ns();
    loss.forward(logits, batch.labels);
    const tensor::Tensor grad = loss.backward();
    stamps[3] = now_ns();
    module->backward(grad);
    stamps[4] = now_ns();
    const bool round = session->on_iteration_end(it, kLr);
    stamps[5] = now_ns();
    opt->step();
    stamps[6] = now_ns();
    session->after_optimizer_step();
    stamps[7] = now_ns();
    module->set_training(false);
    return round;
  }

  std::unique_ptr<data::Dataset> data;
  std::unique_ptr<nn::Sequential> module;
  std::unique_ptr<optim::Sgd> opt;
  std::unique_ptr<core::DstEeSession> session;
  std::unique_ptr<data::DataLoader> loader;
  nn::SoftmaxCrossEntropy loss;
  double synth_ms = 0.0;
};

std::string model_name(const Spec& spec, std::size_t m) {
  return (spec.resnet ? "resnet18-" : "mlp-") + std::to_string(m);
}

std::string expected_path(const RunOptions& o) {
  return o.out_dir + "/expected.bin";
}

/// Swaps each model receives in the window (the chain has one more
/// version than that: the checkpoint itself).
std::size_t swaps_per_model(const Spec& spec, double seconds) {
  const auto total = static_cast<std::size_t>(
      std::ceil(seconds / spec.swap_period_s));
  return (total + spec.models - 1) / spec.models;
}

/// The pooled request payloads of model `m`, a pure function of the seed.
std::vector<tensor::Tensor> payload_pool(const Spec& spec,
                                         std::uint64_t seed, std::size_t m) {
  util::Rng rng(model_seed(seed, m) ^ 0xfeedULL);
  std::vector<tensor::Tensor> pool;
  for (std::size_t p = 0; p < spec.payloads; ++p) {
    tensor::Tensor x(spec.sample);
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    pool.push_back(std::move(x));
  }
  return pool;
}

/// Expected replies: [model][version][payload] → the rank-1 row the
/// server hands back.
using Expected = std::vector<std::vector<std::vector<tensor::Tensor>>>;

std::vector<tensor::Tensor> replies_of(nn::Sequential& model,
                                       const sparse::SparseModel& state,
                                       const std::vector<tensor::Tensor>& pool) {
  const serve::CompiledNet net = serve::CompiledNet::compile(model, &state);
  std::vector<tensor::Tensor> rows;
  for (const tensor::Tensor& x : pool) {
    const tensor::Tensor y = net.forward(x.reshaped(x.shape().prepended(1)));
    rows.push_back(y.reshaped(tensor::Shape({y.numel()})));
  }
  return rows;
}

void write_expected(const std::string& path, const Expected& e) {
  std::ofstream out(path, std::ios::binary);
  const std::uint64_t dims[4] = {e.size(), e[0].size(), e[0][0].size(),
                                 e[0][0][0].numel()};
  out.write(reinterpret_cast<const char*>(dims), sizeof(dims));
  for (const auto& m : e) {
    for (const auto& v : m) {
      for (const tensor::Tensor& row : v) {
        out.write(reinterpret_cast<const char*>(row.raw()),
                  static_cast<std::streamsize>(row.numel() * sizeof(float)));
      }
    }
  }
  util::check(static_cast<bool>(out), "perfbench: cannot write " + path);
}

Expected read_expected(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t dims[4] = {};
  in.read(reinterpret_cast<char*>(dims), sizeof(dims));
  util::check(static_cast<bool>(in) && dims[0] > 0 && dims[0] < 64 &&
                  dims[1] < 4096 && dims[2] < 4096 && dims[3] < 65536,
              "perfbench: bad expected-replies file " + path +
                  " (run the prepare phase first)");
  Expected e(dims[0]);
  for (auto& m : e) {
    m.resize(dims[1]);
    for (auto& v : m) {
      for (std::uint64_t p = 0; p < dims[2]; ++p) {
        tensor::Tensor row(tensor::Shape({static_cast<std::size_t>(dims[3])}));
        in.read(reinterpret_cast<char*>(row.raw()),
                static_cast<std::streamsize>(dims[3] * sizeof(float)));
        v.push_back(std::move(row));
      }
    }
  }
  util::check(static_cast<bool>(in), "perfbench: truncated " + path);
  return e;
}

/// A module + sparse state loaded from model m's checkpoint: what the
/// registry is given at set-up, and the copy the traced run replays on.
struct Loaded {
  std::unique_ptr<nn::Sequential> module;
  std::unique_ptr<sparse::SparseModel> state;
  double build_ms = 0.0;  // module + SparseModel construction
  double load_ms = 0.0;   // train::load_checkpoint
};

Loaded load_model(const Spec& spec, const RunOptions& o, std::size_t m,
                  SpanLog* log, std::uint64_t parent) {
  const std::int64_t t0 = now_ns();
  // The random init and masks are overwritten by the checkpoint; they
  // are the construction cost every cold start pays.
  util::Rng rng(model_seed(o.seed, m) ^ 0xc01dULL);
  Loaded l;
  l.module = build_module(spec, rng);
  l.state = std::make_unique<sparse::SparseModel>(
      *l.module, kSparsity, sparse::DistributionKind::kErk, rng);
  const std::int64_t t1 = now_ns();
  train::load_checkpoint(ckpt_path(o, m), *l.module, l.state.get());
  l.module->set_training(false);
  const std::int64_t t2 = now_ns();
  if (log != nullptr) {
    log->add(0, "build", t0, t1, parent, m);
    log->add(0, "checkpoint_load", t1, t2, parent, m);
  }
  l.build_ms = static_cast<double>(t1 - t0) / 1e6;
  l.load_ms = static_cast<double>(t2 - t1) / 1e6;
  return l;
}

/// Index of the version of `expected` (within [lo, hi]) equal to `row`.
std::optional<std::size_t> match_version(
    const std::vector<std::vector<tensor::Tensor>>& versions,
    std::size_t payload, const tensor::Tensor& row, std::size_t lo,
    std::size_t hi) {
  for (std::size_t v = lo; v <= hi && v < versions.size(); ++v) {
    if (row.equals(versions[v][payload])) return v;
  }
  return std::nullopt;
}

}  // namespace

std::string ckpt_path(const RunOptions& o, std::size_t m) {
  return o.out_dir + "/model" + std::to_string(m) + ".ckpt";
}

std::string delta_path(const RunOptions& o, std::size_t m, std::size_t k) {
  return o.out_dir + "/model" + std::to_string(m) + "-delta" +
         std::to_string(k) + ".bin";
}

bool is_workload(const std::string& name) {
  return name == "mlp_fleet_swap" || name == "resnet18_b1";
}

void prepare_serving(const RunOptions& o) {
  const Spec spec = spec_for(o.workload);
  const std::size_t chain = swaps_per_model(spec, o.seconds);
  Expected expected(spec.models);
  for (std::size_t m = 0; m < spec.models; ++m) {
    const std::uint64_t seed = model_seed(o.seed, m);
    const std::vector<tensor::Tensor> pool = payload_pool(spec, o.seed, m);

    DeltaTrainer trainer(spec, seed, chain);
    train::save_checkpoint(ckpt_path(o, m), *trainer.module,
                           &trainer.session->sparse_model());

    // `prev` follows the chain one delta behind `module`: each delta is
    // diffed against it, then applied to it (apply_delta checks both
    // hashes, so the chain is continuous by construction).
    Loaded prev = load_model(spec, o, m, nullptr, 0);
    expected[m].push_back(replies_of(*prev.module, *prev.state, pool));
    for (std::size_t k = 1; k <= chain; ++k) {
      std::int64_t stamps[8];
      trainer.step(k - 1, stamps);
      const serve::CheckpointDelta delta =
          serve::make_delta(*prev.module, prev.state.get(), *trainer.module,
                            &trainer.session->sparse_model());
      serve::save_delta(delta_path(o, m, k), delta);
      serve::apply_delta(delta, *prev.module, prev.state.get());
      expected[m].push_back(replies_of(*prev.module, *prev.state, pool));
    }
    // Every version must answer every payload differently, so a reply
    // equal to one version is equal to exactly one.
    const auto& versions = expected[m];
    for (std::size_t p = 0; p < pool.size(); ++p) {
      for (std::size_t a = 0; a < versions.size(); ++a) {
        for (std::size_t b = a + 1; b < versions.size(); ++b) {
          util::check(!versions[a][p].equals(versions[b][p]),
                      "perfbench: two versions of a model answer alike");
        }
      }
    }
  }
  write_expected(expected_path(o), expected);
  std::cout << "prepared " << spec.models << " model(s), " << chain
            << " delta(s) each, in " << o.out_dir << "\n";
}

namespace {

/// One registry brought up from the checkpoints, timed from the setup
/// clock to the first correct reply of every model.
struct Setup {
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<serve::ModelRegistry> registry;
  double total_s = 0.0;
  double build_ms = 0.0, load_ms = 0.0, add_ms = 0.0, first_ms = 0.0;
  bool correct = true;
};

Setup cold_start(const Spec& spec, const RunOptions& o,
                 const std::vector<std::vector<tensor::Tensor>>& pools,
                 const Expected& expected, SpanLog* log) {
  spin(kSetupSpinS);
  Setup s;
  const std::int64_t t0 = now_ns();
  const std::uint64_t root = log != nullptr ? log->reserve(0) : 0;
  s.metrics = std::make_unique<obs::MetricsRegistry>();
  s.registry = std::make_unique<serve::ModelRegistry>(s.metrics.get());
  serve::ModelOptions mopts;
  mopts.server = spec.server;
  for (std::size_t m = 0; m < spec.models; ++m) {
    Loaded l = load_model(spec, o, m, log, root);
    s.build_ms += l.build_ms;
    s.load_ms += l.load_ms;
    const std::int64_t a0 = now_ns();
    s.registry->add_model(model_name(spec, m), std::move(l.module),
                          std::move(l.state), mopts);
    const std::int64_t a1 = now_ns();
    s.add_ms += static_cast<double>(a1 - a0) / 1e6;
    if (log != nullptr) log->add(0, "add_model", a0, a1, root, m);
  }
  const std::int64_t f0 = now_ns();
  for (std::size_t m = 0; m < spec.models; ++m) {
    const tensor::Tensor row =
        s.registry->submit(model_name(spec, m), pools[m][0]).get();
    s.correct = s.correct && row.equals(expected[m][0][0]);
  }
  const std::int64_t t1 = now_ns();
  if (log != nullptr) {
    log->add(0, "first_reply", f0, t1, root, 0);
    log->add(Span{root, 0, "setup", t0, t1, 0, 0});
  }
  s.first_ms = static_cast<double>(t1 - f0) / 1e6;
  s.total_s = static_cast<double>(t1 - t0) / 1e9;
  return s;
}

/// Alternating sub-windows of the traced run: odd ones are traced.
bool traced_at(const Spec& spec, bool trace_run, std::int64_t t,
               std::int64_t window_start) {
  if (!trace_run || t < window_start) return false;
  const auto sub = static_cast<std::int64_t>(spec.sub_window_s * 1e9);
  return ((t - window_start) / sub) % 2 == 1;
}

struct Swaps {
  std::vector<std::atomic<std::size_t>> started;    // per model
  std::vector<std::atomic<std::size_t>> completed;  // per model
  explicit Swaps(std::size_t models) : started(models), completed(models) {}
};

struct SwapLog {
  std::vector<double> swap_ms;      // wall
  std::vector<double> swap_cpu_ms;  // CPU time of the control thread
  std::vector<std::size_t> swap_sub;  // sub-window each swap started in
  std::vector<std::pair<std::size_t, std::size_t>> applied;  // (model, k)
  double patched_share_sum = 0.0;
  bool chain_ok = true;
  std::string error;
};

/// The control thread: every swap period, the next delta of the next
/// model (round-robin), loaded from its file and applied.
void control_loop(const Spec& spec, const RunOptions& o,
                  serve::ModelRegistry& registry, Swaps& swaps,
                  std::int64_t window_start, std::int64_t window_end,
                  SpanLog& log, std::uint32_t lane, SwapLog& out) {
  const auto period = static_cast<std::int64_t>(spec.swap_period_s * 1e9);
  const auto sub_ns = static_cast<std::int64_t>(spec.sub_window_s * 1e9);
  const std::size_t chain = swaps_per_model(spec, o.seconds);
  std::vector<std::size_t> next(spec.models, 1);
  bool obs_on = false;
  for (std::size_t j = 0;; ++j) {
    const std::int64_t tick = window_start + static_cast<std::int64_t>(j) * period;
    if (tick >= window_end) break;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(tick)));
    const std::int64_t since = tick - window_start;
    const bool traced = traced_at(spec, o.trace, now_ns(), window_start);
    if (traced != obs_on) {
      if (traced) {
        obs::trace().enable(spec.trace_sample_every);
      } else {
        obs::trace().disable();
      }
      obs_on = traced;
    }
    const std::size_t m = j % spec.models;
    const std::size_t k = next[m]++;
    if (k > chain) continue;
    const std::string name = model_name(spec, m);
    try {
      const std::int64_t c0 = thread_cpu_ns();
      const std::int64_t t0 = now_ns();
      const serve::CheckpointDelta delta =
          serve::load_delta(delta_path(o, m, k));
      const std::int64_t t1 = now_ns();
      const std::int64_t c1 = thread_cpu_ns();
      // Chain continuity: delta k's base is the state after k-1 swaps.
      out.chain_ok = out.chain_ok && registry.state_hash(name) == delta.base_hash;
      swaps.started[m].fetch_add(1, std::memory_order_acq_rel);
      const std::int64_t c2 = thread_cpu_ns();
      const std::int64_t t2 = now_ns();
      const serve::SwapReport report = registry.apply_delta(name, delta);
      const std::int64_t t3 = now_ns();
      const std::int64_t c3 = thread_cpu_ns();
      swaps.completed[m].fetch_add(1, std::memory_order_acq_rel);
      out.chain_ok =
          out.chain_ok && registry.state_hash(name) == delta.result_hash;
      out.swap_ms.push_back(static_cast<double>((t1 - t0) + (t3 - t2)) / 1e6);
      out.swap_cpu_ms.push_back(static_cast<double>((c1 - c0) + (c3 - c2)) /
                                1e6);
      out.swap_sub.push_back(static_cast<std::size_t>(since / sub_ns));
      out.applied.push_back({m, k});
      out.patched_share_sum +=
          report.total_weight_nodes == 0
              ? 0.0
              : static_cast<double>(report.patched_weight_nodes) /
                    static_cast<double>(report.total_weight_nodes);
      if (traced) {
        const std::uint64_t id = log.reserve(lane);
        log.add(lane, "load_delta", t0, t1, id, k);
        log.add(lane, "apply_delta", t2, t3, id, k);
        log.add(Span{id, 0, "swap", t0, t3, k, lane});
      }
    } catch (const std::exception& e) {
      out.chain_ok = false;
      out.error = e.what();
    }
  }
  if (obs_on) obs::trace().disable();
}

/// What one request's reply looked like, for the tally.
Outcome classify(const std::optional<tensor::Tensor>& row,
                 const std::vector<std::vector<tensor::Tensor>>& versions,
                 std::size_t payload, std::size_t lo, std::size_t hi) {
  if (!row) return Outcome::kError;
  return match_version(versions, payload, *row, lo, hi) ? Outcome::kOk
                                                        : Outcome::kMismatch;
}

struct Window {
  Tally tally;           // requests due inside the window
  Tally warmup;          // requests due before it (correctness only)
  std::vector<double> sub_ok;            // correct replies per sub-window
  std::vector<std::vector<double>> sub_latency;  // per sub-window
  std::vector<double> late_ms;           // open loop: send - due
};

void record(const Spec& spec, Window& w, Outcome outcome, double latency_ms,
            std::int64_t due, std::int64_t window_start, double window_ms) {
  if (due < window_start) {
    w.warmup.add(outcome, latency_ms, window_ms);
    return;
  }
  w.tally.add(outcome, latency_ms, window_ms);
  const auto sub = static_cast<std::size_t>(
      static_cast<double>(due - window_start) / (spec.sub_window_s * 1e9));
  if (sub >= w.sub_ok.size()) return;
  if (outcome == Outcome::kOk) w.sub_ok[sub] += 1.0;
  w.sub_latency[sub].push_back(outcome == Outcome::kOk ? latency_ms : window_ms);
}

void run_open_loop(const Spec& spec, const RunOptions& o,
                   serve::ModelRegistry& registry,
                   const std::vector<std::vector<tensor::Tensor>>& pools,
                   const Expected& expected,
                   const std::vector<Arrival>& arrivals, Swaps& swaps,
                   std::int64_t start, std::int64_t window_start,
                   SpanLog& log, Window& w) {
  struct Pending {
    std::size_t index = 0;
    std::optional<std::future<tensor::Tensor>> future;
    std::size_t lo = 0;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool done = false;
  std::vector<std::string> names;
  for (std::size_t m = 0; m < spec.models; ++m) {
    names.push_back(model_name(spec, m));
  }
  const double window_ms = o.seconds * 1e3;

  std::thread reaper([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      const Arrival& a = arrivals[p.index];
      const std::int64_t due = start + a.due_ns;
      Outcome outcome = Outcome::kShed;
      std::int64_t finished = now_ns();
      if (p.future) {
        const std::int64_t r0 = now_ns();
        std::optional<tensor::Tensor> row;
        try {
          row = p.future->get();
        } catch (const std::exception&) {
        }
        finished = now_ns();
        const std::size_t hi =
            swaps.started[a.model].load(std::memory_order_acquire);
        outcome = classify(row, expected[a.model], a.payload, p.lo, hi);
        if (traced_at(spec, o.trace, due, window_start)) {
          log.add(1, "reply_wait", r0, finished, 0, p.index);
        }
      }
      record(spec, w, outcome, static_cast<double>(finished - due) / 1e6, due,
             window_start, window_ms);
    }
  });

  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    tensor::Tensor x = pools[a.model][a.payload];
    const std::int64_t due = start + a.due_ns;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    Pending p;
    p.index = i;
    p.lo = swaps.completed[a.model].load(std::memory_order_acquire);
    const std::int64_t sent = now_ns();
    p.future = registry.try_submit(names[a.model], std::move(x));
    const std::int64_t submitted = now_ns();
    if (due >= window_start) {
      w.late_ms.push_back(static_cast<double>(sent - due) / 1e6);
    }
    if (traced_at(spec, o.trace, due, window_start)) {
      log.add(0, "try_submit", sent, submitted, 0, i);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(std::move(p));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  reaper.join();
}

void run_closed_loop(const Spec& spec, const RunOptions& o,
                     serve::ModelRegistry& registry,
                     const std::vector<std::vector<tensor::Tensor>>& pools,
                     const Expected& expected, Swaps& swaps,
                     std::int64_t window_start, std::int64_t window_end,
                     SpanLog& log, Window& w) {
  const std::string name = model_name(spec, 0);
  const double window_ms = o.seconds * 1e3;
  std::vector<Window> per_client(spec.clients, w);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < spec.clients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(model_seed(o.seed, 100 + c));
      const auto lane = static_cast<std::uint32_t>(c);
      Window& mine = per_client[c];
      while (now_ns() < window_end) {
        const std::size_t p = rng.uniform_index(spec.payloads);
        tensor::Tensor x = pools[0][p];
        const std::size_t lo = swaps.completed[0].load(std::memory_order_acquire);
        const std::int64_t t0 = now_ns();
        std::optional<std::future<tensor::Tensor>> fut =
            registry.try_submit(name, std::move(x));
        const std::int64_t t1 = now_ns();
        Outcome outcome = Outcome::kShed;
        if (fut) {
          std::optional<tensor::Tensor> row;
          try {
            row = fut->get();
          } catch (const std::exception&) {
          }
          const std::size_t hi = swaps.started[0].load(std::memory_order_acquire);
          outcome = classify(row, expected[0], p, lo, hi);
        }
        const std::int64_t t2 = now_ns();
        if (traced_at(spec, o.trace, t0, window_start)) {
          const std::uint64_t id = log.reserve(lane);
          log.add(lane, "try_submit", t0, t1, id, p);
          log.add(lane, "reply_wait", t1, t2, id, p);
          log.add(Span{id, 0, "request", t0, t2, p, lane});
        }
        record(spec, mine, outcome, static_cast<double>(t2 - t0) / 1e6, t0,
               window_start, window_ms);
      }
    });
  }
  for (auto& t : clients) t.join();
  for (const Window& c : per_client) {
    w.tally.merge(c.tally);
    w.warmup.merge(c.warmup);
    for (std::size_t i = 0; i < w.sub_ok.size(); ++i) {
      w.sub_ok[i] += c.sub_ok[i];
      w.sub_latency[i].insert(w.sub_latency[i].end(), c.sub_latency[i].begin(),
                              c.sub_latency[i].end());
    }
  }
}

/// Replays every applied swap on a copy of its model, split into the
/// calls ModelRegistry::apply_delta makes.
struct DeltaReplay {
  std::vector<double> load, apply, patch, bind, replica;
};

DeltaReplay replay_deltas(const Spec& spec, const RunOptions& o,
                          const std::vector<std::pair<std::size_t, std::size_t>>& applied,
                          SpanLog& log, std::uint32_t lane) {
  DeltaReplay r;
  std::vector<Loaded> copies;
  std::vector<serve::Plan> plans;
  serve::Compiler compiler;
  for (std::size_t m = 0; m < spec.models; ++m) {
    copies.push_back(load_model(spec, o, m, nullptr, 0));
    plans.push_back(compiler.plan(*copies[m].module, copies[m].state.get()));
  }
  const auto ms = [](std::int64_t a, std::int64_t b) {
    return static_cast<double>(b - a) / 1e6;
  };
  for (const auto& [m, k] : applied) {
    Loaded& c = copies[m];
    const std::int64_t t0 = now_ns();
    const serve::CheckpointDelta delta = serve::load_delta(delta_path(o, m, k));
    const std::int64_t t1 = now_ns();
    serve::apply_delta(delta, *c.module, c.state.get());
    const std::int64_t t2 = now_ns();
    serve::PlanPatch patch = serve::apply_delta_to_plan(
        plans[m], delta, *c.module, c.state.get());
    const std::int64_t t3 = now_ns();
    std::unordered_set<const void*> old, untouched;
    for (const serve::PlanOp& op : plans[m].ops) {
      if (op.csr != nullptr) old.insert(op.csr.get());
    }
    for (const serve::PlanOp& op : patch.plan.ops) {
      if (op.csr != nullptr && old.count(op.csr.get()) > 0) {
        untouched.insert(op.csr.get());
      }
    }
    plans[m] = std::move(patch.plan);
    serve::Plan bound = plans[m];
    const serve::CompiledNet net = compiler.bind(std::move(bound));
    const std::int64_t t4 = now_ns();
    // The registry builds a replica for every shard past the first.
    for (std::size_t s = 1; s < spec.server.num_shards; ++s) {
      const serve::CompiledNet replica = net.clone_shared(untouched);
    }
    const std::int64_t t5 = now_ns();
    const std::uint64_t id = log.reserve(lane);
    log.add(lane, "load_delta", t0, t1, id, k);
    log.add(lane, "apply_delta", t1, t2, id, k);
    log.add(lane, "patch", t2, t3, id, k);
    log.add(lane, "bind", t3, t4, id, k);
    log.add(lane, "replica", t4, t5, id, k);
    log.add(Span{id, 0, "swap_replay", t0, t5, k, lane});
    r.load.push_back(ms(t0, t1));
    r.apply.push_back(ms(t1, t2));
    r.patch.push_back(ms(t2, t3));
    r.bind.push_back(ms(t3, t4));
    r.replica.push_back(ms(t4, t5));
  }
  return r;
}

/// Replays model 0's delta-chain training step by step (the same seeded
/// computation prepare ran) with every call timed: the training layers'
/// figures.
struct TrainReplay {
  double synth_ms = 0.0;
  std::vector<double> next_batch, forward, loss, backward, round, mask_grads,
      sgd, mask_values;
  std::size_t rounds = 0;
  double exploration = 0.0;
};

TrainReplay replay_training(const Spec& spec, const RunOptions& o,
                            SpanLog& log, std::uint32_t lane) {
  const std::size_t steps = swaps_per_model(spec, o.seconds);
  DeltaTrainer trainer(spec, model_seed(o.seed, 0), steps);
  TrainReplay r;
  r.synth_ms = trainer.synth_ms;
  static constexpr const char* kNames[7] = {
      "next_batch", "forward", "loss", "backward", "dst_round",
      "sgd_step", "mask_values"};
  for (std::size_t it = 0; it < steps; ++it) {
    std::int64_t t[8];
    const bool round = trainer.step(it, t);
    // The gradient masking on_iteration_end ends with, replayed on its
    // own (idempotent: the gradients are already masked).
    const std::int64_t g0 = now_ns();
    trainer.session->sparse_model().apply_masks_to_grads();
    const std::int64_t g1 = now_ns();
    const std::uint64_t id = log.reserve(lane);
    for (int c = 0; c < 7; ++c) {
      const char* name = c == 4 && !round ? "on_iteration_end" : kNames[c];
      log.add(lane, name, t[c], t[c + 1], id, it);
    }
    log.add(Span{id, 0, "train_step", t[0], t[7], it, lane});
    log.add(lane, "mask_grads", g0, g1, 0, it);
    const auto ms = [&](int c) {
      return static_cast<double>(t[c + 1] - t[c]) / 1e6;
    };
    r.next_batch.push_back(ms(0));
    r.forward.push_back(ms(1));
    r.loss.push_back(ms(2));
    r.backward.push_back(ms(3));
    if (round) r.round.push_back(ms(4));
    r.sgd.push_back(ms(5));
    r.mask_values.push_back(ms(6));
    r.mask_grads.push_back(static_cast<double>(g1 - g0) / 1e6);
    r.rounds += round ? 1 : 0;
  }
  r.exploration = trainer.session->exploration_rate();
  return r;
}

double pct_worse(double traced, double untraced, bool lower_is_better) {
  if (untraced <= 0.0) return 0.0;
  const double d = lower_is_better ? traced - untraced : untraced - traced;
  return 100.0 * d / untraced;
}

}  // namespace

Result measure_serving(const RunOptions& o, SpanLog& log) {
  const Spec spec = spec_for(o.workload);
  const Expected expected = read_expected(expected_path(o));
  util::check(expected.size() == spec.models &&
                  expected[0].size() == swaps_per_model(spec, o.seconds) + 1,
              "perfbench: expected replies do not match this run's options");
  std::vector<std::vector<tensor::Tensor>> pools;
  for (std::size_t m = 0; m < spec.models; ++m) {
    pools.push_back(payload_pool(spec, o.seed, m));
  }
  const std::vector<Arrival> arrivals =
      spec.open_loop
          ? poisson_schedule(o.seed, spec.rate_rps, kWarmupS + o.seconds,
                             static_cast<std::uint32_t>(spec.models),
                             static_cast<std::uint32_t>(spec.payloads))
          : std::vector<Arrival>{};

  // Lanes: 0 dispatcher / client 0 / set-up and replays, 1 reaper /
  // client 1, 2 control.
  Result res;
  std::vector<double> setup_s, build_ms, load_ms, add_ms, first_ms;
  std::optional<Setup> live;
  for (std::size_t i = 0; i < kSetups; ++i) {
    live.reset();  // tear the previous registry down off the clock
    live.emplace(cold_start(spec, o, pools, expected, o.trace ? &log : nullptr));
    res.correct = res.correct && live->correct;
    setup_s.push_back(live->total_s);
    build_ms.push_back(live->build_ms);
    load_ms.push_back(live->load_ms);
    add_ms.push_back(live->add_ms);
    first_ms.push_back(live->first_ms);
  }
  serve::ModelRegistry& registry = *live->registry;

  Swaps swaps(spec.models);
  SwapLog swap_log;
  Window w;
  const auto n_sub =
      static_cast<std::size_t>(std::llround(o.seconds / spec.sub_window_s));
  w.sub_ok.assign(n_sub, 0.0);
  w.sub_latency.assign(n_sub, {});

  const double steal0 = host_steal_s();
  const double cpu0 = process_cpu_s();
  const std::int64_t start = now_ns() + 20'000'000;  // threads up first
  const std::int64_t window_start =
      start + static_cast<std::int64_t>(kWarmupS * 1e9);
  const std::int64_t window_end =
      window_start + static_cast<std::int64_t>(o.seconds * 1e9);
  std::thread control([&] {
    control_loop(spec, o, registry, swaps, window_start, window_end, log, 2,
                 swap_log);
  });
  if (spec.open_loop) {
    run_open_loop(spec, o, registry, pools, expected, arrivals, swaps, start,
                  window_start, log, w);
  } else {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(start)));
    run_closed_loop(spec, o, registry, pools, expected, swaps, window_start,
                    window_end, log, w);
  }
  control.join();
  const double cpu_s = process_cpu_s() - cpu0;
  const double steal_s = host_steal_s() - steal0;

  std::vector<serve::StatsSnapshot> stats;
  for (std::size_t m = 0; m < spec.models; ++m) {
    stats.push_back(registry.stats(model_name(spec, m)));
  }
  registry.shutdown();

  // End-to-end figures come from the best quarter of the sub-windows:
  // the lowest median latency in the open loop (its rate is the
  // schedule's), the most correct replies in the closed loop.
  std::vector<double> sub_cost(n_sub);
  for (std::size_t i = 0; i < n_sub; ++i) {
    sub_cost[i] = spec.open_loop ? median(w.sub_latency[i]) : -w.sub_ok[i];
  }
  const std::vector<bool> best = least(sub_cost, std::max<std::size_t>(1, n_sub / 4));
  std::vector<double> best_ok, best_latency, best_swaps;
  for (std::size_t i = 0; i < n_sub; ++i) {
    if (!best[i]) continue;
    best_ok.push_back(w.sub_ok[i]);
    best_latency.insert(best_latency.end(), w.sub_latency[i].begin(),
                        w.sub_latency[i].end());
  }
  for (std::size_t j = 0; j < swap_log.swap_ms.size(); ++j) {
    if (best[swap_log.swap_sub[j]]) {
      best_swaps.push_back(swap_log.swap_cpu_ms[j]);
    }
  }

  const Tally& t = w.tally;
  res.attempted = t.attempted + w.warmup.attempted;
  res.failed = t.failed() + w.warmup.failed();
  const bool mismatch = t.mismatches + w.warmup.mismatches > 0;
  res.correct = res.correct && !mismatch && swap_log.chain_ok &&
                t.attempted > 0 && !swap_log.swap_ms.empty();

  const Summary lat = summarize(best_latency);
  const Summary swap = summarize(best_swaps);
  const double rps = median(best_ok) / spec.sub_window_s;
  std::cout << o.workload << " seed " << o.seed << ": " << t.attempted
            << " requests in the window (" << t.shed << " shed, " << t.errors
            << " errors, " << t.mismatches << " mismatches; warm-up "
            << w.warmup.attempted << ")\n"
            << "  best quarter: latency " << describe(lat, "ms") << "\n"
            << "  best quarter: swap CPU " << describe(swap, "ms") << "\n"
            << "  all swaps, wall: "
            << describe(summarize(swap_log.swap_ms), "ms") << "\n"
            << "  sub-windows (correct replies, best):";
  for (std::size_t i = 0; i < n_sub; ++i) {
    std::cout << " " << w.sub_ok[i] << (best[i] ? "*" : "");
  }
  std::cout << "\n  sub-window latency p50/p99 ms:";
  for (std::size_t i = 0; i < n_sub; ++i) {
    std::cout << " " << percentile(w.sub_latency[i], 0.5) << "/"
              << percentile(w.sub_latency[i], 0.99);
  }
  std::cout << "\n  setup_s runs:";
  for (double s : setup_s) std::cout << " " << s;
  std::cout << "\n  host.steal_s " << steal_s << "  proc.cpu_s " << cpu_s
            << "\n";
  if (!swap_log.chain_ok) {
    std::cout << "  delta chain broken: " << swap_log.error << "\n";
  }

  // The tail is reported, not gated: on a shared host it follows the
  // neighbours' load from run to run (see README.md).
  std::cout << "  latency_p99_ms " << lat.p99 << " ms (n=" << lat.n << ", "
            << lat.beyond_p99 << " beyond)\n";
  if (!o.trace) {
    res.add("setup_s", median(setup_s), "s");
    res.add("throughput_rps", rps, "1/s");
    res.add("latency_p50_ms", lat.p50, "ms");
    res.add("swap_p50_ms", swap.p50, "ms");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    return res;
  }

  // ---- traced run: per-layer metrics -------------------------------------
  std::vector<double> traced_primary, untraced_primary;
  for (std::size_t i = 0; i < n_sub; ++i) {
    const double v = spec.open_loop ? median(w.sub_latency[i]) : w.sub_ok[i];
    (i % 2 == 1 ? traced_primary : untraced_primary).push_back(v);
  }
  const double overhead = pct_worse(median(traced_primary),
                                    median(untraced_primary), spec.open_loop);

  const std::vector<obs::TraceEvent> events = obs::trace().drain();
  std::vector<double> queue_ms, batch_ms;
  for (const obs::TraceEvent& ev : events) {
    if (ev.kind == obs::SpanKind::kQueue) queue_ms.push_back(ev.dur_ns / 1e6);
    if (ev.kind == obs::SpanKind::kBatch) batch_ms.push_back(ev.dur_ns / 1e6);
  }
  std::size_t requests = 0, batches = 0, queue_peak = 0, shed = 0;
  for (const serve::StatsSnapshot& s : stats) {
    requests += s.requests;
    batches += s.batches;
    queue_peak = std::max(queue_peak, s.queue_peak);
    shed += s.shed_total;
  }

  const DeltaReplay dr = replay_deltas(spec, o, swap_log.applied, log, 0);
  const TrainReplay tr = replay_training(spec, o, log, 0);
  Loaded replay_model = load_model(spec, o, 0, nullptr, 0);
  const ExecutorReplay er = replay_executor(
      *replay_model.module, replay_model.state.get(), pools[0],
      spec.replay_passes, log, 0);

  std::vector<double> try_submit_us = durations_ms(log.all(), "try_submit");
  for (double& v : try_submit_us) v *= 1e3;
  const Summary late = summarize(w.late_ms);

  res.add("registry.try_submit_p50_us", median(try_submit_us), "us");
  res.add("server.batch_mean",
          batches == 0 ? 0.0 : static_cast<double>(requests) / batches, "count");
  res.add("server.queue_wait_p50_ms", percentile(queue_ms, 0.5), "ms");
  res.add("server.queue_wait_p99_ms", percentile(queue_ms, 0.99), "ms");
  res.add("server.batch_p50_ms", percentile(batch_ms, 0.5), "ms");
  res.add("server.queue_peak", static_cast<double>(queue_peak), "count");
  res.add("server.shed", static_cast<double>(shed), "count");
  res.add("delta.load_ms", median(dr.load), "ms");
  res.add("delta.apply_ms", median(dr.apply), "ms");
  res.add("delta.patch_ms", median(dr.patch), "ms");
  res.add("delta.bind_ms", median(dr.bind), "ms");
  res.add("delta.replica_ms", median(dr.replica), "ms");
  res.add("delta.patched_share",
          swap_log.patched_share_sum /
              static_cast<double>(std::max<std::size_t>(1, swap_log.swap_ms.size())),
          "ratio");
  res.add("loadgen.late_p99_ms", late.p99, "ms");
  res.add("loadgen.late_max_ms", late.max, "ms");
  add_executor_metrics(er, res);
  res.add("data.synth_ms", tr.synth_ms, "ms");
  res.add("data.next_batch_ms", median(tr.next_batch), "ms");
  res.add("nn.forward_ms", median(tr.forward), "ms");
  res.add("nn.loss_ms", median(tr.loss), "ms");
  res.add("nn.backward_ms", median(tr.backward), "ms");
  res.add("methods.dst_round_ms", median(tr.round), "ms");
  res.add("methods.rounds", static_cast<double>(tr.rounds), "count");
  res.add("sparse.mask_grads_ms", median(tr.mask_grads), "ms");
  res.add("sparse.mask_values_ms", median(tr.mask_values), "ms");
  res.add("sparse.exploration_rate", tr.exploration, "ratio");
  res.add("optim.step_ms", median(tr.sgd), "ms");
  res.add("setup.build_ms", median(build_ms), "ms");
  res.add("train.checkpoint_load_ms", median(load_ms), "ms");
  res.add("setup.add_model_ms", median(add_ms), "ms");
  res.add("setup.first_reply_ms", median(first_ms), "ms");
  res.add("host.steal_s", steal_s, "s");
  res.add("proc.cpu_s", cpu_s, "s");
  res.add("proc.cpu_us_per_op",
          t.attempted == 0 ? 0.0 : cpu_s * 1e6 / static_cast<double>(t.attempted),
          "us");
  res.add("obs.trace_overhead_pct", overhead, "%");
  std::cout << "  sampled requests " << queue_ms.size() << "; queue wait "
            << describe(summarize(queue_ms), "ms") << "\n";
  return res;
}

}  // namespace perfbench
