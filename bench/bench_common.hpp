// Shared infrastructure for the table/figure reproduction benches.
//
// Every bench prints (a) a paper-style ASCII table on stdout, (b) a list of
// qualitative shape checks (the orderings the paper claims), and (c) a CSV
// under bench_results/ for scripted analysis. Sizes are small by default so
// `for b in build/bench/*; do $b; done` completes on a laptop CPU; set
// DSTEE_SCALE / DSTEE_EPOCHS / DSTEE_SEEDS for higher-fidelity runs.
#pragma once

#include <atomic>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic_images.hpp"
#include "models/resnet.hpp"
#include "models/vgg.hpp"
#include "train/experiment.hpp"
#include "train/metrics.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace dstee::bench {

/// Global bench knobs resolved from the environment.
struct BenchEnv {
  double scale = 1.0;
  std::int64_t epochs_override = 0;
  std::int64_t seeds = 1;

  static BenchEnv resolve(std::int64_t default_seeds = 1) {
    BenchEnv env;
    env.scale = util::bench_scale();
    env.epochs_override = util::bench_epochs_override();
    env.seeds = util::bench_seeds(default_seeds);
    return env;
  }

  std::size_t epochs_or(std::size_t fallback) const {
    return epochs_override > 0 ? static_cast<std::size_t>(epochs_override)
                               : fallback;
  }
  std::size_t scaled(std::size_t n, std::size_t min_value = 1) const {
    const auto v = static_cast<std::size_t>(n * scale);
    return v < min_value ? min_value : v;
  }
};

/// Runs independent jobs across DSTEE_THREADS worker threads (default:
/// min(8, hardware)). Each job owns its model/dataset/RNG, so results are
/// bit-identical to a serial run; only wall time changes.
inline void run_parallel(std::vector<std::function<void()>>& jobs) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const auto threads = static_cast<std::size_t>(
      util::env_int("DSTEE_THREADS",
                    static_cast<std::int64_t>(std::min<std::size_t>(16, hw))));
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= jobs.size()) return;
      jobs[i]();
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
}

/// Accumulated accuracy over seeds → "mean +/- std" cell text.
inline std::string cell(const train::MeanStd& stats, int digits = 2) {
  if (stats.count() <= 1) {
    return util::format_fixed(stats.mean() * 100.0, digits);
  }
  return util::format_mean_std(stats.mean() * 100.0, stats.stddev() * 100.0,
                               digits);
}

/// Prints a PASS/note line for a qualitative shape check.
inline bool shape_check(const std::string& description, bool holds) {
  std::cout << (holds ? "  [ok]   " : "  [note] ") << description << "\n";
  return holds;
}

/// Prints a PASS/FAIL line for a hard gate; the caller folds the result
/// into the bench's exit code.
inline bool gate(const std::string& description, bool holds) {
  std::cout << (holds ? "  [ok]   " : "  [FAIL] ") << description << "\n";
  return holds;
}

/// The CIFAR-like / ImageNet-like dataset presets used by the CNN benches.
// Preset calibration (see EXPERIMENTS.md): chosen so that (a) a dense model
// reaches high-but-unsaturated accuracy within the default epoch budget,
// (b) the 90/95/98% sparsity grid spans the learnable-to-starved range on
// the width-scaled models, and (c) the data/parameter ratio is rich enough
// that sparsity is a capacity constraint rather than a regularizer (the
// regime the paper operates in).
inline data::SyntheticImageConfig cifar10_like(const BenchEnv& env,
                                               std::uint64_t seed) {
  data::SyntheticImageConfig cfg;
  cfg.num_classes = 8;
  cfg.image_size = 12;
  cfg.train_per_class = env.scaled(60, 16);
  cfg.test_per_class = env.scaled(25, 8);
  cfg.signal = 0.9;
  cfg.spatial_noise = 1.0;
  cfg.pixel_noise = 0.8;
  cfg.seed = seed;
  return cfg;
}

inline data::SyntheticImageConfig cifar100_like(const BenchEnv& env,
                                                std::uint64_t seed) {
  data::SyntheticImageConfig cfg = cifar10_like(env, seed);
  cfg.num_classes = 16;          // more classes, fewer samples per class
  cfg.train_per_class = env.scaled(36, 10);
  cfg.test_per_class = env.scaled(15, 5);
  cfg.signal = 0.85;
  return cfg;
}

inline data::SyntheticImageConfig imagenet_like(const BenchEnv& env,
                                                std::uint64_t seed) {
  data::SyntheticImageConfig cfg;
  cfg.num_classes = 20;
  cfg.image_size = 16;
  cfg.train_per_class = env.scaled(30, 8);
  cfg.test_per_class = env.scaled(10, 4);
  cfg.signal = 0.9;
  cfg.spatial_noise = 1.0;
  cfg.pixel_noise = 0.8;
  cfg.seed = seed;
  return cfg;
}

/// Calibrated DST hyperparameters for the bench scale (ΔT spaced so rounds
/// have recovery room; ε sized so the exploration bonus is commensurate
/// with gradient magnitudes — see DESIGN.md).
inline train::DstParams bench_dst_params() {
  train::DstParams dst;
  dst.delta_t = 8;
  dst.drop_fraction = 0.2;
  dst.c = 1e-3;
  dst.eps = 0.1;
  return dst;
}

/// Model presets (width-scaled as documented in DESIGN.md).
inline models::VggConfig vgg19_preset(const data::SyntheticImageConfig& data,
                                      double width = 0.1) {
  models::VggConfig cfg;
  cfg.depth = 19;
  cfg.in_channels = data.channels;
  cfg.image_size = data.image_size;
  cfg.num_classes = data.num_classes;
  cfg.width_multiplier = width;
  return cfg;
}

inline models::ResNetConfig resnet50_preset(
    const data::SyntheticImageConfig& data, double width = 0.0625) {
  models::ResNetConfig cfg;
  cfg.depth = 50;
  cfg.in_channels = data.channels;
  cfg.image_size = data.image_size;
  cfg.num_classes = data.num_classes;
  cfg.width_multiplier = width;
  return cfg;
}

}  // namespace dstee::bench
