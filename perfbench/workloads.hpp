// The workloads. Each runs one measured window (tracing off for the
// end-to-end run, alternately on and off per sub-window for the traced
// run) and returns the result line's metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< inputs written by prepare, traces written at exit
};

/// mlp_fleet_swap and resnet18_b1. `prepare` writes checkpoints, the
/// DST-EE delta chain and the expected replies of every version into
/// out_dir, in its own process so none of it counts towards the measured
/// process's memory; `measure` reads them back.
void prepare_serving(const RunOptions& opts);
Result measure_serving(const RunOptions& opts, SpanLog& log);

bool is_workload(const std::string& name);

/// Model m's checkpoint and its k-th chained delta (k >= 1), as prepare
/// writes them.
std::string ckpt_path(const RunOptions& opts, std::size_t m);
std::string delta_path(const RunOptions& opts, std::size_t m, std::size_t k);

}  // namespace perfbench
