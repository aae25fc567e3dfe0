// Per-layer replays of the serving compiler and kernels, outside any
// server: the traced run times the executor, im2col, the sparse conv
// kernel and its epilogue directly through their public entry points so
// a layer's cost is measured without queueing around it.
#pragma once

#include <cstdint>
#include <vector>

#include "harness.hpp"
#include "nn/sequential.hpp"
#include "sparse/sparse_model.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

struct ExecutorReplay {
  double compile_ms = 0.0;     ///< Compiler::plan + bind, median
  double forward_b1_ms = 0.0;  ///< CompiledNet::forward at batch 1, median
  // OpProfile per forward, summed per PlanOpKind family.
  double conv_ms = 0.0;
  double add_ms = 0.0;
  double pool_ms = 0.0;
  double other_ms = 0.0;
  double conv_share = 0.0;
  // Every kConv node's batch-1 geometry replayed per pass (medians).
  double im2col_ms = 0.0;
  double im2col_gbps = 0.0;  ///< computed patch bytes written / im2col time
  double spmm_cols_ms = 0.0;
  double epilogue_ms = 0.0;
  double spconv_gflops = 0.0;       ///< Plan::annotate FLOPs / spmm time
  double spconv_weight_gbps = 0.0;  ///< annotate weight bytes / spmm time
};

/// Compiles `model` (default pipeline, as ModelRegistry does) and replays
/// `passes` batch-1 forwards over `payloads` (sample-shaped, no batch
/// axis), recording spans on `lane` of `log`.
ExecutorReplay replay_executor(dstee::nn::Sequential& model,
                               const dstee::sparse::SparseModel* state,
                               const std::vector<dstee::tensor::Tensor>& payloads,
                               std::size_t passes, SpanLog& log,
                               std::uint32_t lane);

/// Appends the replay's per-layer metrics to `out`.
void add_executor_metrics(const ExecutorReplay& r, Result& out);

}  // namespace perfbench
