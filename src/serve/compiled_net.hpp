// CompiledNet: the thin serving facade over the staged serve compiler.
//
// Training modules (nn::Module) cache activations, mutate running stats
// and are therefore neither const nor thread-safe. Deployment needs the
// opposite: a fixed topology executed concurrently by many worker
// threads. Compilation is three explicit stages (see plan.hpp):
//
//   lower()    nn::Sequential + SparseModel → Plan IR (one node per
//              module; Linear → CSR SpMM, Conv2d → direct sparse conv,
//              eval-BN → scale/shift, residual blocks → add+ReLU joins)
//   passes     serve::Compiler's fixed sequence — elide_dropout,
//              fold_batch_norm, free_after_last_use
//   bind()     Executor shares the plan's weights and fixes the
//              runtime::IntraOp policy
//
// CompiledNet keeps the finished Plan next to the bound Executor. The
// plan is the one source of model-level facts — counters, nnz/FLOPs,
// the node listing — so InferenceServer, dstee_serve and the checkpoint
// path keep their one-call workflow: CompiledNet::compile() runs
// serve::Compiler and is bit-identical to the pre-redesign monolithic
// compiler.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_set>

#include "nn/sequential.hpp"
#include "runtime/pool.hpp"
#include "serve/executor.hpp"
#include "serve/plan.hpp"
#include "sparse/sparse_model.hpp"
#include "tensor/tensor.hpp"

namespace dstee::serve {

/// Knobs for compile()/Compiler.
struct CompileOptions {
  /// |w| threshold when no mask is available: entries with |w| <= eps are
  /// not stored. 0 keeps every nonzero, which exactly reproduces a masked
  /// model saved by dstee_run (masked weights are stored as 0).
  float dense_eps = 0.0f;
  /// Intra-op chunk count (0 means pool-wide): row-parallel inside each
  /// Linear SpMM (see CsrMatrix::spmm), image-parallel across the batch
  /// inside each conv op (a batch-1 conv always runs inline), and
  /// plane-/element-parallel inside the pooling and activation ops. Work
  /// executes on the persistent runtime pool — no per-call thread spawns
  /// — so >1 pays off even at small batches. Keep at 1 when an
  /// InferenceServer with many worker threads already saturates the
  /// machine with request-level parallelism.
  std::size_t intra_op_threads = 1;
  /// Pool executing the intra-op chunks; nullptr = the process-wide
  /// runtime::default_pool(). Tests inject their own Pool here.
  runtime::Pool* intra_op_pool = nullptr;
  /// Kernel backend name for every bound op ("scalar", "avx2",
  /// "avx512"); empty defers each kernel call to
  /// kernels::simd::active_backend() (CPUID pick, overridable via
  /// DSTEE_KERNEL_BACKEND). Unknown or unsupported names fail loudly at
  /// bind time.
  std::string kernel_backend;
  /// Attach an obs::OpProfile to the bound executor: every forward times
  /// each node and accumulates wall time per op (every shard of a server
  /// runs the one net, and clones share the profile too, so a sharded
  /// server aggregates into one profile). Read it back via
  /// CompiledNet::op_profile(). Off by default — the untimed forward
  /// stays the fast path.
  bool profile_ops = false;
};

/// An immutable, thread-safe inference program compiled from a model.
class CompiledNet {
 public:
  /// Producer id meaning "the network input" in a node's input list.
  static constexpr std::size_t kInputId = Plan::kInputId;

  /// Lowers `model` and runs serve::Compiler's rewrites (use
  /// serve::Compiler directly to inspect the plan before binding).
  /// When `state` is non-null, each Linear/Conv2d weight that has a mask
  /// in `state` is converted with from_masked (faithful topology
  /// deployment); other weights fall back to from_dense(options.dense_eps).
  static CompiledNet compile(nn::Sequential& model,
                             const sparse::SparseModel* state = nullptr,
                             const CompileOptions& options = {});

  /// load_checkpoint into `model` (and `state` when non-null), then
  /// compile. The one-call path from a training artifact to a servable
  /// engine.
  static CompiledNet from_checkpoint(const std::string& path,
                                     nn::Sequential& model,
                                     sparse::SparseModel* state = nullptr,
                                     const CompileOptions& options = {});

  /// Binds an already-finished plan under the given options; the net
  /// keeps the plan and its ops share the plan's weights.
  /// serve::Compiler::bind() is the usual entry point.
  static CompiledNet bind(Plan&& plan, const CompileOptions& options);

  /// Executes the graph in topological (emission) order. `x` is
  /// [batch, ...] matching the model's training-time input layout.
  /// Thread-safe: may be called concurrently.
  tensor::Tensor forward(const tensor::Tensor& x) const {
    return exec_.forward(x);
  }

  /// A replica: a copy of plan() with every weight matrix deep-copied,
  /// bound under this net's intra-op policy, kernel backend and profile.
  /// It shares no matrix with the source. Serving does not need one
  /// (every shard of an InferenceServer runs the one published net);
  /// tests and benches use it to check that a rebound copy answers bit
  /// for bit. Same as clone_shared({}).
  CompiledNet clone() const;

  /// clone() that keeps the matrices in `shared` (keyed by pointer) by
  /// reference instead of copying them, so a copy costs O(weights
  /// outside `shared`) — e.g. the delta-touched matrices of a patched
  /// plan, with everything else shared with the version it replaces.
  CompiledNet clone_shared(
      const std::unordered_set<const void*>& shared) const;

  const Executor& executor() const { return exec_; }

  /// The finished plan this net was bound from. Its weight matrices are
  /// the ones this net's ops run; a replica's plan() names its own.
  const Plan& plan() const { return *plan_; }

  /// Per-op wall-time profile (null unless compiled with
  /// CompileOptions::profile_ops). Shared with every replica of this net.
  const obs::OpProfile* op_profile() const { return exec_.op_profile(); }

  std::size_t num_ops() const { return exec_.num_ops(); }
  std::size_t num_sparse_ops() const { return plan_->sparse_ops; }
  std::size_t num_elided() const { return plan_->elided; }
  /// Residual add+ReLU joins in the graph (0 for chain models).
  std::size_t num_residual_joins() const { return plan_->residual_joins; }
  /// Weight bytes a replica streams (see Plan::total_weight_bytes).
  std::size_t total_weight_bytes() const {
    return plan_->total_weight_bytes();
  }

  /// Stored nonzeros / total weight slots across all CSR ops (Linear AND
  /// Conv2d — compression reporting covers the whole model).
  std::size_t total_nnz() const { return plan_->total_nnz; }
  std::size_t total_weights() const { return plan_->total_weights; }
  double density() const;

  /// FLOPs per single sample of the given shape (no batch axis), counting
  /// exactly what the CSR kernels execute / what dense eval would execute
  /// — the sums of Plan::annotate's per-node columns.
  double flops_per_sample(const tensor::Shape& sample_shape) const;
  double dense_flops_per_sample(const tensor::Shape& sample_shape) const;

  /// Input feature count when the first op determines it (CSR linear
  /// first), else 0 (conv- or Flatten-first nets accept any shape the
  /// first op validates at run time).
  std::size_t input_features() const { return exec_.input_features(); }

  /// The plan listing (Plan::dump), for logs and the serve CLI.
  std::string summary() const { return plan_->dump(); }

 private:
  CompiledNet() = default;

  std::shared_ptr<const Plan> plan_;
  Executor exec_;
};

}  // namespace dstee::serve
