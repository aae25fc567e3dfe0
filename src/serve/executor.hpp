// Executor: binds a finished Plan to runnable EvalOps.
//
// The third stage of the serve compiler (see plan.hpp for the overview):
// Executor::bind() reads a Plan — the ops share the plan's weight
// matrices, nothing is copied — and fixes the execution policy
// (runtime::IntraOp). The result is the immutable, thread-safe program
// CompiledNet serves: forward() walks the ops in topological order and
// releases intermediates according to the plan's free_after_last_use
// annotation. Shapes, FLOPs and the node listing stay with the Plan
// (Plan::annotate / Plan::dump); the executor only runs.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "obs/profile.hpp"
#include "runtime/pool.hpp"
#include "serve/plan.hpp"
#include "tensor/tensor.hpp"

namespace dstee::kernels::simd {
struct KernelBackend;
}  // namespace dstee::kernels::simd

namespace dstee::serve {

/// One compiled inference operation. run() is const and touches no shared
/// mutable state, so a single op instance may execute on many threads.
class EvalOp {
 public:
  virtual ~EvalOp() = default;

  /// Executes the op over its producers' values, in PlanOp::inputs order
  /// (Plan::validate fixed the count for the node's kind).
  virtual tensor::Tensor run(
      std::span<const tensor::Tensor* const> inputs) const = 0;
};

/// An immutable, thread-safe bound program: the op graph plus the
/// execution policy. CompiledNet wraps one of these with model-level
/// bookkeeping; tests may also drive an Executor directly.
///
/// Concurrency: every member is written exactly once, inside bind(),
/// BEFORE the executor is published to serving threads;
/// forward()/run_node() only read them. A replica is bind() of a copied
/// plan (rebind()); there is no second construction path. That
/// lock-free-by-construction discipline is why no member carries a
/// DSTEE_GUARDED_BY: there is no mutex because there is no mutation. Any
/// future mutable state (op-level caches, hot-swapped weights) must add
/// a util::Mutex + annotations, or an atomic with a comment, so the
/// clang -Werror=thread-safety CI gate keeps proving the invariant.
class Executor {
 public:
  /// Producer id meaning "the network input" in a node's input list.
  static constexpr std::size_t kInputId = Plan::kInputId;

  /// Empty executor — a placeholder until bind() assigns a real one
  /// (CompiledNet's member lives through this state during construction).
  Executor() = default;

  /// Most producers one node may consume (kAdd); bind() rejects wider
  /// nodes. forward() gathers a node's inputs in a stack array of this
  /// size.
  static constexpr std::size_t kMaxInputs = 2;

  /// Binds `plan` under the given intra-op policy. The ops share the
  /// plan's weight matrices (no copy), so the plan's matrices must not be
  /// mutated afterwards. `backend` pins every op's kernel backend;
  /// nullptr defers each kernel call to kernels::simd::active_backend()
  /// (the process-wide dispatch).
  /// `profile`, when non-null, turns on per-op wall-time accumulation:
  /// every forward times each node and adds into the shared profile
  /// (rebind() passes it on, so a sharded server aggregates into one
  /// place). Null keeps forward() on the untimed fast path.
  static Executor bind(const Plan& plan, const runtime::IntraOp& intra,
                       const kernels::simd::KernelBackend* backend = nullptr,
                       std::shared_ptr<obs::OpProfile> profile = nullptr);

  /// Executes the graph in topological (emission) order. `x` is
  /// [batch, ...]; thread-safe, may be called concurrently.
  tensor::Tensor forward(const tensor::Tensor& x) const;

  /// bind() of `plan` under this executor's intra-op policy, kernel
  /// backend and profile. CompiledNet builds a replica this way from a
  /// copy of its plan.
  Executor rebind(const Plan& plan) const;

  std::size_t num_ops() const { return nodes_.size(); }

  /// Per-op wall-time profile (null unless bind() received one). Shared
  /// with every executor rebind() builds, so it aggregates every shard's
  /// forwards.
  const obs::OpProfile* op_profile() const { return profile_.get(); }

  /// Static name of node i's plan-op kind ("spmm", "relu", ...) — the
  /// label its trace spans and profile rows carry.
  const char* op_name(std::size_t i) const { return op_names_[i]; }

  /// Feature count demanded by a leading input-consuming CSR linear op
  /// (0 when the first op accepts any shape it can validate at run time).
  std::size_t input_features() const { return input_features_; }

 private:
  /// One graph node: an op plus the ids of the nodes feeding it.
  struct OpNode {
    std::unique_ptr<EvalOp> op;
    std::vector<std::size_t> inputs;
  };

  void run_node(std::size_t i, std::vector<tensor::Tensor>& values,
                const tensor::Tensor& x) const;

  std::vector<OpNode> nodes_;
  /// release_after_[i]: values to free once node i ran. Empty when
  /// free_after_last_use did not run — keep everything live.
  std::vector<std::vector<std::size_t>> release_after_;
  std::size_t input_features_ = 0;
  /// The bind() inputs rebind() reuses: the ops already hold copies of
  /// the policy and backend.
  runtime::IntraOp intra_;
  const kernels::simd::KernelBackend* backend_ = nullptr;
  /// Shared per-op wall-time accumulator; null = untimed fast path.
  std::shared_ptr<obs::OpProfile> profile_;
  /// op_names_[i]: static-storage kind name for node i (trace span label).
  std::vector<const char*> op_names_;
};

}  // namespace dstee::serve
