#include "serve/compiled_net.hpp"

#include <utility>

#include "kernels/simd/backend.hpp"
#include "serve/passes.hpp"
#include "train/checkpoint.hpp"
#include "util/check.hpp"

namespace dstee::serve {

CompiledNet CompiledNet::compile(nn::Sequential& model,
                                 const sparse::SparseModel* state,
                                 const CompileOptions& options) {
  return Compiler(options).compile(model, state);
}

CompiledNet CompiledNet::from_checkpoint(const std::string& path,
                                         nn::Sequential& model,
                                         sparse::SparseModel* state,
                                         const CompileOptions& options) {
  train::load_checkpoint(path, model, state);
  return compile(model, state, options);
}

CompiledNet CompiledNet::bind(Plan&& plan, const CompileOptions& options) {
  // An empty backend name defers every kernel call to the process-wide
  // active backend; a named one is resolved here, once, and pinned into
  // the bound ops (unknown/unsupported names fail loudly).
  const kernels::simd::KernelBackend* backend = nullptr;
  if (!options.kernel_backend.empty()) {
    backend = kernels::simd::find_backend(options.kernel_backend);
    util::check(backend != nullptr,
                "unknown or unsupported kernel backend '" +
                    options.kernel_backend + "'");
  }
  std::shared_ptr<obs::OpProfile> profile;
  if (options.profile_ops) {
    profile = std::make_shared<obs::OpProfile>(plan.ops.size());
  }
  CompiledNet net;
  net.plan_ = std::make_shared<const Plan>(std::move(plan));
  net.exec_ = Executor::bind(
      *net.plan_,
      runtime::IntraOp{options.intra_op_threads, options.intra_op_pool},
      backend, std::move(profile));
  return net;
}

CompiledNet CompiledNet::clone() const { return clone_shared({}); }

CompiledNet CompiledNet::clone_shared(
    const std::unordered_set<const void*>& shared) const {
  // A copy of the plan with every matrix outside `shared` deep-copied,
  // bound the way this net was: the replica's ops run exactly the
  // matrices its own plan() names.
  auto plan = std::make_shared<Plan>(*plan_);
  for (PlanOp& op : plan->ops) {
    if (op.csr != nullptr && shared.count(op.csr.get()) == 0) {
      op.csr = std::make_shared<sparse::CsrMatrix>(*op.csr);
    }
  }
  CompiledNet copy;
  copy.exec_ = exec_.rebind(*plan);
  copy.plan_ = std::move(plan);
  return copy;
}

double CompiledNet::density() const {
  return plan_->total_weights > 0
             ? static_cast<double>(plan_->total_nnz) /
                   static_cast<double>(plan_->total_weights)
             : 0.0;
}

double CompiledNet::flops_per_sample(
    const tensor::Shape& sample_shape) const {
  double total = 0.0;
  for (const Plan::NodeCost& c : plan_->annotate(sample_shape)) {
    total += c.flops;
  }
  return total;
}

double CompiledNet::dense_flops_per_sample(
    const tensor::Shape& sample_shape) const {
  double total = 0.0;
  for (const Plan::NodeCost& c : plan_->annotate(sample_shape)) {
    total += c.dense_flops;
  }
  return total;
}

}  // namespace dstee::serve
