#include "serve/passes.hpp"

#include <utility>

#include "util/check.hpp"

namespace dstee::serve {

namespace {

/// Remaps node ids after erasing node `erased`: consumers of the erased
/// node are rewired to `target` (the node that now produces its value),
/// ids above shift down by one.
void rewire_after_erase(Plan& plan, std::size_t erased, std::size_t target) {
  for (PlanOp& op : plan.ops) {
    for (std::size_t& in : op.inputs) {
      if (in == Plan::kInputId) continue;
      if (in == erased) {
        in = target;
      } else if (in > erased) {
        --in;
      }
    }
  }
}

}  // namespace

void elide_dropout(Plan& plan) {
  std::size_t i = 0;
  while (i < plan.ops.size()) {
    if (plan.ops[i].kind != PlanOpKind::kDropout) {
      ++i;
      continue;
    }
    const std::size_t target = plan.ops[i].inputs.front();
    util::check(i + 1 < plan.ops.size() || target != Plan::kInputId,
                "cannot elide a dropout that is the whole plan");
    plan.ops.erase(plan.ops.begin() + static_cast<std::ptrdiff_t>(i));
    rewire_after_erase(plan, i, target);
    ++plan.elided;
  }
  plan.validate();
}

void fold_batch_norm(Plan& plan) {
  std::size_t i = 0;
  while (i < plan.ops.size()) {
    PlanOp& bn = plan.ops[i];
    if (bn.kind != PlanOpKind::kScaleShift) {
      ++i;
      continue;
    }
    const std::size_t src = bn.inputs.front();
    bool fold = src != Plan::kInputId;
    if (fold) {
      const PlanOp& producer = plan.ops[src];
      const bool conv_like = producer.kind == PlanOpKind::kConv;
      fold = (producer.kind == PlanOpKind::kSpmm || conv_like) &&
             producer.csr->rows() == bn.scale.size() &&
             conv_like == bn.rank4 && plan.use_counts()[src] == 1;
    }
    if (!fold) {
      ++i;
      continue;
    }
    // Absorb y ← y·scale + shift (per output row/channel) into the CSR
    // values and bias, removing the batch-norm node entirely. The fold
    // mutates a fresh copy of the matrix, never the shared original:
    // plans are value types (tests copy them to compare before/after a
    // rewrite), and an in-place scale through the shared_ptr would
    // corrupt every copy while only this plan gets the matching bias.
    PlanOp& producer = plan.ops[src];
    producer.csr = std::make_shared<sparse::CsrMatrix>(*producer.csr);
    fold_scale_shift(producer, bn.scale, bn.shift);
    producer.folded_bn = true;
    producer.bn_ordinal = bn.bn_ordinal;  // provenance for delta re-fold
    plan.ops.erase(plan.ops.begin() + static_cast<std::ptrdiff_t>(i));
    rewire_after_erase(plan, i, src);
  }
  plan.validate();
}

void free_after_last_use(Plan& plan) {
  plan.release_after.assign(plan.ops.size(), {});
  std::vector<std::size_t> last(plan.ops.size(), Plan::kInputId);
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    for (const std::size_t in : plan.ops[i].inputs) {
      if (in != Plan::kInputId) last[in] = i;
    }
  }
  for (std::size_t id = 0; id + 1 < plan.ops.size(); ++id) {
    if (last[id] != Plan::kInputId) {
      plan.release_after[last[id]].push_back(id);
    }
  }
  plan.validate();
}

Compiler::Compiler(CompileOptions options) : options_(std::move(options)) {}

Plan Compiler::plan(nn::Sequential& model,
                    const sparse::SparseModel* state) const {
  Plan p = lower(model, state, options_.dense_eps);
  elide_dropout(p);
  fold_batch_norm(p);
  free_after_last_use(p);
  return p;
}

CompiledNet Compiler::compile(nn::Sequential& model,
                              const sparse::SparseModel* state) const {
  Plan p = plan(model, state);
  return bind(std::move(p));
}

CompiledNet Compiler::bind(Plan&& plan) const {
  return CompiledNet::bind(std::move(plan), options_);
}

}  // namespace dstee::serve
