#include "serve/fusion.hpp"

#include <algorithm>

#include "serve/pass_util.hpp"
#include "util/check.hpp"

namespace dstee::serve {

namespace {

bool is_csr_producer(const PlanOp& op) {
  return op.kind == PlanOpKind::kSpmm || op.kind == PlanOpKind::kConv;
}

/// Absorbs the kActivation at `i` into its producer when the producer is
/// a single-consumer CSR node without an activation yet (a residual
/// already fused below it is fine — the epilogue activates after the
/// residual add, exactly the unfused order). Returns true when fused.
bool fuse_activation(Plan& plan, std::size_t i,
                     const std::vector<std::size_t>& uses) {
  const PlanOp& act = plan.ops[i];
  const std::size_t src = act.inputs.front();
  if (src == Plan::kInputId) return false;
  PlanOp& p = plan.ops[src];
  if (!is_csr_producer(p) || uses[src] != 1 || p.epilogue.has_act) {
    return false;
  }
  p.epilogue.has_act = true;
  p.epilogue.act = act.act;
  p.epilogue.slope = act.slope;
  plan.ops.erase(plan.ops.begin() + static_cast<std::ptrdiff_t>(i));
  detail::rewire_after_erase(plan, i, src);
  return true;
}

/// Absorbs the kAdd at `i` (and its optional trailing ReLU) into the
/// topologically later input when that input is a single-consumer CSR
/// node with an empty epilogue; the other edge becomes the fused
/// residual input. An activation already fused into the candidate blocks
/// the rewrite — act-then-add is not expressible as an epilogue.
bool fuse_residual_add(Plan& plan, std::size_t i,
                       const std::vector<std::size_t>& uses) {
  const PlanOp& add = plan.ops[i];
  const std::size_t a = add.inputs[0], b = add.inputs[1];
  if (a == b) return false;  // degenerate self-add: keep the node
  // kInputId is size_t(-1); treat it as "earliest", never the candidate.
  std::size_t main_id, res_id;
  if (a == Plan::kInputId) {
    main_id = b;
    res_id = a;
  } else if (b == Plan::kInputId) {
    main_id = a;
    res_id = b;
  } else {
    main_id = std::max(a, b);
    res_id = std::min(a, b);
  }
  if (main_id == Plan::kInputId) return false;
  PlanOp& p = plan.ops[main_id];
  if (!is_csr_producer(p) || uses[main_id] != 1 || !p.epilogue.empty()) {
    return false;
  }
  p.epilogue.add_residual = true;
  p.inputs.push_back(res_id);  // primary stays inputs[0]
  if (add.relu_after_add) {
    p.epilogue.has_act = true;
    p.epilogue.act = ActKind::kRelu;
  }
  plan.ops.erase(plan.ops.begin() + static_cast<std::ptrdiff_t>(i));
  detail::rewire_after_erase(plan, i, main_id);
  return true;
}

}  // namespace

void FuseEpilogue::run(Plan& plan) const {
  std::size_t i = 0;
  while (i < plan.ops.size()) {
    // Recomputed per step: each fusion rewires edges, and the guards are
    // all about consumer counts. Plans are small; the sweep matches
    // FoldBatchNorm's cost profile.
    const std::vector<std::size_t> uses = plan.use_counts();
    const PlanOpKind kind = plan.ops[i].kind;
    if (kind == PlanOpKind::kActivation && fuse_activation(plan, i, uses)) {
      continue;  // i now names the next op
    }
    if (kind == PlanOpKind::kAdd && fuse_residual_add(plan, i, uses)) {
      continue;
    }
    ++i;
  }
  plan.fused_ops = 0;
  for (const PlanOp& op : plan.ops) {
    if (!op.epilogue.empty()) ++plan.fused_ops;
  }
  detail::refresh_release_if_present(plan);
  plan.validate();
}

}  // namespace dstee::serve
