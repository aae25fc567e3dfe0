#include "serve/plan.hpp"

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "models/resnet.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "sparse/flops.hpp"
#include "tensor/im2col.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"

namespace dstee::serve {

const char* to_string(PlanOpKind kind) {
  switch (kind) {
    case PlanOpKind::kSpmm:
      return "spmm";
    case PlanOpKind::kConv:
      return "spconv";
    case PlanOpKind::kScaleShift:
      return "scale_shift";
    case PlanOpKind::kActivation:
      return "activation";
    case PlanOpKind::kDropout:
      return "dropout";
    case PlanOpKind::kFlatten:
      return "flatten";
    case PlanOpKind::kMaxPool:
      return "maxpool";
    case PlanOpKind::kAvgPool:
      return "avgpool";
    case PlanOpKind::kGlobalAvgPool:
      return "global_avg_pool";
    case PlanOpKind::kAdd:
      return "add";
  }
  return "?";
}

namespace {

const char* to_string(ActKind act) {
  switch (act) {
    case ActKind::kRelu:
      return "relu";
    case ActKind::kLeakyRelu:
      return "leaky_relu";
    case ActKind::kSigmoid:
      return "sigmoid";
    case ActKind::kTanh:
      return "tanh";
  }
  return "?";
}

tensor::ConvGeometry conv_geometry(const PlanOp& op, std::size_t in_h,
                                   std::size_t in_w) {
  util::check(in_h + 2 * op.padding >= op.kernel &&
                  in_w + 2 * op.padding >= op.kernel,
              "plan conv input smaller than kernel");
  tensor::ConvGeometry g;
  g.in_channels = op.in_channels;
  g.in_h = in_h;
  g.in_w = in_w;
  g.kernel_h = op.kernel;
  g.kernel_w = op.kernel;
  g.stride = op.stride;
  g.padding = op.padding;
  return g;
}

// Weight bytes this node streams at run time: 4-byte values + 4-byte
// column indices + size_t row_ptr. 0 for non-CSR nodes.
std::size_t node_weight_bytes(const PlanOp& op) {
  if (op.csr == nullptr) return 0;
  return op.csr->nnz() * (sizeof(float) + sizeof(std::uint32_t)) +
         op.csr->row_ptr().size() * sizeof(std::size_t);
}

}  // namespace

// The same arithmetic the monolithic compiler used, so folding — and the
// delta re-fold path, which must be bit-identical to a full recompile —
// never drifts from standalone kScaleShift evaluation.
void bn_scale_shift(const nn::BatchNorm& bn, std::vector<float>& scale,
                    std::vector<float>& shift) {
  const std::size_t c = bn.channels();
  scale.resize(c);
  shift.resize(c);
  for (std::size_t i = 0; i < c; ++i) {
    const double inv_std =
        1.0 / std::sqrt(static_cast<double>(bn.running_var()[i]) + bn.eps());
    const double s = static_cast<double>(bn.gamma().value[i]) * inv_std;
    scale[i] = static_cast<float>(s);
    shift[i] = static_cast<float>(
        static_cast<double>(bn.beta().value[i]) -
        static_cast<double>(bn.running_mean()[i]) * s);
  }
}

void lower_weights(PlanOp& op, const nn::Parameter& weight,
                   const nn::Parameter* bias,
                   const sparse::MaskedParameter* masked, float dense_eps) {
  op.csr = std::make_shared<sparse::CsrMatrix>(
      masked != nullptr ? sparse::CsrMatrix::from_masked(*masked)
                        : sparse::CsrMatrix::from_dense(weight.value,
                                                        dense_eps));
  lower_bias(op, bias);
}

void lower_bias(PlanOp& op, const nn::Parameter* bias) {
  op.bias = bias != nullptr ? bias->value : tensor::Tensor();
  op.has_bias = bias != nullptr;
}

void fold_scale_shift(PlanOp& op, const std::vector<float>& scale,
                      const std::vector<float>& shift) {
  util::check(op.csr->rows() == scale.size() && shift.size() == scale.size(),
              "batch-norm fold: channel count mismatch");
  op.csr->scale_rows(scale);
  tensor::Tensor folded({op.csr->rows()});
  for (std::size_t r = 0; r < op.csr->rows(); ++r) {
    folded[r] = (op.has_bias ? op.bias[r] * scale[r] : 0.0f) + shift[r];
  }
  op.bias = std::move(folded);
  op.has_bias = true;
}

std::size_t Plan::total_weight_bytes() const {
  std::size_t bytes = 0;
  for (const PlanOp& op : ops) bytes += node_weight_bytes(op);
  return bytes;
}

std::vector<std::size_t> Plan::use_counts() const {
  std::vector<std::size_t> counts(ops.size(), 0);
  for (const PlanOp& op : ops) {
    for (const std::size_t in : op.inputs) {
      if (in != kInputId) ++counts[in];
    }
  }
  return counts;
}

std::vector<Plan::NodeCost> Plan::annotate(
    const tensor::Shape& sample_shape,
    const obs::OpProfile* measured) const {
  std::vector<std::size_t> dims;
  dims.reserve(sample_shape.rank() + 1);
  dims.push_back(1);
  for (std::size_t i = 0; i < sample_shape.rank(); ++i) {
    dims.push_back(sample_shape.dim(i));
  }
  const tensor::Shape input(dims);

  std::vector<NodeCost> costs(ops.size());
  auto shape_of = [&](std::size_t id) -> const tensor::Shape& {
    return id == kInputId ? input : costs[id].out_shape;
  };

  double total = 0.0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const PlanOp& op = ops[i];
    const tensor::Shape& in = shape_of(op.inputs.front());
    const std::size_t batch = in.dim(0);
    NodeCost& c = costs[i];
    switch (op.kind) {
      case PlanOpKind::kSpmm: {
        c.out_shape = tensor::Shape({batch, op.csr->rows()});
        c.flops = sparse::linear_nnz_flops(op.csr->nnz(), batch);
        c.dense_flops = sparse::linear_nnz_flops(
            op.csr->rows() * op.csr->cols(), batch);
        c.weight_bytes = node_weight_bytes(op);
        break;
      }
      case PlanOpKind::kConv: {
        const tensor::ConvGeometry g = conv_geometry(op, in.dim(2), in.dim(3));
        c.out_shape =
            tensor::Shape({batch, op.csr->rows(), g.out_h(), g.out_w()});
        c.flops = sparse::conv_nnz_flops(op.csr->nnz(), g.out_h(), g.out_w(),
                                         batch);
        c.dense_flops = sparse::conv_nnz_flops(
            op.csr->rows() * op.csr->cols(), g.out_h(), g.out_w(), batch);
        c.weight_bytes = node_weight_bytes(op);
        break;
      }
      case PlanOpKind::kFlatten:
        c.out_shape = tensor::Shape({batch, in.numel() / batch});
        break;
      case PlanOpKind::kMaxPool:
        util::check(in.rank() == 4 && in.dim(2) >= op.pool_kernel &&
                        in.dim(3) >= op.pool_kernel,
                    "plan maxpool input smaller than window");
        c.out_shape = tensor::Shape(
            {batch, in.dim(1),
             (in.dim(2) - op.pool_kernel) / op.pool_stride + 1,
             (in.dim(3) - op.pool_kernel) / op.pool_stride + 1});
        break;
      case PlanOpKind::kAvgPool:
        util::check(in.rank() == 4 && in.dim(2) >= op.pool_kernel &&
                        in.dim(3) >= op.pool_kernel,
                    "plan avgpool input smaller than window");
        c.out_shape = tensor::Shape({batch, in.dim(1),
                                     in.dim(2) / op.pool_kernel,
                                     in.dim(3) / op.pool_kernel});
        break;
      case PlanOpKind::kGlobalAvgPool:
        c.out_shape = tensor::Shape({batch, in.dim(1)});
        break;
      case PlanOpKind::kScaleShift:
      case PlanOpKind::kActivation:
      case PlanOpKind::kDropout:
      case PlanOpKind::kAdd:
        c.out_shape = in;
        break;
    }
    total += c.flops;
  }
  if (total > 0.0) {
    for (NodeCost& c : costs) c.share = c.flops / total;
  }
  // A measured profile (recorded off an executor bound from this plan)
  // overrides the analytic shares with observed wall-time shares. A
  // profile of the wrong size (plan rewritten since it was recorded) or
  // with no samples yet is ignored — the analytic shares stand.
  if (measured != nullptr && measured->size() == ops.size()) {
    const std::int64_t measured_total = measured->total_ns();
    if (measured_total > 0) {
      for (std::size_t i = 0; i < costs.size(); ++i) {
        const std::int64_t ns = measured->node_ns(i);
        costs[i].measured_ms = static_cast<double>(ns) / 1e6;
        costs[i].share = static_cast<double>(ns) /
                         static_cast<double>(measured_total);
      }
    }
  }
  return costs;
}

// GCC 12 emits -Wrestrict false positives on std::string operator+ chains
// (GCC bug 105651); the dump formatting trips it regardless of how the
// appends are arranged, so silence exactly this diagnostic here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

namespace {

/// Appends "  <- in, [3]" to `out` when node `index`'s producers deviate
/// from "the previous node" — where the graph leaves a straight line.
void append_producers(std::string& out, std::size_t index,
                      const std::vector<std::size_t>& inputs) {
  const bool straight =
      inputs.size() == 1 && ((index == 0 && inputs[0] == Plan::kInputId) ||
                             inputs[0] + 1 == index);
  if (straight) return;
  out += "  <- ";
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    if (j > 0) out += ", ";
    // Separate appends: GCC 12's -Wrestrict misfires on the nested
    // operator+ chain here.
    if (inputs[j] == Plan::kInputId) {
      out += "in";
    } else {
      out += "[";
      out += std::to_string(inputs[j]);
      out += "]";
    }
  }
}

}  // namespace

std::string Plan::dump(const tensor::Shape* sample_shape) const {
  std::vector<NodeCost> costs;
  if (sample_shape != nullptr) costs = annotate(*sample_shape);

  std::string out = "plan: " + std::to_string(ops.size()) + " ops, " +
                    std::to_string(total_nnz) + "/" +
                    std::to_string(total_weights) + " weights, " +
                    std::to_string(elided) + " elided";
  if (residual_joins > 0) {
    out += ", " + std::to_string(residual_joins) + " residual joins";
  }
  out += "\n";

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const PlanOp& op = ops[i];
    out += "  [" + std::to_string(i) + "] ";
    out += to_string(op.kind);
    switch (op.kind) {
      // Trailing annotations use separate appends: GCC 12's -Wrestrict
      // misfires on long operator+ chains ending in a ternary char*.
      case PlanOpKind::kSpmm:
        out += "(" + std::to_string(op.csr->rows()) + "x" +
               std::to_string(op.csr->cols()) +
               ", nnz=" + std::to_string(op.csr->nnz());
        if (op.folded_bn) out += ", +bn";
        out += ")";
        break;
      case PlanOpKind::kConv:
        out += "(" + std::to_string(op.in_channels) + "->" +
               std::to_string(op.csr->rows()) + ", k" +
               std::to_string(op.kernel) + " s" + std::to_string(op.stride) +
               " p" + std::to_string(op.padding) +
               ", nnz=" + std::to_string(op.csr->nnz());
        if (op.folded_bn) out += ", +bn";
        out += ")";
        break;
      case PlanOpKind::kScaleShift:
        out += "(" + std::to_string(op.scale.size()) + ")";
        break;
      case PlanOpKind::kActivation:
        out += "(";
        out += to_string(op.act);
        out += ")";
        break;
      case PlanOpKind::kDropout:
        out += "(p=" + util::format_fixed(op.rate, 2) + ", eval identity)";
        break;
      case PlanOpKind::kMaxPool:
      case PlanOpKind::kAvgPool:
        out += "(k" + std::to_string(op.pool_kernel) + " s" +
               std::to_string(op.pool_stride) + ")";
        break;
      case PlanOpKind::kAdd:
        out += op.relu_after_add ? "(+relu)" : "";
        break;
      case PlanOpKind::kFlatten:
      case PlanOpKind::kGlobalAvgPool:
        break;
    }
    if (!costs.empty()) {
      out += "  out=" + costs[i].out_shape.to_string();
      if (costs[i].flops > 0.0) {
        out += "  flops=" + util::format_fixed(costs[i].flops, 0) + " (" +
               util::format_fixed(costs[i].share * 100.0, 1) + "%)";
      }
    }
    append_producers(out, i, op.inputs);
    out += "\n";
  }
  return out;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

void Plan::validate() const {
  util::check(!ops.empty(), "plan has no ops");
  // Every bind validates every node, so each message is built only on
  // failure.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const PlanOp& op = ops[i];
    if (op.inputs.empty()) {
      util::fail("plan op " + std::to_string(i) + " has no inputs");
    }
    if (op.inputs.size() != (op.kind == PlanOpKind::kAdd ? 2u : 1u)) {
      util::fail("plan op " + std::to_string(i) + " has wrong arity");
    }
    for (const std::size_t in : op.inputs) {
      if (in != kInputId && in >= i) {
        util::fail("plan op " + std::to_string(i) +
                   " consumes a later node (not topological)");
      }
    }
    const bool csr_kind =
        op.kind == PlanOpKind::kSpmm || op.kind == PlanOpKind::kConv;
    if (csr_kind && op.csr == nullptr) {
      util::fail("CSR plan op " + std::to_string(i) + " has no weights");
    }
    if (!csr_kind && op.csr != nullptr) {
      util::fail("non-CSR plan op " + std::to_string(i) +
                 " carries weights");
    }
  }
  if (!release_after.empty()) {
    util::check(release_after.size() == ops.size(),
                "release_after size mismatch");
    std::vector<bool> released(ops.size(), false);
    for (std::size_t i = 0; i < release_after.size(); ++i) {
      for (const std::size_t id : release_after[i]) {
        util::check(id <= i, "release of a node that has not run yet");
        util::check(id + 1 != ops.size(), "release of the output node");
        util::check(!released[id], "node released twice");
        released[id] = true;
      }
    }
  }
}

Plan lower(nn::Sequential& model, const sparse::SparseModel* state,
           float dense_eps) {
  // Weight → mask lookup so each Linear/Conv2d deploys its trained
  // topology.
  std::unordered_map<const nn::Parameter*, const sparse::MaskedParameter*>
      masked;
  if (state != nullptr) {
    for (std::size_t i = 0; i < state->num_layers(); ++i) {
      const sparse::MaskedParameter& layer = state->layer(i);
      masked.emplace(&layer.param(), &layer);
    }
  }

  Plan plan;
  std::size_t cursor = Plan::kInputId;
  std::size_t bn_count = 0;  // bn_ordinal source (see collect_lowered_modules)

  auto emit = [&](PlanOp op) {
    plan.ops.push_back(std::move(op));
    cursor = plan.ops.size() - 1;
    return cursor;
  };

  // A Linear/Conv2d weight node, numbered in lowering order.
  auto weights_for = [&](PlanOp& op, const nn::Parameter& weight,
                         const nn::Parameter* bias) {
    const auto it = masked.find(&weight);
    lower_weights(op, weight, bias,
                  it != masked.end() ? it->second : nullptr, dense_eps);
    plan.total_nnz += op.csr->nnz();
    plan.total_weights += op.csr->rows() * op.csr->cols();
    op.sparse_ordinal = plan.sparse_ops++;
  };

  auto lower_module = [&](auto&& self, nn::Module& module) -> void {
    if (auto* seq = dynamic_cast<nn::Sequential*>(&module)) {
      for (std::size_t i = 0; i < seq->size(); ++i) self(self, seq->child(i));
      return;
    }
    if (auto* block = dynamic_cast<models::ResidualBlock*>(&module)) {
      const std::size_t entry = cursor;
      self(self, block->main_path());
      const std::size_t main_tail = cursor;
      std::size_t shortcut_tail = entry;
      if (nn::Sequential* shortcut = block->shortcut_path()) {
        cursor = entry;
        self(self, *shortcut);
        shortcut_tail = cursor;
      }
      PlanOp join;
      join.kind = PlanOpKind::kAdd;
      join.relu_after_add = true;
      join.inputs = {main_tail, shortcut_tail};
      emit(std::move(join));
      ++plan.residual_joins;
      return;
    }
    if (auto* linear = dynamic_cast<nn::Linear*>(&module)) {
      PlanOp op;
      op.kind = PlanOpKind::kSpmm;
      op.inputs = {cursor};
      weights_for(op, linear->weight(),
                  linear->has_bias() ? &linear->bias() : nullptr);
      emit(std::move(op));
      return;
    }
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&module)) {
      PlanOp op;
      op.kind = PlanOpKind::kConv;
      op.inputs = {cursor};
      weights_for(op, conv->weight(),
                  conv->has_bias() ? &conv->bias() : nullptr);
      util::check(op.csr->cols() ==
                      conv->in_channels() * conv->kernel() * conv->kernel(),
                  "conv CSR columns must equal Cin*K*K");
      op.in_channels = conv->in_channels();
      op.kernel = conv->kernel();
      op.stride = conv->stride();
      op.padding = conv->padding();
      emit(std::move(op));
      return;
    }
    if (auto* bn = dynamic_cast<nn::BatchNorm*>(&module)) {
      PlanOp op;
      op.kind = PlanOpKind::kScaleShift;
      op.inputs = {cursor};
      bn_scale_shift(*bn, op.scale, op.shift);
      op.rank4 = bn->is_rank4();
      op.bn_ordinal = bn_count++;
      emit(std::move(op));
      return;
    }
    if (auto* dropout = dynamic_cast<nn::Dropout*>(&module)) {
      PlanOp op;
      op.kind = PlanOpKind::kDropout;
      op.inputs = {cursor};
      op.rate = dropout->drop_probability();
      emit(std::move(op));
      return;
    }
    if (dynamic_cast<nn::ReLU*>(&module) != nullptr ||
        dynamic_cast<nn::LeakyReLU*>(&module) != nullptr ||
        dynamic_cast<nn::Sigmoid*>(&module) != nullptr ||
        dynamic_cast<nn::Tanh*>(&module) != nullptr) {
      PlanOp op;
      op.kind = PlanOpKind::kActivation;
      op.inputs = {cursor};
      if (auto* leaky = dynamic_cast<nn::LeakyReLU*>(&module)) {
        op.act = ActKind::kLeakyRelu;
        op.slope = leaky->slope();
      } else if (dynamic_cast<nn::Sigmoid*>(&module) != nullptr) {
        op.act = ActKind::kSigmoid;
      } else if (dynamic_cast<nn::Tanh*>(&module) != nullptr) {
        op.act = ActKind::kTanh;
      } else {
        op.act = ActKind::kRelu;
      }
      emit(std::move(op));
      return;
    }
    if (dynamic_cast<nn::Flatten*>(&module) != nullptr) {
      PlanOp op;
      op.kind = PlanOpKind::kFlatten;
      op.inputs = {cursor};
      emit(std::move(op));
      return;
    }
    if (auto* pool = dynamic_cast<nn::MaxPool2d*>(&module)) {
      PlanOp op;
      op.kind = PlanOpKind::kMaxPool;
      op.inputs = {cursor};
      op.pool_kernel = pool->kernel();
      op.pool_stride = pool->stride();
      emit(std::move(op));
      return;
    }
    if (auto* pool = dynamic_cast<nn::AvgPool2d*>(&module)) {
      PlanOp op;
      op.kind = PlanOpKind::kAvgPool;
      op.inputs = {cursor};
      op.pool_kernel = pool->kernel();
      op.pool_stride = pool->kernel();
      emit(std::move(op));
      return;
    }
    if (dynamic_cast<nn::GlobalAvgPool*>(&module) != nullptr) {
      PlanOp op;
      op.kind = PlanOpKind::kGlobalAvgPool;
      op.inputs = {cursor};
      emit(std::move(op));
      return;
    }
    util::fail("serve::lower: unsupported layer '" + module.name() + "'");
  };
  lower_module(lower_module, model);

  util::check(!plan.ops.empty(), "model lowered to an empty plan");
  plan.validate();
  return plan;
}

LoweredModules collect_lowered_modules(nn::Sequential& model) {
  // MUST mirror lower_module's recursion order exactly: the ordinals it
  // hands out are the provenance keys stored in PlanOps. Pinned by the
  // delta round-trip tests (bit-identical patch vs full recompile).
  LoweredModules out;
  auto walk = [&](auto&& self, nn::Module& module) -> void {
    if (auto* seq = dynamic_cast<nn::Sequential*>(&module)) {
      for (std::size_t i = 0; i < seq->size(); ++i) self(self, seq->child(i));
      return;
    }
    if (auto* block = dynamic_cast<models::ResidualBlock*>(&module)) {
      self(self, block->main_path());
      if (nn::Sequential* shortcut = block->shortcut_path()) {
        self(self, *shortcut);
      }
      return;
    }
    if (dynamic_cast<nn::Linear*>(&module) != nullptr ||
        dynamic_cast<nn::Conv2d*>(&module) != nullptr) {
      out.sparse.push_back(&module);
      return;
    }
    if (auto* bn = dynamic_cast<nn::BatchNorm*>(&module)) {
      out.bns.push_back(bn);
      return;
    }
  };
  walk(walk, model);
  return out;
}

}  // namespace dstee::serve
