#include "serve/executor.hpp"

#include <array>
#include <cstdint>
#include <string>
#include <utility>

#include "kernels/direct_conv.hpp"
#include "kernels/epilogue.hpp"
#include "kernels/pool.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace dstee::serve {

namespace {

/// Common state of the two CSR kernel families: the plan node's shared
/// weight matrix, the bias, the intra-op policy and the kernel backend
/// pinned at bind time (nullptr = defer each call to the process-wide
/// active backend). Folding happens at the plan level, before binding
/// (see serve::fold_batch_norm); activations and residual joins are nodes
/// of their own (EpilogueOp).
class CsrOp : public EvalOp {
 public:
  CsrOp(const PlanOp& op, runtime::IntraOp intra,
        const kernels::simd::KernelBackend* backend)
      : w_(op.csr),
        bias_(op.bias),
        has_bias_(op.has_bias),
        intra_(intra),
        backend_(backend) {}

 protected:
  /// The bias-only kernels::Epilogue the CSR kernels apply.
  kernels::Epilogue bias_ep() const {
    kernels::Epilogue ep;
    if (has_bias_) ep.bias = bias_.raw();
    return ep;
  }

  std::shared_ptr<const sparse::CsrMatrix> w_;
  tensor::Tensor bias_;
  bool has_bias_;
  runtime::IntraOp intra_;
  const kernels::simd::KernelBackend* backend_;
};

/// CSR Linear: y = x·Wᵀ + bias, the bias added in the SpMM output loop.
class CsrLinearOp final : public CsrOp {
 public:
  using CsrOp::CsrOp;

  tensor::Tensor run(
      std::span<const tensor::Tensor* const> inputs) const override {
    return w_->spmm(*inputs[0], intra_, bias_ep(), backend_);
  }
};

/// The kernel configuration of a conv-shaped node; the input extent is
/// filled in per call by image_geometry().
tensor::ConvGeometry conv_config(const PlanOp& op) {
  tensor::ConvGeometry g;
  g.in_channels = op.in_channels;
  g.kernel_h = op.kernel;
  g.kernel_w = op.kernel;
  g.stride = op.stride;
  g.padding = op.padding;
  return g;
}

/// `conv` completed with the extent of image batch `x` [N, Cin, H, W],
/// validated first so a bad shape fails cleanly instead of underflowing
/// out_h(). `what` names the op in the error; messages are only built on
/// failure, keeping the per-call path free of string allocation.
tensor::ConvGeometry image_geometry(tensor::ConvGeometry conv,
                                    const tensor::Tensor& x,
                                    const char* what) {
  if (x.rank() != 4 || x.dim(1) != conv.in_channels) {
    util::fail(std::string(what) + " expects [N, " +
               std::to_string(conv.in_channels) + ", H, W], got " +
               x.shape().to_string());
  }
  if (x.dim(2) + 2 * conv.padding < conv.kernel_h ||
      x.dim(3) + 2 * conv.padding < conv.kernel_w) {
    util::fail(std::string(what) + " input smaller than kernel");
  }
  conv.in_h = x.dim(2);
  conv.in_w = x.dim(3);
  return conv;
}

/// CSR conv: a direct sparse convolution per image, with optional folded
/// BN and bias. The CSR matrix holds the masked weight viewed as [Cout,
/// Cin·K·K] — the exact lowering nn::Conv2d uses densely, so a masked
/// checkpoint deploys its trained topology bit-for-bit. The op reads the
/// image [N, Cin, H, W], packs each image once into per-chunk scratch
/// (stride-phase planes, see kernels/direct_conv.hpp) and runs every
/// nonzero as one contiguous multiply-add over the flattened output grid
/// — no im2col patch matrix, and bit-identical to im2col +
/// spmm_cols_into by construction.
class CsrConvOp final : public CsrOp {
 public:
  CsrConvOp(const PlanOp& op, runtime::IntraOp intra,
            const kernels::simd::KernelBackend* backend)
      : CsrOp(op, intra, backend), conv_(conv_config(op)) {}

  tensor::Tensor run(
      std::span<const tensor::Tensor* const> inputs) const override {
    const tensor::Tensor& x = *inputs[0];
    const kernels::DirectConv dc(image_geometry(conv_, x, "spconv"));
    const kernels::simd::ConvGrid grid = dc.grid();
    const std::size_t batch = x.dim(0);
    const std::size_t channels = w_->rows();
    tensor::Tensor y({batch, channels, grid.height, grid.width});
    const std::size_t in_elems = x.dim(1) * x.dim(2) * x.dim(3);
    const std::size_t out_elems = channels * grid.height * grid.width;

    // Each nonzero's read offset, computed per call from col_idx: the op
    // keeps no per-extent state, so it stays const and a delta swap
    // rebuilds nothing but the weights.
    std::vector<std::uint32_t> offsets(w_->nnz());
    dc.offsets(w_->col_idx(), offsets.data());

    // Intra-op parallelism splits the batch on the persistent runtime
    // pool: images are independent, so every output element has exactly
    // one writer and the result is bit-identical for any chunk count.
    // Per-chunk packing scratch keeps run() const and thread-safe; it is
    // zeroed once, since every image leaves the same pads. A single image
    // always runs inline. The kernel adds the bias as it stores each
    // output.
    const kernels::Epilogue ep = bias_ep();
    runtime::intra_chunks(intra_, batch, [&](std::size_t n0, std::size_t n1) {
      std::vector<float> packed(dc.packed_size);
      for (std::size_t n = n0; n < n1; ++n) {
        dc.pack(x.raw() + n * in_elems, packed.data());
        w_->spconv_into(packed.data(), offsets, grid, y.raw() + n * out_elems,
                        ep, backend_);
      }
    });
    return y;
  }

 private:
  tensor::ConvGeometry conv_;  ///< kernel config; extent set per call
};

/// A standalone elementwise epilogue through kernels::apply_epilogue: an
/// activation node (kActivation) or a residual join y = act?(a + b)
/// (kAdd, the lowering of models::ResidualBlock's add-then-activate
/// tail). The residual, when there is one, is the second input.
class EpilogueOp final : public EvalOp {
 public:
  EpilogueOp(kernels::Epilogue ep, runtime::IntraOp intra,
             const kernels::simd::KernelBackend* backend)
      : ep_(ep), intra_(intra), backend_(backend) {}

  tensor::Tensor run(
      std::span<const tensor::Tensor* const> inputs) const override {
    const tensor::Tensor& x = *inputs[0];
    kernels::Epilogue ep = ep_;
    if (inputs.size() == 2) {
      const tensor::Tensor& r = *inputs[1];
      if (x.shape() != r.shape()) {
        util::fail("residual add branches disagree: " +
                   x.shape().to_string() + " vs " + r.shape().to_string());
      }
      ep.residual = r.raw();
    }
    return kernels::apply_epilogue(x, ep, intra_, backend_);
  }

 private:
  kernels::Epilogue ep_;  ///< activation part; the residual is per call
  runtime::IntraOp intra_;
  const kernels::simd::KernelBackend* backend_;
};

/// Eval-mode batch-norm not folded into a CSR op: y = x·scale + shift per
/// channel, over [N, C] or [N, C, H, W].
class ScaleShiftOp final : public EvalOp {
 public:
  ScaleShiftOp(std::vector<float> scale, std::vector<float> shift, bool rank4)
      : scale_(std::move(scale)), shift_(std::move(shift)), rank4_(rank4) {}

  tensor::Tensor run(
      std::span<const tensor::Tensor* const> inputs) const override {
    const tensor::Tensor& x = *inputs[0];
    const std::size_t c = scale_.size();
    if (rank4_) {
      util::check(x.rank() == 4 && x.dim(1) == c,
                  "scale_shift expects [N, C, H, W]");
    } else {
      util::check(x.rank() == 2 && x.dim(1) == c,
                  "scale_shift expects [N, C]");
    }
    const std::size_t sp = rank4_ ? x.dim(2) * x.dim(3) : 1;
    tensor::Tensor y(x.shape());
    for (std::size_t n = 0; n < x.dim(0); ++n) {
      for (std::size_t ch = 0; ch < c; ++ch) {
        const float* src = x.raw() + (n * c + ch) * sp;
        float* dst = y.raw() + (n * c + ch) * sp;
        for (std::size_t i = 0; i < sp; ++i) {
          dst[i] = src[i] * scale_[ch] + shift_[ch];
        }
      }
    }
    return y;
  }

 private:
  std::vector<float> scale_;
  std::vector<float> shift_;
  bool rank4_;
};

/// Eval-time dropout in a plan bound without elide_dropout (a raw
/// lowering): inverted dropout is the identity at inference.
class IdentityDropoutOp final : public EvalOp {
 public:
  tensor::Tensor run(
      std::span<const tensor::Tensor* const> inputs) const override {
    return *inputs[0];
  }
};

class FlattenOp final : public EvalOp {
 public:
  tensor::Tensor run(
      std::span<const tensor::Tensor* const> inputs) const override {
    const tensor::Tensor& x = *inputs[0];
    util::check(x.rank() >= 1, "flatten expects a batched tensor");
    const std::size_t batch = x.dim(0);
    return x.reshaped(tensor::Shape({batch, x.numel() / batch}));
  }
};

class MaxPoolOp final : public EvalOp {
 public:
  MaxPoolOp(std::size_t kernel, std::size_t stride, runtime::IntraOp intra)
      : kernel_(kernel), stride_(stride), intra_(intra) {}

  tensor::Tensor run(
      std::span<const tensor::Tensor* const> inputs) const override {
    return kernels::maxpool2d(*inputs[0], kernel_, stride_, nullptr, intra_);
  }

 private:
  std::size_t kernel_;
  std::size_t stride_;
  runtime::IntraOp intra_;
};

class AvgPoolOp final : public EvalOp {
 public:
  AvgPoolOp(std::size_t kernel, runtime::IntraOp intra)
      : kernel_(kernel), intra_(intra) {}

  tensor::Tensor run(
      std::span<const tensor::Tensor* const> inputs) const override {
    return kernels::avgpool2d(*inputs[0], kernel_, intra_);
  }

 private:
  std::size_t kernel_;
  runtime::IntraOp intra_;
};

class GlobalAvgPoolOp final : public EvalOp {
 public:
  explicit GlobalAvgPoolOp(runtime::IntraOp intra) : intra_(intra) {}

  tensor::Tensor run(
      std::span<const tensor::Tensor* const> inputs) const override {
    return kernels::global_avg_pool(*inputs[0], intra_);
  }

 private:
  runtime::IntraOp intra_;
};

std::unique_ptr<EvalOp> bind_op(const PlanOp& op,
                                const runtime::IntraOp& intra,
                                const kernels::simd::KernelBackend* backend) {
  switch (op.kind) {
    case PlanOpKind::kSpmm:
      return std::make_unique<CsrLinearOp>(op, intra, backend);
    case PlanOpKind::kConv:
      return std::make_unique<CsrConvOp>(op, intra, backend);
    case PlanOpKind::kScaleShift:
      return std::make_unique<ScaleShiftOp>(op.scale, op.shift, op.rank4);
    case PlanOpKind::kActivation: {
      kernels::Epilogue ep;
      ep.has_act = true;
      ep.act = op.act;
      ep.slope = op.slope;
      return std::make_unique<EpilogueOp>(ep, intra, backend);
    }
    case PlanOpKind::kAdd: {
      kernels::Epilogue ep;
      ep.has_act = op.relu_after_add;
      return std::make_unique<EpilogueOp>(ep, intra, backend);
    }
    case PlanOpKind::kDropout:
      return std::make_unique<IdentityDropoutOp>();
    case PlanOpKind::kFlatten:
      return std::make_unique<FlattenOp>();
    case PlanOpKind::kMaxPool:
      return std::make_unique<MaxPoolOp>(op.pool_kernel, op.pool_stride,
                                         intra);
    case PlanOpKind::kAvgPool:
      return std::make_unique<AvgPoolOp>(op.pool_kernel, intra);
    case PlanOpKind::kGlobalAvgPool:
      return std::make_unique<GlobalAvgPoolOp>(intra);
  }
  util::fail("unreachable plan op kind");
}

}  // namespace

Executor Executor::bind(const Plan& plan, const runtime::IntraOp& intra,
                        const kernels::simd::KernelBackend* backend,
                        std::shared_ptr<obs::OpProfile> profile) {
  plan.validate();
  Executor exec;
  exec.intra_ = intra;
  exec.backend_ = backend;
  exec.profile_ = std::move(profile);
  exec.nodes_.reserve(plan.ops.size());
  exec.op_names_.reserve(plan.ops.size());

  // Input validation data: a CSR linear head fixes the feature count.
  const PlanOp& head = plan.ops.front();
  if (head.kind == PlanOpKind::kSpmm &&
      head.inputs.front() == Plan::kInputId) {
    exec.input_features_ = head.csr->cols();
  }

  for (const PlanOp& op : plan.ops) {
    util::check(op.inputs.size() <= kMaxInputs,
                "plan op has more inputs than Executor::kMaxInputs");
    exec.op_names_.push_back(to_string(op.kind));
    exec.nodes_.push_back(OpNode{bind_op(op, intra, backend), op.inputs});
  }
  exec.release_after_ = plan.release_after;
  return exec;
}

Executor Executor::rebind(const Plan& plan) const {
  // The profile is shared ON PURPOSE: every rebound copy of a model adds
  // into the same accumulator, so per-op times aggregate across copies.
  return bind(plan, intra_, backend_, profile_);
}

void Executor::run_node(std::size_t i, std::vector<tensor::Tensor>& values,
                        const tensor::Tensor& x) const {
  const OpNode& node = nodes_[i];
  // Stack-local: forward() runs concurrently on many threads, so the
  // gather must not touch shared scratch.
  std::array<const tensor::Tensor*, kMaxInputs> inputs{};
  for (std::size_t j = 0; j < node.inputs.size(); ++j) {
    const std::size_t id = node.inputs[j];
    inputs[j] = id == kInputId ? &x : &values[id];
  }
  values[i] = node.op->run({inputs.data(), node.inputs.size()});
}

tensor::Tensor Executor::forward(const tensor::Tensor& x) const {
  // nodes_ is non-empty (checked at bind). Intermediates are released per
  // the free_after_last_use annotation, so peak memory tracks the graph's
  // width; without it everything stays live until return.
  std::vector<tensor::Tensor> values(nodes_.size());
  auto release = [&](std::size_t i) {
    if (release_after_.empty()) return;
    for (const std::size_t id : release_after_[i]) {
      values[id] = tensor::Tensor();
    }
  };
  // Per-op instrumentation is armed only when someone can observe it: a
  // bound profile, or an active trace id on this thread (the server's
  // worker loop opens a ThreadTraceScope around sampled batches). The
  // common case — neither — pays two loads up front and nothing per op.
  obs::OpProfile* const prof = profile_.get();
  const std::uint64_t tid = obs::current_trace_id();
  const bool instrument = prof != nullptr || tid != 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (instrument) {
      const std::int64_t t0 = obs::now_ns();
      run_node(i, values, x);
      const std::int64_t dt = obs::now_ns() - t0;
      if (prof != nullptr) prof->add(i, dt);
      obs::trace().record(tid, obs::SpanKind::kOp, op_names_[i], t0, dt, i);
    } else {
      run_node(i, values, x);
    }
    release(i);
  }
  return std::move(values.back());
}

}  // namespace dstee::serve
