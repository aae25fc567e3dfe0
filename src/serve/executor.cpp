#include "serve/executor.hpp"

#include <array>
#include <string>
#include <utility>

#include "kernels/epilogue.hpp"
#include "kernels/pool.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "tensor/im2col.hpp"
#include "util/check.hpp"

namespace dstee::serve {

std::shared_ptr<const sparse::CsrMatrix> CloneContext::dup(
    const std::shared_ptr<const sparse::CsrMatrix>& csr) {
  if (share_ != nullptr && share_->count(csr.get()) > 0) return csr;
  auto it = copies_.find(csr.get());
  if (it == copies_.end()) {
    it = copies_.emplace(csr.get(),
                         std::make_shared<const sparse::CsrMatrix>(*csr))
             .first;
  }
  return it->second;
}

std::shared_ptr<const sparse::QCsrMatrix> CloneContext::dup(
    const std::shared_ptr<const sparse::QCsrMatrix>& qcsr) {
  if (share_ != nullptr && share_->count(qcsr.get()) > 0) return qcsr;
  auto it = qcopies_.find(qcsr.get());
  if (it == qcopies_.end()) {
    it = qcopies_.emplace(qcsr.get(),
                          std::make_shared<const sparse::QCsrMatrix>(*qcsr))
             .first;
  }
  return it->second;
}

namespace {

/// Common state of the two CSR kernel families: the shared weight matrix,
/// the row range this op computes, the bias (already sliced to that range
/// at the plan level), the FuseEpilogue annotation lowered to a
/// kernels::Epilogue, the intra-op policy and the kernel backend pinned at
/// bind time (nullptr = defer each call to the process-wide active
/// backend). Folding and fusion happen at the plan level, before binding
/// (see serve::FoldBatchNorm / serve::FuseEpilogue).
///
/// A whole kSpmm/kConv node is the full-range slice [0, rows) under the
/// node's IntraOp; a PartitionRows kRowSlice is its own range run inline
/// (the group fan-out IS the parallelism). The whole-matrix kernels are
/// themselves the full-range slice, so both are one code path.
///
/// Templated over the weight type: M is sparse::CsrMatrix (fp32) or
/// sparse::QCsrMatrix (int8 + per-row scales, from QuantizeWeights). The
/// two expose the same kernel surface, so one op body serves both.
template <typename M>
class CsrOp : public EvalOp {
 public:
  CsrOp(const PlanOp& op, std::shared_ptr<const M> weights,
        runtime::IntraOp intra, const kernels::simd::KernelBackend* backend)
      : w_(std::move(weights)),
        row_begin_(op.kind == PlanOpKind::kRowSlice ? op.row_begin : 0),
        row_end_(op.kind == PlanOpKind::kRowSlice ? op.row_end : w_->rows()),
        bias_(op.bias),
        has_bias_(op.has_bias),
        intra_(intra),
        backend_(backend) {
    ep_.has_act = op.epilogue.has_act;
    ep_.act = op.epilogue.act;
    ep_.slope = op.epilogue.slope;
  }

 protected:
  /// The kernels::Epilogue for one kernel call: bias plus the fused
  /// annotation, with the residual pointer/stride supplied per call
  /// (layout is kernel-specific — see the kernel doc comments).
  kernels::Epilogue make_ep(const float* residual,
                            std::size_t residual_stride) const {
    kernels::Epilogue ep = ep_;
    if (has_bias_) ep.bias = bias_.raw();
    ep.residual = residual;
    ep.residual_stride = residual_stride;
    return ep;
  }

  std::shared_ptr<const M> w_;
  std::size_t row_begin_;
  std::size_t row_end_;
  tensor::Tensor bias_;
  bool has_bias_;
  kernels::Epilogue ep_;  ///< activation part only; see make_ep()
  runtime::IntraOp intra_;
  const kernels::simd::KernelBackend* backend_;
};

/// CSR Linear over rows [row_begin, row_end): y = act(x·Wᵀ + bias +
/// residual), the epilogue applied inside the SpMM output loop. A fused
/// residual (second input) is the FULL output width: the pointer is
/// pre-offset by row_begin and the per-sample stride stays the parent's
/// row count.
template <typename M>
class CsrLinearOp final : public CsrOp<M> {
 public:
  using CsrOp<M>::CsrOp;

  std::unique_ptr<EvalOp> clone(CloneContext& ctx) const override {
    auto copy = std::make_unique<CsrLinearOp>(*this);
    copy->w_ = ctx.dup(this->w_);
    return copy;
  }

  tensor::Tensor run(
      std::span<const tensor::Tensor* const> inputs) const override {
    const tensor::Tensor& x = *inputs[0];
    const std::size_t rows = this->w_->rows();
    const float* res = nullptr;
    if (inputs.size() == 2) {
      const tensor::Tensor& r = *inputs[1];
      util::check(r.rank() == 2 && r.dim(0) == x.dim(0) && r.dim(1) == rows,
                  "fused spmm residual shape mismatch");
      res = r.raw() + this->row_begin_;
    }
    return this->w_->row_slice(this->row_begin_, this->row_end_)
        .spmm(x, this->intra_, this->make_ep(res, rows), this->backend_);
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

/// CSR conv over output channels [row_begin, row_end): Y = W_csr · cols
/// per image, with optional folded BN, bias and fused epilogue. The CSR
/// matrix holds the masked weight viewed as [Cout, Cin·K·K] — the exact
/// lowering nn::Conv2d uses densely, so a masked checkpoint deploys its
/// trained topology bit-for-bit.
///
/// The patches come from one of two places. A whole kConv node reads the
/// image [N, Cin, H, W] and im2cols each image into per-chunk scratch; a
/// PartitionRows conv slice (PlanOp::conv_slice) reads the shared kIm2col
/// patch buffer [N, Cin·K·K, OH, OW], computed once for the whole group.
/// Either way a fused residual is the full [N, Cout, OH, OW] map and this
/// op adds its channel block of each sample.
template <typename M>
class CsrConvOp final : public CsrOp<M> {
 public:
  CsrConvOp(const PlanOp& op, std::shared_ptr<const M> weights,
            runtime::IntraOp intra,
            const kernels::simd::KernelBackend* backend)
      : CsrOp<M>(op, std::move(weights), intra, backend),
        conv_(conv_config(op)),
        patches_(op.conv_slice) {}

  std::unique_ptr<EvalOp> clone(CloneContext& ctx) const override {
    auto copy = std::make_unique<CsrConvOp>(*this);
    copy->w_ = ctx.dup(this->w_);
    return copy;
  }

  tensor::Tensor run(
      std::span<const tensor::Tensor* const> inputs) const override {
    const tensor::Tensor& x = *inputs[0];
    const std::size_t patch = this->w_->cols();
    tensor::ConvGeometry g;
    std::size_t oh = 0, ow = 0;
    if (patches_) {
      util::check(x.rank() == 4 && x.dim(1) == patch,
                  "conv row_slice expects the [N, Cin*K*K, OH, OW] patch "
                  "buffer, got " +
                      x.shape().to_string());
      oh = x.dim(2);
      ow = x.dim(3);
    } else {
      g = image_geometry(conv_, x, "spconv");
      oh = g.out_h();
      ow = g.out_w();
    }
    const std::size_t batch = x.dim(0);
    const std::size_t positions = oh * ow;
    const std::size_t channels = this->w_->rows();
    const float* res = nullptr;
    if (inputs.size() == 2) {
      const tensor::Tensor& r = *inputs[1];
      util::check(r.rank() == 4 && r.dim(0) == batch &&
                      r.dim(1) == channels && r.dim(2) == oh &&
                      r.dim(3) == ow,
                  "fused spconv residual shape mismatch");
      res = r.raw();
    }
    const auto w = this->w_->row_slice(this->row_begin_, this->row_end_);
    tensor::Tensor y({batch, w.rows(), oh, ow});
    const std::size_t in_elems = x.dim(1) * x.dim(2) * x.dim(3);

    // Intra-op parallelism splits the batch on the persistent runtime
    // pool: images are independent, so every output element has exactly
    // one writer and the result is bit-identical for any chunk count.
    // Per-chunk im2col scratch keeps run() const and thread-safe. A
    // single image always runs inline (PartitionRows is the row-level
    // alternative for batch-1 latency). Bias and the fused epilogue are
    // applied by the kernel's per-row finish pass.
    runtime::intra_chunks(this->intra_, batch, [&](std::size_t n0,
                                                   std::size_t n1) {
      std::vector<float> cols(patches_ ? 0 : patch * positions);
      for (std::size_t n = n0; n < n1; ++n) {
        const float* b = x.raw() + n * in_elems;
        if (!patches_) {
          tensor::im2col(b, g, cols.data());
          b = cols.data();
        }
        const float* r =
            res != nullptr
                ? res + (n * channels + this->row_begin_) * positions
                : nullptr;
        w.spmm_cols_into(b, positions, y.raw() + n * w.rows() * positions,
                         this->make_ep(r, 0), this->backend_);
      }
    });
    return y;
  }

 private:
  tensor::ConvGeometry conv_;  ///< kernel config; extent set per call
  bool patches_;  ///< input is a kIm2col patch buffer (a partition slice)
};

/// Materialized im2col: [N, C, H, W] → the patch buffer [N, Cin·K·K,
/// OH, OW] every row slice of a partitioned conv reads. Emitted only by
/// PartitionRows, so the patches are computed once per batch instead of
/// once per slice.
class Im2colOp final : public EvalOp {
 public:
  Im2colOp(const PlanOp& op, runtime::IntraOp intra)
      : conv_(conv_config(op)), intra_(intra) {}

  std::unique_ptr<EvalOp> clone(CloneContext& ctx) const override {
    (void)ctx;
    return std::make_unique<Im2colOp>(*this);
  }

  tensor::Tensor run(
      std::span<const tensor::Tensor* const> inputs) const override {
    const tensor::Tensor& x = *inputs[0];
    const tensor::ConvGeometry g = image_geometry(conv_, x, "im2col");
    const std::size_t batch = x.dim(0);
    const std::size_t oh = g.out_h(), ow = g.out_w();
    const std::size_t patch = g.patch_size();
    tensor::Tensor cols({batch, patch, oh, ow});
    const std::size_t image_elems = g.in_channels * g.in_h * g.in_w;
    const std::size_t cols_elems = patch * oh * ow;
    runtime::intra_chunks(intra_, batch, [&](std::size_t n0,
                                             std::size_t n1) {
      for (std::size_t n = n0; n < n1; ++n) {
        // Straight into the shared batch buffer — no per-image scratch.
        tensor::im2col(x.raw() + n * image_elems, g,
                       cols.raw() + n * cols_elems);
      }
    });
    return cols;
  }

 private:
  tensor::ConvGeometry conv_;
  runtime::IntraOp intra_;
};

/// Joins partition slices along axis 1 (features / channels): the slices
/// of one group produce contiguous row ranges, so the join is a straight
/// block copy per sample.
class ConcatChannelsOp final : public EvalOp {
 public:
  explicit ConcatChannelsOp(std::size_t total_channels)
      : total_channels_(total_channels) {}

  std::unique_ptr<EvalOp> clone(CloneContext& ctx) const override {
    (void)ctx;
    return std::make_unique<ConcatChannelsOp>(*this);
  }

  tensor::Tensor run(
      std::span<const tensor::Tensor* const> inputs) const override {
    const tensor::Tensor& first = *inputs.front();
    const std::size_t batch = first.dim(0);
    const std::size_t spatial =
        first.rank() == 4 ? first.dim(2) * first.dim(3) : 1;
    std::size_t channels = 0;
    for (const tensor::Tensor* x : inputs) {
      util::check(x->rank() == first.rank() && x->dim(0) == batch,
                  "concat inputs disagree on batch/rank");
      channels += x->dim(1);
    }
    util::check(channels == total_channels_,
                "concat produced " + std::to_string(channels) +
                    " channels, expected " +
                    std::to_string(total_channels_));
    tensor::Tensor y(first.rank() == 4
                         ? tensor::Shape({batch, channels, first.dim(2),
                                          first.dim(3)})
                         : tensor::Shape({batch, channels}));
    for (std::size_t n = 0; n < batch; ++n) {
      float* dst = y.raw() + n * channels * spatial;
      for (const tensor::Tensor* x : inputs) {
        const std::size_t block = x->dim(1) * spatial;
        const float* src = x->raw() + n * block;
        for (std::size_t i = 0; i < block; ++i) dst[i] = src[i];
        dst += block;
      }
    }
    return y;
  }

 private:
  std::size_t total_channels_;
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

  std::unique_ptr<EvalOp> clone(CloneContext& ctx) const override {
    (void)ctx;
    return std::make_unique<EpilogueOp>(*this);
  }

  tensor::Tensor run(
      std::span<const tensor::Tensor* const> inputs) const override {
    const tensor::Tensor& x = *inputs[0];
    kernels::Epilogue ep = ep_;
    if (inputs.size() == 2) {
      const tensor::Tensor& r = *inputs[1];
      util::check(x.shape() == r.shape(),
                  "residual add branches disagree: " + x.shape().to_string() +
                      " vs " + r.shape().to_string());
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

  std::unique_ptr<EvalOp> clone(CloneContext& ctx) const override {
    (void)ctx;
    return std::make_unique<ScaleShiftOp>(*this);
  }

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

/// Eval-time dropout when ElideDropout was disabled: inverted dropout is
/// the identity at inference, but the node stays visible in the plan.
class IdentityDropoutOp final : public EvalOp {
 public:
  std::unique_ptr<EvalOp> clone(CloneContext& ctx) const override {
    (void)ctx;
    return std::make_unique<IdentityDropoutOp>(*this);
  }

  tensor::Tensor run(
      std::span<const tensor::Tensor* const> inputs) const override {
    return *inputs[0];
  }
};

class FlattenOp final : public EvalOp {
 public:
  std::unique_ptr<EvalOp> clone(CloneContext& ctx) const override {
    (void)ctx;
    return std::make_unique<FlattenOp>(*this);
  }

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

  std::unique_ptr<EvalOp> clone(CloneContext& ctx) const override {
    (void)ctx;
    return std::make_unique<MaxPoolOp>(*this);
  }

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

  std::unique_ptr<EvalOp> clone(CloneContext& ctx) const override {
    (void)ctx;
    return std::make_unique<AvgPoolOp>(*this);
  }

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

  std::unique_ptr<EvalOp> clone(CloneContext& ctx) const override {
    (void)ctx;
    return std::make_unique<GlobalAvgPoolOp>(*this);
  }

  tensor::Tensor run(
      std::span<const tensor::Tensor* const> inputs) const override {
    return kernels::global_avg_pool(*inputs[0], intra_);
  }

 private:
  runtime::IntraOp intra_;
};

/// One CSR node as kernel family Op over its weight type. A whole
/// kSpmm/kConv node keeps the node's intra-op policy; a partition slice
/// runs inline.
template <template <typename> class Op>
std::unique_ptr<EvalOp> bind_csr(const PlanOp& op,
                                 const runtime::IntraOp& intra,
                                 const kernels::simd::KernelBackend* backend) {
  const runtime::IntraOp policy =
      op.kind == PlanOpKind::kRowSlice ? runtime::IntraOp{} : intra;
  if (op.qcsr != nullptr) {
    return std::make_unique<Op<sparse::QCsrMatrix>>(op, op.qcsr, policy,
                                                    backend);
  }
  return std::make_unique<Op<sparse::CsrMatrix>>(op, op.csr, policy,
                                                 backend);
}

std::unique_ptr<EvalOp> bind_op(const Plan& plan, const PlanOp& op,
                                const runtime::IntraOp& intra,
                                const kernels::simd::KernelBackend* backend) {
  switch (op.kind) {
    case PlanOpKind::kSpmm:
      return bind_csr<CsrLinearOp>(op, intra, backend);
    case PlanOpKind::kConv:
      return bind_csr<CsrConvOp>(op, intra, backend);
    case PlanOpKind::kRowSlice:
      return op.conv_slice ? bind_csr<CsrConvOp>(op, intra, backend)
                           : bind_csr<CsrLinearOp>(op, intra, backend);
    case PlanOpKind::kIm2col:
      return std::make_unique<Im2colOp>(op, intra);
    case PlanOpKind::kConcatChannels: {
      // Total channels = sum of the slices' row counts, known statically.
      std::size_t total = 0;
      for (const std::size_t in : op.inputs) {
        total += plan.ops[in].row_end - plan.ops[in].row_begin;
      }
      return std::make_unique<ConcatChannelsOp>(total);
    }
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
  exec.profile_ = std::move(profile);
  exec.nodes_.reserve(plan.ops.size());
  exec.op_names_.reserve(plan.ops.size());
  exec.group_start_.assign(plan.ops.size(), 0);

  // Input validation data: a CSR linear head fixes the feature count
  // whether it is whole (kSpmm) or the first slice of a partitioned
  // linear.
  {
    const PlanOp& head = plan.ops.front();
    const bool linear_head =
        head.kind == PlanOpKind::kSpmm ||
        (head.kind == PlanOpKind::kRowSlice && !head.conv_slice);
    if (linear_head && head.inputs.front() == Plan::kInputId) {
      exec.input_features_ =
          head.csr != nullptr ? head.csr->cols() : head.qcsr->cols();
    }
  }

  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const PlanOp& op = plan.ops[i];
    util::check(op.inputs.size() <= kMaxInputs,
                "plan op has more inputs than Executor::kMaxInputs");
    // A run of consecutive sibling slices of one split is one parallel
    // group.
    if (op.kind == PlanOpKind::kRowSlice &&
        op.partition_group != PlanOp::kNoGroup &&
        (i == 0 || plan.ops[i - 1].kind != PlanOpKind::kRowSlice ||
         plan.ops[i - 1].partition_group != op.partition_group)) {
      Group g;
      g.first = i;
      g.count = 1;
      for (std::size_t j = i + 1;
           j < plan.ops.size() &&
           plan.ops[j].kind == PlanOpKind::kRowSlice &&
           plan.ops[j].partition_group == op.partition_group;
           ++j) {
        ++g.count;
      }
      if (g.count > 1) {
        exec.groups_.push_back(g);
        exec.group_start_[i] = exec.groups_.size();
      }
    }
    exec.op_names_.push_back(to_string(op.kind));
    exec.nodes_.push_back(
        OpNode{bind_op(plan, op, intra, backend), op.inputs});
  }
  exec.release_after_ = plan.release_after;
  return exec;
}

void Executor::run_node(std::size_t i, std::vector<tensor::Tensor>& values,
                        const tensor::Tensor& x) const {
  const OpNode& node = nodes_[i];
  // Stack-local: slices of one partition group run concurrently on pool
  // workers, so the gather must not touch shared scratch.
  std::array<const tensor::Tensor*, kMaxInputs> inputs{};
  for (std::size_t j = 0; j < node.inputs.size(); ++j) {
    const std::size_t id = node.inputs[j];
    inputs[j] = id == kInputId ? &x : &values[id];
  }
  values[i] = node.op->run({inputs.data(), node.inputs.size()});
}

tensor::Tensor Executor::forward(const tensor::Tensor& x) const {
  // nodes_ is non-empty (checked at bind). Intermediates are released per
  // the FreeAfterLastUse annotation, so peak memory tracks the graph's
  // width; without the pass everything stays live until return.
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
  auto timed_run = [&](std::size_t i, std::vector<tensor::Tensor>& vals) {
    const std::int64_t t0 = obs::now_ns();
    run_node(i, vals, x);
    const std::int64_t dt = obs::now_ns() - t0;
    if (prof != nullptr) prof->add(i, dt);
    obs::trace().record(tid, obs::SpanKind::kOp, op_names_[i], t0, dt, i);
  };
  for (std::size_t i = 0; i < nodes_.size();) {
    if (group_start_[i] != 0) {
      // A partition group: sibling row slices of one split, each writing
      // its own values[] slot — one fan-out on the pool executes them
      // concurrently, the point of PartitionRows. Releases wait until the
      // whole group is done (a shared patch buffer must outlive every
      // slice).
      const Group& g = groups_[group_start_[i] - 1];
      runtime::pool_of(intra_).run_chunks(
          g.count, g.count, [&](std::size_t b0, std::size_t b1) {
            for (std::size_t j = b0; j < b1; ++j) {
              if (instrument) {
                timed_run(g.first + j, values);
              } else {
                run_node(g.first + j, values, x);
              }
            }
          });
      for (std::size_t j = 0; j < g.count; ++j) release(g.first + j);
      i += g.count;
      continue;
    }
    if (instrument) {
      timed_run(i, values);
    } else {
      run_node(i, values, x);
    }
    release(i);
    ++i;
  }
  return std::move(values.back());
}

Executor Executor::clone() const {
  CloneContext ctx;
  return clone_with(ctx);
}

Executor Executor::clone_shared(
    const std::unordered_set<const void*>& shared) const {
  CloneContext ctx(&shared);
  return clone_with(ctx);
}

Executor Executor::clone_with(CloneContext& ctx) const {
  Executor copy;
  copy.nodes_.reserve(nodes_.size());
  for (const OpNode& node : nodes_) {
    copy.nodes_.push_back(OpNode{node.op->clone(ctx), node.inputs});
  }
  copy.release_after_ = release_after_;
  copy.groups_ = groups_;
  copy.group_start_ = group_start_;
  copy.intra_ = intra_;
  copy.input_features_ = input_features_;
  // The profile is shared ON PURPOSE: every replica of a model adds into
  // the same accumulator, so per-op times aggregate across shards.
  copy.profile_ = profile_;
  copy.op_names_ = op_names_;
  return copy;
}

}  // namespace dstee::serve
