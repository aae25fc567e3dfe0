#include "nn/conv2d.hpp"

#include "kernels/conv.hpp"
#include "tensor/init.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace dstee::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               util::Rng& rng, bool with_bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_("conv2d.weight",
              tensor::Shape({out_channels, in_channels, kernel, kernel}),
              /*can_sparsify=*/true) {
  util::check(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0,
              "conv2d dimensions must be positive");
  tensor::fill_kaiming_normal(weight_.value, rng);
  if (with_bias) {
    bias_.emplace("conv2d.bias", tensor::Shape({out_channels}),
                  /*can_sparsify=*/false);
  }
}

tensor::ConvGeometry Conv2d::geometry(std::size_t in_h,
                                      std::size_t in_w) const {
  tensor::ConvGeometry g;
  g.in_channels = in_channels_;
  g.in_h = in_h;
  g.in_w = in_w;
  g.kernel_h = kernel_;
  g.kernel_w = kernel_;
  g.stride = stride_;
  g.padding = padding_;
  return g;
}

tensor::Tensor Conv2d::forward(const tensor::Tensor& x) {
  if (x.rank() != 4 || x.dim(1) != in_channels_) {
    util::fail("conv2d forward expects [N, " + std::to_string(in_channels_) +
               ", H, W], got " + x.shape().to_string());
  }
  cached_input_ = x;
  // Weight viewed as [Cout, Cin·K·K] for the lowered matmul. Training
  // forwards share the process runtime pool; the chunk count comes from
  // runtime::intra_op_default() (serial unless configured).
  const tensor::Tensor w2d = weight_.value.reshaped(
      tensor::Shape({out_channels_, in_channels_ * kernel_ * kernel_}));
  return kernels::conv2d_forward(
      x, w2d, kernel_, stride_, padding_,
      bias_ ? bias_->value.raw() : nullptr,
      runtime::training_intra());
}

tensor::Tensor Conv2d::backward(const tensor::Tensor& grad_out) {
  const auto g = geometry(cached_input_.dim(2), cached_input_.dim(3));
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t batch = cached_input_.dim(0);
  util::check(grad_out.rank() == 4 && grad_out.dim(0) == batch &&
                  grad_out.dim(1) == out_channels_ && grad_out.dim(2) == oh &&
                  grad_out.dim(3) == ow,
              "conv2d backward gradient shape mismatch");

  const tensor::Tensor w2d =
      weight_.value.reshaped(tensor::Shape({out_channels_, g.patch_size()}));
  tensor::Tensor grad_w2d({out_channels_, g.patch_size()});
  tensor::Tensor grad_x(cached_input_.shape());

  tensor::Tensor cols({g.patch_size(), oh * ow});
  tensor::Tensor grad_out2d({out_channels_, oh * ow});
  const std::size_t image_elems =
      in_channels_ * cached_input_.dim(2) * cached_input_.dim(3);
  const std::size_t out_image_elems = out_channels_ * oh * ow;

  for (std::size_t n = 0; n < batch; ++n) {
    const float* go = grad_out.raw() + n * out_image_elems;
    for (std::size_t i = 0; i < out_image_elems; ++i) grad_out2d[i] = go[i];

    // grad_W2d += grad_out2d[Cout, ohw] · colsᵀ[ohw, patch]
    tensor::im2col(cached_input_.raw() + n * image_elems, g, cols);
    tensor::Tensor gw = tensor::matmul_nt(grad_out2d, cols);
    tensor::add_inplace(grad_w2d, gw);

    // grad_cols = w2dᵀ[patch, Cout] · grad_out2d[Cout, ohw]
    tensor::Tensor grad_cols = tensor::matmul_tn(w2d, grad_out2d);
    tensor::col2im(grad_cols, g, grad_x.raw() + n * image_elems);

    if (bias_) {
      for (std::size_t c = 0; c < out_channels_; ++c) {
        const float* plane = go + c * oh * ow;
        float acc = 0.0f;
        for (std::size_t i = 0; i < oh * ow; ++i) acc += plane[i];
        bias_->grad()[c] += acc;
      }
    }
  }
  tensor::add_inplace(
      weight_.grad(), grad_w2d.reshaped(weight_.value.shape()));
  return grad_x;
}

Parameter& Conv2d::bias() {
  util::check(bias_.has_value(), "conv2d built without bias");
  return *bias_;
}

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (bias_) out.push_back(&*bias_);
}

std::string Conv2d::name() const {
  return "conv2d(" + std::to_string(in_channels_) + "->" +
         std::to_string(out_channels_) + ", k" + std::to_string(kernel_) +
         ", s" + std::to_string(stride_) + ", p" + std::to_string(padding_) +
         ")";
}

}  // namespace dstee::nn
