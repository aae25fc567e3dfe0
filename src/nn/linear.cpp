#include "nn/linear.hpp"

#include "tensor/init.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace dstee::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features,
               util::Rng& rng, bool with_bias)
    : in_features_(in_features),
      out_features_(out_features),
      weight_("linear.weight", tensor::Shape({out_features, in_features}),
              /*can_sparsify=*/true) {
  util::check(in_features > 0 && out_features > 0,
              "linear layer dimensions must be positive");
  tensor::fill_kaiming_normal(weight_.value, rng);
  if (with_bias) {
    bias_.emplace("linear.bias", tensor::Shape({out_features}),
                  /*can_sparsify=*/false);
  }
}

Parameter& Linear::bias() {
  util::check(bias_.has_value(), "linear layer was built without bias");
  return *bias_;
}

tensor::Tensor Linear::forward(const tensor::Tensor& x) {
  if (x.rank() != 2 || x.dim(1) != in_features_) {
    util::fail("linear forward expects [batch, " +
               std::to_string(in_features_) + "], got " +
               x.shape().to_string());
  }
  cached_input_ = x;
  tensor::Tensor y = tensor::matmul_nt(x, weight_.value);
  if (bias_) {
    const std::size_t batch = y.dim(0);
    for (std::size_t n = 0; n < batch; ++n) {
      float* row = y.raw() + n * out_features_;
      for (std::size_t j = 0; j < out_features_; ++j) {
        row[j] += bias_->value[j];
      }
    }
  }
  return y;
}

tensor::Tensor Linear::backward(const tensor::Tensor& grad_out) {
  util::check(grad_out.rank() == 2 && grad_out.dim(1) == out_features_ &&
                  grad_out.dim(0) == cached_input_.dim(0),
              "linear backward gradient shape mismatch");
  // grad_W[out,in] += grad_outᵀ[out,batch] · x[batch,in]
  tensor::Tensor grad_w = tensor::matmul_tn(grad_out, cached_input_);
  tensor::add_inplace(weight_.grad(), grad_w);
  if (bias_) {
    tensor::Tensor& grad_b = bias_->grad();
    const std::size_t batch = grad_out.dim(0);
    for (std::size_t n = 0; n < batch; ++n) {
      const float* row = grad_out.raw() + n * out_features_;
      for (std::size_t j = 0; j < out_features_; ++j) {
        grad_b[j] += row[j];
      }
    }
  }
  // grad_x[batch,in] = grad_out[batch,out] · W[out,in]
  return tensor::matmul(grad_out, weight_.value);
}

void Linear::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (bias_) out.push_back(&*bias_);
}

std::string Linear::name() const {
  return "linear(" + std::to_string(in_features_) + "->" +
         std::to_string(out_features_) + ")";
}

}  // namespace dstee::nn
