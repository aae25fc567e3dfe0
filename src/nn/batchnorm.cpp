#include "nn/batchnorm.hpp"

#include <cmath>

#include "util/check.hpp"

namespace dstee::nn {

BatchNorm::BatchNorm(std::size_t channels, bool rank4, double momentum,
                     double eps)
    : channels_(channels),
      rank4_(rank4),
      momentum_(momentum),
      eps_(eps),
      gamma_("bn.gamma", tensor::Shape({channels}), /*can_sparsify=*/false),
      beta_("bn.beta", tensor::Shape({channels}), /*can_sparsify=*/false),
      running_mean_(tensor::Shape({channels})),
      running_var_(tensor::Shape({channels})) {
  util::check(channels > 0, "batchnorm requires positive channel count");
  gamma_.value.fill(1.0f);
  running_var_.fill(1.0f);
}

std::size_t BatchNorm::spatial(const tensor::Shape& s) const {
  return rank4_ ? s.dim(2) * s.dim(3) : 1;
}

tensor::Tensor BatchNorm::forward(const tensor::Tensor& x) {
  if (rank4_) {
    util::check(x.rank() == 4 && x.dim(1) == channels_,
                "batchnorm2d expects [N, C, H, W] with C=" +
                    std::to_string(channels_));
  } else {
    util::check(x.rank() == 2 && x.dim(1) == channels_,
                "batchnorm1d expects [N, C] with C=" +
                    std::to_string(channels_));
  }
  const std::size_t batch = x.dim(0);
  const std::size_t sp = spatial(x.shape());
  const std::size_t per_channel = batch * sp;
  util::check(per_channel > 0, "batchnorm on empty batch");

  cached_shape_ = x.shape();
  tensor::Tensor y(x.shape());

  if (is_training()) {
    cached_mean_.assign(channels_, 0.0);
    cached_inv_std_.assign(channels_, 0.0);
    cached_xhat_ = tensor::Tensor(x.shape());
    backward_through_batch_stats_ = true;
    for (std::size_t c = 0; c < channels_; ++c) {
      double mean = 0.0;
      for (std::size_t n = 0; n < batch; ++n) {
        const float* src = x.raw() + (n * channels_ + c) * sp;
        for (std::size_t i = 0; i < sp; ++i) mean += src[i];
      }
      mean /= static_cast<double>(per_channel);
      double var = 0.0;
      for (std::size_t n = 0; n < batch; ++n) {
        const float* src = x.raw() + (n * channels_ + c) * sp;
        for (std::size_t i = 0; i < sp; ++i) {
          const double d = src[i] - mean;
          var += d * d;
        }
      }
      var /= static_cast<double>(per_channel);
      const double inv_std = 1.0 / std::sqrt(var + eps_);
      cached_mean_[c] = mean;
      cached_inv_std_[c] = inv_std;
      running_mean_[c] = static_cast<float>(
          (1.0 - momentum_) * running_mean_[c] + momentum_ * mean);
      running_var_[c] = static_cast<float>(
          (1.0 - momentum_) * running_var_[c] + momentum_ * var);
      const float g = gamma_.value[c], b = beta_.value[c];
      for (std::size_t n = 0; n < batch; ++n) {
        const float* src = x.raw() + (n * channels_ + c) * sp;
        float* xh = cached_xhat_.raw() + (n * channels_ + c) * sp;
        float* dst = y.raw() + (n * channels_ + c) * sp;
        for (std::size_t i = 0; i < sp; ++i) {
          const float xhat = static_cast<float>((src[i] - mean) * inv_std);
          xh[i] = xhat;
          dst[i] = g * xhat + b;
        }
      }
    }
  } else {
    // Eval mode: an affine map with constant statistics. Cache x̂ and the
    // inverse stds so backward works here too (SynFlow's data-free scoring
    // backpropagates through eval-mode batch-norm).
    cached_mean_.assign(channels_, 0.0);
    cached_inv_std_.assign(channels_, 0.0);
    cached_xhat_ = tensor::Tensor(x.shape());
    backward_through_batch_stats_ = false;
    for (std::size_t c = 0; c < channels_; ++c) {
      const double inv_std = 1.0 / std::sqrt(running_var_[c] + eps_);
      const double mean = running_mean_[c];
      cached_mean_[c] = mean;
      cached_inv_std_[c] = inv_std;
      const float g = gamma_.value[c], b = beta_.value[c];
      for (std::size_t n = 0; n < batch; ++n) {
        const float* src = x.raw() + (n * channels_ + c) * sp;
        float* xh = cached_xhat_.raw() + (n * channels_ + c) * sp;
        float* dst = y.raw() + (n * channels_ + c) * sp;
        for (std::size_t i = 0; i < sp; ++i) {
          const float xhat = static_cast<float>((src[i] - mean) * inv_std);
          xh[i] = xhat;
          dst[i] = g * xhat + b;
        }
      }
    }
  }
  return y;
}

tensor::Tensor BatchNorm::backward(const tensor::Tensor& grad_out) {
  util::check(grad_out.shape() == cached_shape_,
              "batchnorm backward gradient shape mismatch");
  const std::size_t batch = grad_out.dim(0);
  const std::size_t sp = spatial(cached_shape_);
  const double m = static_cast<double>(batch * sp);

  if (!backward_through_batch_stats_) {
    // Eval-mode statistics are constants: dx = γ·inv_std·dy.
    tensor::Tensor grad_x(cached_shape_);
    for (std::size_t c = 0; c < channels_; ++c) {
      double sum_dy = 0.0, sum_dy_xhat = 0.0;
      const float scale =
          static_cast<float>(gamma_.value[c] * cached_inv_std_[c]);
      for (std::size_t n = 0; n < batch; ++n) {
        const float* dy = grad_out.raw() + (n * channels_ + c) * sp;
        const float* xh = cached_xhat_.raw() + (n * channels_ + c) * sp;
        float* dx = grad_x.raw() + (n * channels_ + c) * sp;
        for (std::size_t i = 0; i < sp; ++i) {
          sum_dy += dy[i];
          sum_dy_xhat += static_cast<double>(dy[i]) * xh[i];
          dx[i] = scale * dy[i];
        }
      }
      gamma_.grad()[c] += static_cast<float>(sum_dy_xhat);
      beta_.grad()[c] += static_cast<float>(sum_dy);
    }
    return grad_x;
  }

  tensor::Tensor grad_x(cached_shape_);
  for (std::size_t c = 0; c < channels_; ++c) {
    // Gather per-channel reductions.
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::size_t n = 0; n < batch; ++n) {
      const float* dy = grad_out.raw() + (n * channels_ + c) * sp;
      const float* xh = cached_xhat_.raw() + (n * channels_ + c) * sp;
      for (std::size_t i = 0; i < sp; ++i) {
        sum_dy += dy[i];
        sum_dy_xhat += static_cast<double>(dy[i]) * xh[i];
      }
    }
    gamma_.grad()[c] += static_cast<float>(sum_dy_xhat);
    beta_.grad()[c] += static_cast<float>(sum_dy);

    // dx = (gamma · inv_std / m) · (m·dy − Σdy − x̂·Σ(dy·x̂))
    const double scale = gamma_.value[c] * cached_inv_std_[c] / m;
    for (std::size_t n = 0; n < batch; ++n) {
      const float* dy = grad_out.raw() + (n * channels_ + c) * sp;
      const float* xh = cached_xhat_.raw() + (n * channels_ + c) * sp;
      float* dx = grad_x.raw() + (n * channels_ + c) * sp;
      for (std::size_t i = 0; i < sp; ++i) {
        dx[i] = static_cast<float>(
            scale * (m * dy[i] - sum_dy - xh[i] * sum_dy_xhat));
      }
    }
  }
  return grad_x;
}

void BatchNorm::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

void BatchNorm::collect_state_buffers(std::vector<tensor::Tensor*>& out) {
  // Running statistics are what eval mode (and any compiled deployment)
  // actually uses — a checkpoint without them loses the trained model.
  out.push_back(&running_mean_);
  out.push_back(&running_var_);
}

std::string BatchNorm::name() const {
  return (rank4_ ? "batchnorm2d(" : "batchnorm1d(") +
         std::to_string(channels_) + ")";
}

}  // namespace dstee::nn
