#include "optim/optimizer.hpp"

#include <cmath>

#include "util/check.hpp"

namespace dstee::optim {

Optimizer::Optimizer(std::vector<nn::Parameter*> params)
    : params_(std::move(params)) {
  util::check(!params_.empty(), "optimizer requires at least one parameter");
  for (const auto* p : params_) {
    util::check(p != nullptr, "optimizer received a null parameter");
  }
}

void Optimizer::reset_state_at(std::size_t param_idx, std::size_t flat_index) {
  (void)param_idx;
  (void)flat_index;
}

Sgd::Sgd(std::vector<nn::Parameter*> params, const Config& config)
    : Optimizer(std::move(params)), config_(config) {
  lr_ = config.lr;
  velocity_.reserve(params_.size());
  for (const auto* p : params_) {
    velocity_.emplace_back(p->value.shape());
  }
}

void Sgd::step() {
  const float lr = static_cast<float>(lr_);
  const float mu = static_cast<float>(config_.momentum);
  const float wd = static_cast<float>(config_.weight_decay);
  for (std::size_t pi = 0; pi < params_.size(); ++pi) {
    nn::Parameter& p = *params_[pi];
    const tensor::Tensor& grad = p.grad();
    tensor::Tensor& vel = velocity_[pi];
    const bool decay =
        wd != 0.0f && (p.sparsifiable || config_.decay_bn_and_bias);
    for (std::size_t i = 0; i < p.value.numel(); ++i) {
      float g = grad[i];
      if (decay) g += wd * p.value[i];
      if (mu != 0.0f) {
        vel[i] = mu * vel[i] + g;
        g = config_.nesterov ? g + mu * vel[i] : vel[i];
      }
      p.value[i] -= lr * g;
    }
  }
}

void Sgd::reset_state_at(std::size_t param_idx, std::size_t flat_index) {
  util::check(param_idx < velocity_.size(), "sgd parameter index out of range");
  velocity_[param_idx].at(flat_index) = 0.0f;
}

Adam::Adam(std::vector<nn::Parameter*> params, const Config& config)
    : Optimizer(std::move(params)), config_(config) {
  lr_ = config.lr;
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::step() {
  ++t_;
  const double b1 = config_.beta1, b2 = config_.beta2;
  const double bias1 = 1.0 - std::pow(b1, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(b2, static_cast<double>(t_));
  const double step_size = lr_ / bias1;
  const float wd = static_cast<float>(config_.weight_decay);
  for (std::size_t pi = 0; pi < params_.size(); ++pi) {
    nn::Parameter& p = *params_[pi];
    tensor::Tensor& m = m_[pi];
    tensor::Tensor& v = v_[pi];
    const tensor::Tensor& grad = p.grad();
    for (std::size_t i = 0; i < p.value.numel(); ++i) {
      float g = grad[i];
      if (wd != 0.0f && p.sparsifiable) g += wd * p.value[i];
      m[i] = static_cast<float>(b1 * m[i] + (1.0 - b1) * g);
      v[i] = static_cast<float>(b2 * v[i] + (1.0 - b2) * g * g);
      const double vhat = v[i] / bias2;
      p.value[i] -= static_cast<float>(step_size * m[i] /
                                       (std::sqrt(vhat) + config_.eps));
    }
  }
}

void Adam::reset_state_at(std::size_t param_idx, std::size_t flat_index) {
  util::check(param_idx < m_.size(), "adam parameter index out of range");
  m_[param_idx].at(flat_index) = 0.0f;
  v_[param_idx].at(flat_index) = 0.0f;
}

}  // namespace dstee::optim
