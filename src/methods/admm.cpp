#include "methods/admm.hpp"

#include "tensor/ops.hpp"
#include "tensor/topk.hpp"
#include "util/check.hpp"

namespace dstee::methods {

AdmmPruner::AdmmPruner(sparse::SparseModel& model, const AdmmConfig& config)
    : config_(config) {
  util::check(config.rho > 0.0, "ADMM rho must be positive");
  util::check(config.sparsity > 0.0 && config.sparsity < 1.0,
              "ADMM sparsity must be in (0, 1)");
  util::check(config.projection_interval > 0,
              "projection interval must be positive");
  const std::size_t L = model.num_layers();
  std::vector<tensor::Tensor> weights;
  weights.reserve(L);
  for (std::size_t i = 0; i < L; ++i) {
    weights.push_back(model.layer(i).param().value);
    u_.emplace_back(model.layer(i).param().value.shape());
  }
  z_.resize(L);
  project(model, weights, z_);
}

std::vector<std::size_t> AdmmPruner::projection_counts(
    const sparse::SparseModel& model) const {
  std::vector<tensor::Shape> shapes;
  shapes.reserve(model.num_layers());
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    shapes.push_back(model.layer(i).param().value.shape());
  }
  return sparse::layer_active_counts(shapes, config_.sparsity,
                                     config_.distribution);
}

void AdmmPruner::project(const sparse::SparseModel& model,
                         const std::vector<tensor::Tensor>& source,
                         std::vector<tensor::Tensor>& dest) const {
  const auto counts = projection_counts(model);
  for (std::size_t i = 0; i < source.size(); ++i) {
    const tensor::Tensor magnitudes = tensor::abs(source[i]);
    const auto keep = tensor::topk_indices(magnitudes, counts[i]);
    tensor::Tensor projected(source[i].shape());
    for (const std::size_t j : keep) projected[j] = source[i][j];
    dest[i] = std::move(projected);
  }
}

void AdmmPruner::add_penalty_gradients(sparse::SparseModel& model) const {
  util::check(z_.size() == model.num_layers(),
              "ADMM state does not match the model");
  const float rho = static_cast<float>(config_.rho);
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    auto& p = model.layer(i).param();
    tensor::Tensor& grad = p.grad();
    const tensor::Tensor& z = z_[i];
    const tensor::Tensor& u = u_[i];
    for (std::size_t j = 0; j < grad.numel(); ++j) {
      grad[j] += rho * (p.value[j] - z[j] + u[j]);
    }
  }
}

bool AdmmPruner::maybe_update_duals(sparse::SparseModel& model,
                                    std::size_t t) {
  if (t % config_.projection_interval != 0) return false;
  const std::size_t L = model.num_layers();
  std::vector<tensor::Tensor> w_plus_u;
  w_plus_u.reserve(L);
  for (std::size_t i = 0; i < L; ++i) {
    w_plus_u.push_back(tensor::add(model.layer(i).param().value, u_[i]));
  }
  project(model, w_plus_u, z_);
  for (std::size_t i = 0; i < L; ++i) {
    // U ← U + W − Z
    const auto& w = model.layer(i).param().value;
    for (std::size_t j = 0; j < u_[i].numel(); ++j) {
      u_[i][j] += w[j] - z_[i][j];
    }
  }
  return true;
}

void AdmmPruner::finalize_mask(sparse::SparseModel& model) const {
  const auto counts = projection_counts(model);
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    auto& layer = model.layer(i);
    const tensor::Tensor magnitudes = tensor::abs(layer.param().value);
    const auto keep = tensor::topk_indices(magnitudes, counts[i]);
    layer.mask() = sparse::Mask::from_indices(magnitudes.shape(), keep);
    layer.apply_mask_to_value();
  }
  model.reset_counters_to_masks();
}

double AdmmPruner::constraint_violation(
    const sparse::SparseModel& model) const {
  double total = 0.0;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    const auto& w = model.layer(i).param().value;
    const auto& z = z_[i];
    for (std::size_t j = 0; j < w.numel(); ++j) {
      const double d = static_cast<double>(w[j]) - z[j];
      total += d * d;
    }
  }
  return total;
}

}  // namespace dstee::methods
