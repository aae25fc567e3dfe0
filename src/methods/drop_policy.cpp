#include "methods/drop_policy.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/ops.hpp"
#include "tensor/topk.hpp"
#include "util/check.hpp"

namespace dstee::methods {

std::vector<std::size_t> MagnitudeDrop::select(const DropContext& ctx,
                                               std::size_t k) {
  const tensor::Tensor magnitudes = tensor::abs(ctx.layer.param().value);
  return tensor::bottomk_indices_among(magnitudes,
                                       ctx.layer.mask().active_indices(), k);
}

std::vector<std::size_t> RandomDrop::select(const DropContext& ctx,
                                            std::size_t k) {
  const std::vector<std::size_t> active = ctx.layer.mask().active_indices();
  util::check(k <= active.size(), "cannot drop more weights than are active");
  const auto picks = ctx.rng.sample_without_replacement(active.size(), k);
  std::vector<std::size_t> out;
  out.reserve(k);
  for (const std::size_t p : picks) out.push_back(active[p]);
  std::sort(out.begin(), out.end());
  return out;
}

MagnitudeGradientDrop::MagnitudeGradientDrop(double gamma) : gamma_(gamma) {
  util::check(gamma >= 0.0, "gamma must be non-negative");
}

std::vector<std::size_t> MagnitudeGradientDrop::select(const DropContext& ctx,
                                                       std::size_t k) {
  const tensor::Tensor& w = ctx.layer.param().value;
  const tensor::Tensor& g = ctx.dense_grad;
  tensor::Tensor importance(w.shape());
  for (std::size_t i = 0; i < w.numel(); ++i) {
    importance[i] =
        std::fabs(w[i]) + static_cast<float>(gamma_) * std::fabs(g[i]);
  }
  return tensor::bottomk_indices_among(importance,
                                       ctx.layer.mask().active_indices(), k);
}

std::vector<std::size_t> SignFlipDrop::select(const DropContext& ctx,
                                              std::size_t k) {
  const tensor::Tensor& w = ctx.layer.param().value;
  const tensor::Tensor& g = ctx.dense_grad;
  const float lr = static_cast<float>(ctx.learning_rate);
  // Score: post-step signed distance from a sign flip. Negative values mean
  // the step flips (or zeroes) the weight — most eligible to drop.
  tensor::Tensor score(w.shape());
  for (std::size_t i = 0; i < w.numel(); ++i) {
    const float next = w[i] - lr * g[i];
    const float same_sign = (w[i] > 0.0f) == (next > 0.0f) ? 1.0f : -1.0f;
    score[i] = same_sign * std::fabs(next);
  }
  return tensor::bottomk_indices_among(score,
                                       ctx.layer.mask().active_indices(), k);
}

}  // namespace dstee::methods
