#include "methods/static_pruners.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tensor/ops.hpp"
#include "tensor/topk.hpp"
#include "util/check.hpp"

namespace dstee::methods {

namespace {

// Global top-k over concatenated scores, guaranteeing each layer keeps at
// least one weight.
std::vector<std::vector<std::size_t>> global_topk_selection(
    const sparse::SparseModel& model, const std::vector<tensor::Tensor>& scores,
    double sparsity) {
  const std::size_t L = model.num_layers();
  std::size_t total = 0;
  for (std::size_t i = 0; i < L; ++i) total += scores[i].numel();
  const auto keep_total = std::max<std::size_t>(
      L, static_cast<std::size_t>(
             std::llround((1.0 - sparsity) * static_cast<double>(total))));

  // (score, layer, flat index) triples; nth_element on keep_total.
  struct Entry {
    float score;
    std::uint32_t layer;
    std::uint32_t index;
  };
  std::vector<Entry> entries;
  entries.reserve(total);
  for (std::size_t i = 0; i < L; ++i) {
    for (std::size_t j = 0; j < scores[i].numel(); ++j) {
      entries.push_back({scores[i][j], static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j)});
    }
  }
  auto better = [](const Entry& a, const Entry& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.layer != b.layer) return a.layer < b.layer;
    return a.index < b.index;
  };
  std::nth_element(entries.begin(), entries.begin() + (keep_total - 1),
                   entries.end(), better);
  entries.resize(keep_total);

  std::vector<std::vector<std::size_t>> keep(L);
  for (const auto& e : entries) keep[e.layer].push_back(e.index);

  // Guarantee ≥1 per layer: steal the globally-worst kept entries if needed.
  for (std::size_t i = 0; i < L; ++i) {
    if (!keep[i].empty()) continue;
    const std::size_t best = tensor::topk_indices(scores[i], 1).front();
    keep[i].push_back(best);
  }
  return keep;
}

}  // namespace

void install_masks_from_scores(sparse::SparseModel& model,
                               const std::vector<tensor::Tensor>& scores,
                               const StaticPruneConfig& config) {
  const std::size_t L = model.num_layers();
  util::check(scores.size() == L, "one score tensor per layer required");
  for (std::size_t i = 0; i < L; ++i) {
    util::check(scores[i].shape() == model.layer(i).param().value.shape(),
                "score shape must match parameter shape");
  }

  std::vector<std::vector<std::size_t>> keep(L);
  if (config.global_topk) {
    keep = global_topk_selection(model, scores, config.sparsity);
  } else {
    std::vector<tensor::Shape> shapes;
    shapes.reserve(L);
    for (std::size_t i = 0; i < L; ++i) {
      shapes.push_back(model.layer(i).param().value.shape());
    }
    const auto counts = sparse::layer_active_counts(shapes, config.sparsity,
                                                    config.distribution);
    for (std::size_t i = 0; i < L; ++i) {
      keep[i] = tensor::topk_indices(scores[i], counts[i]);
    }
  }

  for (std::size_t i = 0; i < L; ++i) {
    auto& layer = model.layer(i);
    layer.mask() = sparse::Mask::from_indices(
        layer.param().value.shape(), keep[i]);
    layer.apply_mask_to_value();
  }
  model.reset_counters_to_masks();
}

void prune_magnitude(sparse::SparseModel& model,
                     const StaticPruneConfig& config) {
  std::vector<tensor::Tensor> scores;
  scores.reserve(model.num_layers());
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    scores.push_back(tensor::abs(model.layer(i).param().value));
  }
  install_masks_from_scores(model, scores, config);
}

void prune_random(sparse::SparseModel& model, const StaticPruneConfig& config,
                  util::Rng& rng) {
  util::Rng stream = rng.fork("prune/random");
  std::vector<tensor::Tensor> scores;
  scores.reserve(model.num_layers());
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    tensor::Tensor s(model.layer(i).param().value.shape());
    for (std::size_t j = 0; j < s.numel(); ++j) {
      s[j] = static_cast<float>(stream.uniform());
    }
    scores.push_back(std::move(s));
  }
  install_masks_from_scores(model, scores, config);
}

void prune_snip(nn::Module& module, sparse::SparseModel& model,
                const GradEvalFn& eval_grads,
                const StaticPruneConfig& config) {
  module.zero_grad();
  eval_grads();
  std::vector<tensor::Tensor> scores;
  scores.reserve(model.num_layers());
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    auto& p = model.layer(i).param();
    const tensor::Tensor& grad = p.grad();
    tensor::Tensor s(p.value.shape());
    for (std::size_t j = 0; j < s.numel(); ++j) {
      s[j] = std::fabs(p.value[j] * grad[j]);
    }
    scores.push_back(std::move(s));
  }
  module.zero_grad();
  install_masks_from_scores(model, scores, config);
}

void prune_grasp(nn::Module& module, sparse::SparseModel& model,
                 const GradEvalFn& eval_grads,
                 const StaticPruneConfig& config) {
  module.zero_grad();
  eval_grads();
  // First-order GraSP: keep weights whose w·g is largest — removing them
  // would reduce gradient flow the most.
  std::vector<tensor::Tensor> scores;
  scores.reserve(model.num_layers());
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    auto& p = model.layer(i).param();
    const tensor::Tensor& grad = p.grad();
    tensor::Tensor s(p.value.shape());
    for (std::size_t j = 0; j < s.numel(); ++j) {
      s[j] = p.value[j] * grad[j];
    }
    scores.push_back(std::move(s));
  }
  module.zero_grad();
  install_masks_from_scores(model, scores, config);
}

void prune_synflow(nn::Module& module, sparse::SparseModel& model,
                   const tensor::Shape& input_shape,
                   const StaticPruneConfig& config, std::size_t rounds) {
  util::check(rounds >= 1, "synflow needs at least one round");
  const std::size_t L = model.num_layers();

  // Save signed weights; linearize the network with |w|.
  std::vector<tensor::Tensor> saved;
  saved.reserve(L);
  for (std::size_t i = 0; i < L; ++i) {
    saved.push_back(model.layer(i).param().value);
    auto& v = model.layer(i).param().value;
    for (std::size_t j = 0; j < v.numel(); ++j) v[j] = std::fabs(v[j]);
  }

  // Batch of one all-ones example.
  std::vector<std::size_t> dims{1};
  for (const auto d : input_shape.dims()) dims.push_back(d);
  tensor::Tensor ones{tensor::Shape(dims)};
  ones.fill(1.0f);

  const bool was_training = module.is_training();
  module.set_training(false);  // BN must not update running stats

  StaticPruneConfig round_config = config;
  for (std::size_t r = 1; r <= rounds; ++r) {
    // Exponential schedule: sparsity_r = 1 − (1 − s_f)^(r/R).
    const double density_r =
        std::pow(1.0 - config.sparsity,
                 static_cast<double>(r) / static_cast<double>(rounds));
    round_config.sparsity = 1.0 - density_r;

    module.zero_grad();
    const tensor::Tensor out = module.forward(ones);
    tensor::Tensor grad(out.shape());
    grad.fill(1.0f);  // d(Σ outputs)/d(out) = 1
    module.backward(grad);

    std::vector<tensor::Tensor> scores;
    scores.reserve(L);
    for (std::size_t i = 0; i < L; ++i) {
      auto& p = model.layer(i).param();
      const tensor::Tensor& grad = p.grad();
      tensor::Tensor s(p.value.shape());
      for (std::size_t j = 0; j < s.numel(); ++j) {
        s[j] = std::fabs(p.value[j] * grad[j]);
      }
      scores.push_back(std::move(s));
    }
    install_masks_from_scores(model, scores, round_config);
  }
  module.set_training(was_training);
  module.zero_grad();

  // Restore signed weights under the final mask.
  for (std::size_t i = 0; i < L; ++i) {
    model.layer(i).param().value = saved[i];
    model.layer(i).apply_mask_to_value();
  }
  model.reset_counters_to_masks();
}

}  // namespace dstee::methods
