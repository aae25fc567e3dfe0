#include "sparse/sparse_model.hpp"

#include "util/check.hpp"

namespace dstee::sparse {

SparseModel::SparseModel(nn::Module& model, double global_sparsity,
                         DistributionKind distribution, util::Rng& rng)
    : target_sparsity_(global_sparsity), distribution_(distribution) {
  util::check(global_sparsity >= 0.0 && global_sparsity < 1.0,
              "global sparsity must be in [0, 1)");

  // Gather sparsifiable parameters and remember their optimizer slots
  // (the optimizer is constructed from the same parameters() order).
  const std::vector<nn::Parameter*> all = model.parameters();
  std::vector<nn::Parameter*> sparsifiable;
  std::vector<std::size_t> opt_index;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i]->sparsifiable) {
      sparsifiable.push_back(all[i]);
      opt_index.push_back(i);
    }
  }
  util::check(!sparsifiable.empty(),
              "model has no sparsifiable parameters");

  std::vector<tensor::Shape> shapes;
  shapes.reserve(sparsifiable.size());
  for (const auto* p : sparsifiable) shapes.push_back(p->value.shape());

  const auto counts =
      layer_active_counts(shapes, global_sparsity, distribution);

  layers_.reserve(sparsifiable.size());
  util::Rng mask_rng = rng.fork("sparse/mask-init");
  for (std::size_t i = 0; i < sparsifiable.size(); ++i) {
    Mask mask = (global_sparsity == 0.0)
                    ? Mask(shapes[i])
                    : Mask::random(shapes[i], counts[i], mask_rng);
    layers_.emplace_back(*sparsifiable[i], std::move(mask), opt_index[i]);
  }
  apply_masks_to_values();
  accumulate_counters();  // Algorithm 1: N ← M at initialization
}

MaskedParameter& SparseModel::layer(std::size_t i) {
  util::check(i < layers_.size(), "layer index out of range");
  return layers_[i];
}

const MaskedParameter& SparseModel::layer(std::size_t i) const {
  util::check(i < layers_.size(), "layer index out of range");
  return layers_[i];
}

std::size_t SparseModel::total_weights() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.numel();
  return n;
}

std::size_t SparseModel::total_active() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.num_active();
  return n;
}

double SparseModel::global_density() const {
  return static_cast<double>(total_active()) /
         static_cast<double>(total_weights());
}

void SparseModel::apply_masks_to_values() {
  for (auto& l : layers_) l.apply_mask_to_value();
}

void SparseModel::apply_masks_to_grads() {
  for (auto& l : layers_) l.apply_mask_to_grad();
}

void SparseModel::accumulate_counters() {
  for (auto& l : layers_) l.accumulate_counter();
}

void SparseModel::reset_counters_to_masks() {
  for (auto& l : layers_) {
    l.counter().fill(0.0f);
    l.accumulate_counter();
  }
}

void SparseModel::release_counters() {
  for (auto& l : layers_) l.release_counter();
}

std::vector<LayerDensity> SparseModel::layer_report() const {
  std::vector<LayerDensity> out;
  out.reserve(layers_.size());
  for (const auto& l : layers_) {
    out.push_back({l.name(), l.numel(), l.num_active(), l.density()});
  }
  return out;
}

}  // namespace dstee::sparse
