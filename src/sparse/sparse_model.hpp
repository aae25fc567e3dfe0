// SparseModel: binds masks to every sparsifiable parameter of a module
// tree and maintains the global sparse-training invariants.
#pragma once

#include <string>
#include <vector>

#include "nn/module.hpp"
#include "sparse/distribution.hpp"
#include "sparse/masked_parameter.hpp"
#include "util/rng.hpp"

namespace dstee::sparse {

/// Per-layer density snapshot for reports and tests.
struct LayerDensity {
  std::string name;
  std::size_t numel = 0;
  std::size_t active = 0;
  double density = 0.0;
};

/// Owns the mask state for one model. Construction sparsifies the model in
/// place: per-layer active counts come from the chosen distribution, masks
/// are sampled uniformly at random (the paper's random sparse init), and
/// masked weights are zeroed.
class SparseModel {
 public:
  /// `model` must outlive this object. `global_sparsity` in [0,1);
  /// 0 builds all-dense masks (useful as the dense baseline).
  SparseModel(nn::Module& model, double global_sparsity,
              DistributionKind distribution, util::Rng& rng);

  std::size_t num_layers() const { return layers_.size(); }
  MaskedParameter& layer(std::size_t i);
  const MaskedParameter& layer(std::size_t i) const;
  std::vector<MaskedParameter>& layers() { return layers_; }

  double target_sparsity() const { return target_sparsity_; }
  DistributionKind distribution() const { return distribution_; }

  /// Total / active sparsifiable weights across layers.
  std::size_t total_weights() const;
  std::size_t total_active() const;

  /// Achieved global density over sparsifiable parameters.
  double global_density() const;

  /// Achieved global sparsity (1 − density).
  double global_sparsity() const { return 1.0 - global_density(); }

  /// Applies every mask to its parameter values (enforces the invariant
  /// "masked weights are zero").
  void apply_masks_to_values();

  /// Applies every mask to its parameter gradients (so the optimizer step
  /// leaves inactive weights untouched).
  void apply_masks_to_grads();

  /// Adds each current mask into its occurrence counter (Algorithm 1's
  /// per-round N update).
  void accumulate_counters();

  /// Resets every counter to the current mask (Algorithm 1's N ← M
  /// initialization). Static pruners call this after replacing the masks.
  void reset_counters_to_masks();

  /// Frees every layer's counter (MaskedParameter::release_counter): an
  /// inference-only model keeps its masks alone. Training on it, and
  /// save_checkpoint, then throw CheckError.
  void release_counters();

  /// Per-layer density report.
  std::vector<LayerDensity> layer_report() const;

 private:
  std::vector<MaskedParameter> layers_;
  double target_sparsity_;
  DistributionKind distribution_;
};

}  // namespace dstee::sparse
