// MaskedParameter: a sparsifiable parameter together with its mask and its
// activation-occurrence counter N (the tensor the DST-EE exploration term
// reads). One of these exists per conv/linear weight tensor in the model.
//
// The counter is training state only: serving reads the mask and the
// value. release_counter() frees it (ModelRegistry does, for every model
// it takes); afterwards every reader and writer of the counter throws
// CheckError, until restore_counter() allocates it again (which
// train::load_checkpoint does before reading a "#counter" record).
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "nn/parameter.hpp"
#include "sparse/mask.hpp"

namespace dstee::sparse {

/// Couples a model parameter with its sparse-training state.
class MaskedParameter {
 public:
  /// `optimizer_index` is the parameter's position in the optimizer's list,
  /// used to clear momentum entries on topology changes.
  MaskedParameter(nn::Parameter& param, Mask mask,
                  std::size_t optimizer_index);

  const std::string& name() const { return param_->name; }
  nn::Parameter& param() { return *param_; }
  const nn::Parameter& param() const { return *param_; }

  Mask& mask() { return mask_; }
  const Mask& mask() const { return mask_; }

  /// Occurrence counter Nᵗ: accumulated per mask-update round by += mask
  /// (Algorithm 1). Same shape as the parameter. Throws CheckError when
  /// the counter was released.
  tensor::Tensor& counter();
  const tensor::Tensor& counter() const;

  bool has_counter() const { return counter_.has_value(); }

  /// Frees the counter (an inference-only layer needs none).
  void release_counter() { counter_.reset(); }

  /// Allocates a released counter as zeros of the parameter's shape (a
  /// kept counter is returned as it is), for a loader to fill.
  tensor::Tensor& restore_counter();

  std::size_t optimizer_index() const { return optimizer_index_; }

  std::size_t numel() const { return param_->value.numel(); }
  std::size_t num_active() const { return mask_.num_active(); }
  double density() const { return mask_.density(); }

  /// Zeros parameter values at masked positions (invariant after any
  /// topology edit or optimizer step).
  void apply_mask_to_value() { mask_.apply_to(param_->value); }

  /// Zeros gradients at masked positions (before the optimizer step, so
  /// inactive weights do not move).
  void apply_mask_to_grad() { mask_.apply_to(param_->grad()); }

  /// Adds the current mask into the counter (one mask-update round).
  /// Throws CheckError when the counter was released.
  void accumulate_counter();

 private:
  nn::Parameter* param_;  // non-owning; the model outlives this object
  Mask mask_;
  std::optional<tensor::Tensor> counter_;  // empty once released
  std::size_t optimizer_index_;
};

}  // namespace dstee::sparse
