// Trainable parameter: value + gradient + sparsification eligibility.
//
// The gradient is allocated on first use: the first grad() call makes a
// zero tensor of the value's shape, and backward passes accumulate into
// it. A model that is only served never calls it, so it holds its values
// alone; ModelRegistry::add_model calls release_grad() on every parameter
// of a model it takes, so one trained before registration sheds its
// gradients too.
#pragma once

#include <optional>
#include <string>

#include "tensor/tensor.hpp"

namespace dstee::nn {

/// A named trainable tensor with its gradient accumulator.
///
/// `sparsifiable` marks the parameters DST operates on. Following the paper
/// (and RigL/SET convention), conv and linear *weights* are sparsified;
/// biases and batch-norm affine parameters stay dense — they are a
/// negligible fraction of the model and pruning them destabilizes training.
///
/// Not thread-safe, like every other Parameter mutation: the first grad()
/// allocates, so call it on the calling thread before any intra-op
/// fan-out that writes the gradient.
class Parameter {
 public:
  Parameter(std::string param_name, tensor::Shape shape, bool can_sparsify)
      : name(std::move(param_name)),
        value(std::move(shape)),
        sparsifiable(can_sparsify) {}

  std::string name;
  tensor::Tensor value;
  bool sparsifiable;

  /// The gradient accumulator. The first call allocates a zero tensor of
  /// the value's shape, so a first accumulation adds into zeros, exactly
  /// as into a zero-filled gradient.
  tensor::Tensor& grad() {
    if (!grad_) grad_.emplace(value.shape());
    return *grad_;
  }

  /// Whether the gradient has been allocated (and not released since).
  bool has_grad() const { return grad_.has_value(); }

  /// Frees the gradient; a later grad() allocates zeros again.
  void release_grad() { grad_.reset(); }

  /// Clears the gradient accumulator; allocates nothing when there is none.
  void zero_grad() {
    if (grad_) grad_->fill(0.0f);
  }

 private:
  std::optional<tensor::Tensor> grad_;
};

}  // namespace dstee::nn
