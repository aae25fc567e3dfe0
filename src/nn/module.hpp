// Module: the layer interface for the manual reverse-mode framework.
//
// Each module owns its parameters and caches whatever it needs from
// forward() to implement backward(). Composition (Sequential, residual
// blocks) follows the same interface, so models are plain module trees.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/parameter.hpp"
#include "tensor/tensor.hpp"

namespace dstee::nn {

/// Base class for all layers and containers.
///
/// Contract:
///  - forward(x) caches activations needed by backward;
///  - backward(grad_out) ACCUMULATES into each parameter's grad() (the
///    first call allocates it, see parameter.hpp) and returns the
///    gradient w.r.t. the forward input;
///  - backward must be called after forward with a matching batch;
///  - parameter gradients are DENSE: a masked (zero) weight still receives
///    its true gradient — the optimizer applies masks. This is what lets
///    RigL/DST-EE score inactive weights at topology updates.
class Module {
 public:
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  virtual ~Module() = default;

  /// Computes the layer output for input `x`.
  virtual tensor::Tensor forward(const tensor::Tensor& x) = 0;

  /// Propagates `grad_out` (gradient w.r.t. the last forward output) and
  /// returns the gradient w.r.t. the last forward input.
  virtual tensor::Tensor backward(const tensor::Tensor& grad_out) = 0;

  /// Appends raw pointers to this module's parameters (and its children's)
  /// to `out`. Pointers remain valid for the module's lifetime.
  virtual void collect_parameters(std::vector<Parameter*>& out);

  /// Appends non-trainable state tensors that checkpoints must persist
  /// (batch-norm running statistics today). Containers recurse like
  /// collect_parameters; stateless layers keep the no-op default.
  virtual void collect_state_buffers(std::vector<tensor::Tensor*>& out);

  /// Switches between training and inference behaviour (batch-norm,
  /// dropout). Containers forward the flag to children.
  virtual void set_training(bool training) { training_ = training; }
  bool is_training() const { return training_; }

  /// Layer name for diagnostics, e.g. "conv2d(64->128, k3)".
  virtual std::string name() const = 0;

  /// Convenience: all parameters of this subtree.
  std::vector<Parameter*> parameters();

  /// Convenience: all persistent state buffers of this subtree.
  std::vector<tensor::Tensor*> state_buffers();

  /// Zeroes every allocated parameter gradient in this subtree.
  void zero_grad();

  /// Total trainable element count of this subtree.
  std::size_t num_parameters();

 private:
  bool training_ = true;
};

}  // namespace dstee::nn
