// The kernel epilogue: the elementwise tail out = act(acc + bias +
// residual).
//
// One `Epilogue` descriptor is what the standalone elementwise
// application below applies (serve's activation and residual-join nodes,
// and the training activations in activations.hpp), and what the dense
// training conv forward (`kernels::conv2d_forward`) applies in its output
// loop, so there is exactly one definition of what "bias + residual +
// activation" means. The CSR kernels (`sparse::CsrMatrix::spmm*` and
// `spconv_into`) take the same descriptor but apply its bias only; they
// throw on a residual or an activation.
//
// Bit-identity contract: activate() reproduces the historical standalone
// activation kernels operation-for-operation (same compares, same
// multiply for the leaky slope, same std::exp/std::tanh calls), and the
// additions are applied in order: acc, then bias, then residual.
#pragma once

#include <cmath>
#include <cstddef>

#include "runtime/pool.hpp"
#include "tensor/tensor.hpp"

namespace dstee::kernels::simd {
struct KernelBackend;
}  // namespace dstee::kernels::simd

namespace dstee::kernels {

/// Activation applied by an epilogue (and by the Plan IR's activation
/// nodes — serve::ActKind is an alias of this enum).
enum class ActKind { kRelu, kLeakyRelu, kSigmoid, kTanh };

/// Elementwise epilogue descriptor: out = act(value + bias + residual).
/// All members are optional; a default-constructed Epilogue is the
/// identity. Pointer members borrow — the caller keeps them alive for
/// the duration of the kernel call.
struct Epilogue {
  /// Per-output-row bias, indexed by the kernel's row or channel index
  /// (nullptr = no bias). Row-structured kernels only; the flat
  /// apply_epilogue() rejects it.
  const float* bias = nullptr;

  /// Residual operand added after the bias (nullptr = none).
  /// apply_epilogue() indexes it exactly like its output;
  /// conv2d_forward indexes image n's at residual + n * residual_stride.
  const float* residual = nullptr;

  /// Per-image element stride of `residual` for conv2d_forward.
  std::size_t residual_stride = 0;

  bool has_act = false;
  ActKind act = ActKind::kRelu;
  float slope = 0.01f;  ///< kLeakyRelu negative-side slope

  bool empty() const {
    return bias == nullptr && residual == nullptr && !has_act;
  }

  /// The activation alone — additions are the kernel's job because bias/
  /// residual indexing is kernel-specific.
  float activate(float v) const {
    if (!has_act) return v;
    switch (act) {
      case ActKind::kRelu:
        return v > 0.0f ? v : 0.0f;
      case ActKind::kLeakyRelu:
        return v > 0.0f ? v : slope * v;
      case ActKind::kSigmoid:
        return 1.0f / (1.0f + std::exp(-v));
      case ActKind::kTanh:
        return std::tanh(v);
    }
    return v;  // unreachable
  }
};

/// THE standalone elementwise application: out[i] = act(in[i] +
/// residual[i]) over a flat range. `in` and `out` may alias (in-place).
/// `ep.bias` must be null — a flat range has no row structure. Splits
/// across the runtime pool with the shared small-input grain; every
/// element has one writer, so results are bit-identical for any chunk
/// count. The activation kernels in activations.hpp are thin wrappers
/// over this (plus their training-only backward-mask variants); serve/
/// EvalOps call it directly rather than the per-activation entry points.
/// `backend` selects a kernel backend explicitly; nullptr uses the
/// process-wide simd::active_backend().
void apply_epilogue(const float* in, float* out, std::size_t numel,
                    const Epilogue& ep, const runtime::IntraOp& intra = {},
                    const simd::KernelBackend* backend = nullptr);

/// Tensor convenience: returns act(x + residual) as a fresh tensor.
tensor::Tensor apply_epilogue(const tensor::Tensor& x, const Epilogue& ep,
                              const runtime::IntraOp& intra = {},
                              const simd::KernelBackend* backend = nullptr);

}  // namespace dstee::kernels
