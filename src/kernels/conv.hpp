// Dense conv2d forward kernel: per-image im2col followed by a lowered
// matmul. nn::Conv2d::forward delegates here. The serve/ runtime reads
// the same [Cout, Cin·K·K] weight view without building the patch matrix
// (kernels/direct_conv.hpp), bit-identical to im2col + CSR SpMM, so the
// patch layout is still defined in exactly one place (tensor/im2col.hpp).
#pragma once

#include <cstddef>

#include "kernels/epilogue.hpp"
#include "runtime/pool.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"

namespace dstee::kernels {

/// y[N, Cout, Ho, Wo] = act(conv(x[N, Cin, H, W], w2d) + bias + residual).
/// `w2d` is the weight viewed as [Cout, Cin·K·K]. The epilogue is applied
/// in the per-image output loop while the block is hot: `ep.bias` is
/// indexed by output channel, `ep.residual` is laid out like y
/// ([N, Cout, Ho, Wo] flat) with `ep.residual_stride` the per-sample
/// element count Cout·Ho·Wo. `intra` splits the batch across the runtime
/// pool (images are independent, so every output element has exactly one
/// writer and results are bit-identical for any chunk count); the default
/// runs inline.
tensor::Tensor conv2d_forward(const tensor::Tensor& x,
                              const tensor::Tensor& w2d, std::size_t kernel,
                              std::size_t stride, std::size_t padding,
                              const Epilogue& ep = {},
                              const runtime::IntraOp& intra = {});

/// Bias-pointer compatibility overload for the nn/ training forward
/// (`bias` is an optional [Cout] pointer, nullptr = none); forwards to
/// the epilogue signature with the bias as the whole epilogue.
tensor::Tensor conv2d_forward(const tensor::Tensor& x,
                              const tensor::Tensor& w2d, std::size_t kernel,
                              std::size_t stride, std::size_t padding,
                              const float* bias,
                              const runtime::IntraOp& intra = {});

/// Adds `bias[c]` to every element of channel plane c, over [N, C, H·W].
void add_channel_bias(tensor::Tensor& y, const float* bias);

}  // namespace dstee::kernels
