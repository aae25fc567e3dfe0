// im2col / col2im: lowering 2-d convolution to matrix multiplication.
//
// Forward conv:  weight[Cout, Cin·Kh·Kw] · im2col(x)[Cin·Kh·Kw, Ho·Wo]
// Backward data: col2im(weightᵀ · grad_out)
// Backward weight: grad_out · im2col(x)ᵀ   (gives the FULL dense weight
// gradient, which is exactly what RigL/DST-EE need for growth scoring).
#pragma once

#include <cstddef>

#include "tensor/tensor.hpp"

namespace dstee::tensor {

/// Geometry of a conv2d application to one image.
struct ConvGeometry {
  std::size_t in_channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel_h = 0;
  std::size_t kernel_w = 0;
  std::size_t stride = 1;
  std::size_t padding = 0;

  std::size_t out_h() const {
    return (in_h + 2 * padding - kernel_h) / stride + 1;
  }
  std::size_t out_w() const {
    return (in_w + 2 * padding - kernel_w) / stride + 1;
  }
  /// Rows of the lowered matrix: Cin · Kh · Kw.
  std::size_t patch_size() const { return in_channels * kernel_h * kernel_w; }
};

/// Lowers one image `x[C, H, W]` (given as a flat span base pointer) into
/// `cols[patch_size, out_h*out_w]`. `cols` must be pre-shaped; zero padding
/// is materialized as zeros.
void im2col(const float* image, const ConvGeometry& g, Tensor& cols);

/// im2col writing into caller-owned storage of patch_size·out_h·out_w
/// floats — the serve conv path, which lowers each image into reusable
/// per-chunk scratch without allocating a Tensor per call.
void im2col(const float* image, const ConvGeometry& g, float* cols);

/// Adjoint of im2col: scatters `cols[patch_size, out_h*out_w]` back into the
/// image gradient buffer (accumulating).
void col2im(const Tensor& cols, const ConvGeometry& g, float* image_grad);

}  // namespace dstee::tensor
