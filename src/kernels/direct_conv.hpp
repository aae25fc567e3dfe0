// Direct sparse convolution: the layout that runs a CSR conv without
// im2col.
//
// im2col materialises a [Cin·K·K, OH·OW] patch matrix (9× the image for a
// 3×3 conv) and the sparse kernel then streams one patch row per nonzero.
// Here each image is packed once into a zero-padded buffer split into s²
// stride-phase planes (s = stride, p = padding):
//
//   plane (a, b) = [Cin, Hq, Wq], Hq = ⌈(H+2p)/s⌉, Wq = ⌈(W+2p)/s⌉,
//   element (c, i, j) = x[c, s·i+a−p, s·j+b−p], or 0.0f outside the image.
//
// CSR column (cin·K + kh)·K + kw then reads at the fixed offset
//
//   ((kh mod s)·s + kw mod s)·Cin·Hq·Wq + cin·Hq·Wq + ⌊kh/s⌋·Wq + ⌊kw/s⌋
//
// over the flattened output grid: output (y, x) is grid position
// y·Wq + x, so one nonzero is one contiguous multiply-add over the swept
// positions [0, (OH−1)·Wq + OW). Grid columns x >= OW are computed and
// never stored. Every read lies inside the buffer, because the last grid
// position is a real output. At s = 1 the buffer is just the padded image.
//
// Each product uses the same image value (or the same 0.0f pad) im2col
// feeds it and the kernel sums in CSR order from 0.0f, so the result is
// bit-identical to im2col + CsrMatrix::spmm_cols_into by construction.
// The kernel is KernelBackend::spconv, reached through
// CsrMatrix::spconv_into; serve's conv op drives it per image.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "kernels/simd/backend.hpp"
#include "tensor/im2col.hpp"

namespace dstee::kernels {

/// The packed layout of one image under a conv geometry, and the output
/// grid the spconv kernel sweeps over it. Stateless beyond the geometry:
/// build one per call from the input extent.
struct DirectConv {
  /// Validates `g` and checks that a packed image fits 32-bit offsets.
  explicit DirectConv(const tensor::ConvGeometry& g);

  tensor::ConvGeometry geometry;
  std::size_t hq = 0;           ///< phase-plane rows, ⌈(H+2p)/s⌉
  std::size_t wq = 0;           ///< phase-plane columns (grid pitch)
  std::size_t plane = 0;        ///< floats per phase plane, Cin·Hq·Wq
  std::size_t packed_size = 0;  ///< floats per packed image, s²·plane

  /// The output grid: out_h rows of out_w outputs, wq positions apart.
  simd::ConvGrid grid() const {
    return {geometry.out_h(), geometry.out_w(), wq};
  }

  /// Packs image[Cin, H, W] into `packed` (packed_size floats). Only
  /// image elements are written: every pad position must already hold
  /// 0.0f — a zero-initialised buffer, or one this layout packed before
  /// (the pads are the same for every image).
  void pack(const float* image, float* packed) const;

  /// offsets[k] = where CSR column col_idx[k] reads in a packed image.
  /// `offsets` holds col_idx.size() entries; every column must be below
  /// the patch size Cin·K·K.
  void offsets(std::span<const std::uint32_t> col_idx,
               std::uint32_t* offsets) const;
};

/// offsets[k] = col_idx[k]·n: a dense row-major B[cols, n] as the spconv
/// source, read over the one-row grid {1, n, n} — the patch-matrix
/// product CsrMatrix::spmm_cols_into. Checks that B fits
/// 32-bit offsets.
std::vector<std::uint32_t> column_offsets(
    std::span<const std::uint32_t> col_idx, std::size_t cols, std::size_t n);

}  // namespace dstee::kernels
