#include "kernels/direct_conv.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/check.hpp"

namespace dstee::kernels {

namespace {

/// a·b, failing when the product does not fit a uint32 offset.
std::size_t offset_mul(std::size_t a, std::size_t b) {
  util::check(b == 0 || a <= std::numeric_limits<std::uint32_t>::max() / b,
              "direct conv: packed image exceeds 32-bit offsets");
  return a * b;
}

/// offsets[k] = ⌊c/KK⌋·channel + table[c mod KK] for c = col_idx[k], with
/// the divisor K·K known at compile time (KK > 0) or taken from `kk`
/// (KK == 0). Returns the largest column seen.
template <std::uint32_t KK>
std::uint32_t fill_offsets(std::span<const std::uint32_t> col_idx,
                           const std::uint32_t* table, std::uint32_t kk,
                           std::uint32_t channel, std::uint32_t* offsets) {
  const std::uint32_t div = KK != 0 ? KK : kk;
  std::uint32_t max_col = 0;
  for (std::size_t k = 0; k < col_idx.size(); ++k) {
    const std::uint32_t c = col_idx[k];
    const std::uint32_t cin = c / div;
    offsets[k] = cin * channel + table[c - cin * div];
    max_col = std::max(max_col, c);
  }
  return max_col;
}

}  // namespace

DirectConv::DirectConv(const tensor::ConvGeometry& g) : geometry(g) {
  util::check(g.kernel_h == g.kernel_w && g.kernel_h >= 1 && g.stride >= 1,
              "direct conv needs a square kernel and a stride >= 1");
  util::check(g.in_h + 2 * g.padding >= g.kernel_h &&
                  g.in_w + 2 * g.padding >= g.kernel_w,
              "direct conv input smaller than kernel");
  const std::size_t s = g.stride;
  hq = (g.in_h + 2 * g.padding + s - 1) / s;
  wq = (g.in_w + 2 * g.padding + s - 1) / s;
  plane = offset_mul(offset_mul(hq, wq), g.in_channels);
  packed_size = offset_mul(plane, s * s);
}

void DirectConv::pack(const float* image, float* packed) const {
  const tensor::ConvGeometry& g = geometry;
  const std::size_t s = g.stride, p = g.padding, w = g.in_w;
  // A stride wider than the kernel leaves planes a or b >= K unread.
  const std::size_t phases = std::min(s, g.kernel_h);
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    for (std::size_t b = 0; b < phases; ++b) {
      // Image columns x ≡ b − p (mod s), n of them from x0, land in plane
      // columns j0, j0 + 1, ... — divisions per phase, none per row.
      const std::size_t x0 = (b + s - p % s) % s;
      if (x0 >= w) continue;
      const std::size_t j0 = (x0 + p) / s;
      const std::size_t n = (w - x0 + s - 1) / s;
      std::size_t a = p % s, i = p / s;  // plane row of image row iy
      for (std::size_t iy = 0; iy < g.in_h; ++iy) {
        if (a < phases) {
          const float* src = image + (c * g.in_h + iy) * w + x0;
          float* dst = packed + (a * s + b) * plane + (c * hq + i) * wq + j0;
          if (s == 1) {
            std::copy(src, src + n, dst);
          } else if (s == 2) {
            for (std::size_t j = 0; j < n; ++j) dst[j] = src[2 * j];
          } else {
            for (std::size_t j = 0; j < n; ++j) dst[j] = src[s * j];
          }
        }
        if (++a == s) {
          a = 0;
          ++i;
        }
      }
    }
  }
}

void DirectConv::offsets(std::span<const std::uint32_t> col_idx,
                         std::uint32_t* offsets) const {
  const std::size_t k = geometry.kernel_h, s = geometry.stride;
  const auto kk = static_cast<std::uint32_t>(k * k);
  std::vector<std::uint32_t> table(kk);
  for (std::size_t kh = 0; kh < k; ++kh) {
    for (std::size_t kw = 0; kw < k; ++kw) {
      table[kh * k + kw] = static_cast<std::uint32_t>(
          ((kh % s) * s + kw % s) * plane + (kh / s) * wq + kw / s);
    }
  }
  const auto channel = static_cast<std::uint32_t>(hq * wq);
  std::uint32_t max_col = 0;
  switch (kk) {
    case 1:
      max_col = fill_offsets<1>(col_idx, table.data(), kk, channel, offsets);
      break;
    case 9:
      max_col = fill_offsets<9>(col_idx, table.data(), kk, channel, offsets);
      break;
    default:
      max_col = fill_offsets<0>(col_idx, table.data(), kk, channel, offsets);
      break;
  }
  util::check(col_idx.empty() || max_col < geometry.patch_size(),
              "direct conv: weight column outside the Cin·K·K patch");
}

std::vector<std::uint32_t> column_offsets(
    std::span<const std::uint32_t> col_idx, std::size_t cols, std::size_t n) {
  offset_mul(cols, n);
  std::vector<std::uint32_t> offsets(col_idx.size());
  for (std::size_t k = 0; k < col_idx.size(); ++k) {
    offsets[k] = static_cast<std::uint32_t>(col_idx[k] * n);
  }
  return offsets;
}

}  // namespace dstee::kernels
