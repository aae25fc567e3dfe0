// AVX2 sparse kernels — bit-identical to the scalar reference.
//
// Strategy: vectorize across a dimension where the SCALAR kernel already
// performs eight independent, identical op sequences — the batch axis for
// the row-major SpMM (eight samples share one values/col_idx stream; the
// activations are gathered with a row-stride index vector) and the
// flattened output grid for spconv / the flat epilogue. Each SIMD
// lane then executes exactly the scalar per-element op sequence: separate
// _mm256_mul_ps + _mm256_add_ps per nonzero (never FMA — the scalar
// reference contracts nothing, and this file is built with
// -ffp-contract=off so the compiler cannot fuse them either), bias before
// residual before activation. Batch lanes that don't exist (batch % 8)
// fall back to the scalar backend; grid positions past the swept range
// are masked off.
//
// ReLU uses _mm256_max_ps(v, +0.0f), which matches `v > 0 ? v : 0` bit
// for bit including v = -0.0 (max returns the second operand on equal
// compare) and v = NaN (maxps propagates the second operand). LeakyReLU
// uses an ordered-quiet greater-than compare + blend. Sigmoid/tanh call
// the scalar activate per lane — std::exp has no vector contract.
//
// _mm256_i32gather_ps indexes are 32-bit: strides beyond 2^28 elements
// could overflow lane 7, so such shapes (absent in practice — that is a
// >1 GiB activation row) take the scalar path entirely.
#ifdef DSTEE_SIMD_AVX2

#include <immintrin.h>

#include <cstdint>

#include "kernels/simd/backend.hpp"

namespace dstee::kernels::simd {

namespace {

/// Largest element stride a 32-bit gather index can address from lane 7
/// with headroom (8 * 2^28 = 2^31). Shapes beyond this run scalar.
constexpr std::size_t kMaxGatherStride = std::size_t{1} << 28;

/// Lane offsets {0, stride, ..., 7*stride} for strided gathers.
inline __m256i lane_offsets(std::size_t stride) {
  const int s = static_cast<int>(stride);
  return _mm256_setr_epi32(0, s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s, 7 * s);
}

/// ep.activate() over eight lanes, bit-identical per lane.
inline __m256 act8(__m256 v, const kernels::Epilogue& ep) {
  if (!ep.has_act) return v;
  switch (ep.act) {
    case kernels::ActKind::kRelu:
      return _mm256_max_ps(v, _mm256_setzero_ps());
    case kernels::ActKind::kLeakyRelu: {
      const __m256 gt =
          _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ);
      const __m256 neg = _mm256_mul_ps(_mm256_set1_ps(ep.slope), v);
      return _mm256_blendv_ps(neg, v, gt);
    }
    case kernels::ActKind::kSigmoid:
    case kernels::ActKind::kTanh: {
      alignas(32) float tmp[8];
      _mm256_store_ps(tmp, v);
      for (int i = 0; i < 8; ++i) tmp[i] = ep.activate(tmp[i]);
      return _mm256_load_ps(tmp);
    }
  }
  return v;  // unreachable
}

// ---------------------------------------------------------------------------
// Batched SpMM over rows: eight batch samples per iteration, one nnz
// broadcast against eight gathered activations.
// ---------------------------------------------------------------------------

template <typename View, bool kQuantized>
void avx2_spmm_rows_impl(const View& a, const float* x, std::size_t batch,
                         float* out, std::size_t r0, std::size_t r1,
                         const kernels::Epilogue& ep) {
  if (a.cols > kMaxGatherStride ||
      (ep.residual != nullptr && ep.residual_stride > kMaxGatherStride)) {
    if constexpr (kQuantized) {
      scalar_backend().qspmm_rows(a, x, batch, out, r0, r1, ep);
    } else {
      scalar_backend().spmm_rows(a, x, batch, out, r0, r1, ep);
    }
    return;
  }

  const __m256i xlane = lane_offsets(a.cols);
  const __m256i rlane =
      ep.residual != nullptr ? lane_offsets(ep.residual_stride)
                             : _mm256_setzero_si256();

  std::size_t n0 = 0;
  for (; n0 + 8 <= batch; n0 += 8) {
    const float* xn = x + n0 * a.cols;
    const float* resn = ep.residual != nullptr
                            ? ep.residual + n0 * ep.residual_stride
                            : nullptr;
    for (std::size_t r = r0; r < r1; ++r) {
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
        const __m256i idx = _mm256_add_epi32(
            xlane, _mm256_set1_epi32(static_cast<int>(a.col_idx[k])));
        const __m256 xv = _mm256_i32gather_ps(xn, idx, 4);
        const __m256 vv = [&] {
          if constexpr (kQuantized) {
            return _mm256_set1_ps(static_cast<float>(a.values[k]));
          } else {
            return _mm256_set1_ps(a.values[k]);
          }
        }();
        acc = _mm256_add_ps(acc, _mm256_mul_ps(vv, xv));
      }
      if constexpr (kQuantized) {
        acc = _mm256_mul_ps(acc, _mm256_set1_ps(a.scales[r]));
      }
      if (ep.bias != nullptr) {
        acc = _mm256_add_ps(acc, _mm256_set1_ps(ep.bias[r]));
      }
      if (resn != nullptr) {
        acc = _mm256_add_ps(acc, _mm256_i32gather_ps(resn + r, rlane, 4));
      }
      acc = act8(acc, ep);
      alignas(32) float tmp[8];
      _mm256_store_ps(tmp, acc);
      float* yn = out + n0 * a.rows + r;
      for (std::size_t i = 0; i < 8; ++i) yn[i * a.rows] = tmp[i];
    }
  }

  if (n0 < batch) {
    kernels::Epilogue tail = ep;
    if (tail.residual != nullptr) {
      tail.residual += n0 * tail.residual_stride;
    }
    if constexpr (kQuantized) {
      scalar_backend().qspmm_rows(a, x + n0 * a.cols, batch - n0,
                                  out + n0 * a.rows, r0, r1, tail);
    } else {
      scalar_backend().spmm_rows(a, x + n0 * a.cols, batch - n0,
                                 out + n0 * a.rows, r0, r1, tail);
    }
  }
}

void avx2_spmm_rows(const CsrView& a, const float* x, std::size_t batch,
                    float* out, std::size_t r0, std::size_t r1,
                    const kernels::Epilogue& ep) {
  avx2_spmm_rows_impl<CsrView, false>(a, x, batch, out, r0, r1, ep);
}

void avx2_qspmm_rows(const QCsrView& a, const float* x, std::size_t batch,
                     float* out, std::size_t r0, std::size_t r1,
                     const kernels::Epilogue& ep) {
  avx2_spmm_rows_impl<QCsrView, true>(a, x, batch, out, r0, r1, ep);
}

// ---------------------------------------------------------------------------
// Direct sparse convolution (and spmm_cols_into, its pitch == width case):
// vectorize the flattened output grid. A 32-position tile of one output
// row lives in four ymm accumulators for the row's whole nonzero stream,
// so the output is stored once instead of once per nonzero; each lane
// keeps the scalar k-order. The last, partial tile masks its loads, so no
// load reaches past the swept range.
// ---------------------------------------------------------------------------

/// Writes the finished values of grid positions [p, p + n), held in
/// acc[0, n), to their output slots; (y, x) is p's grid coordinate.
/// Positions x >= width are dropped. Each stored
/// run gets scale (int8 only), bias, residual and activation, 8 lanes
/// at a time with a scalar tail.
template <bool kQuantized>
void store_runs(const float* acc, std::size_t n, std::size_t y,
                std::size_t x, const ConvGrid& g, float* yr,
                const float* res, float scale, float bias,
                const kernels::Epilogue& ep) {
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vbias = _mm256_set1_ps(bias);
  std::size_t i = 0;
  while (i < n) {
    const std::size_t avail = n - i;
    if (x < g.width) {
      const std::size_t run = g.width - x < avail ? g.width - x : avail;
      const std::size_t o = y * g.width + x;
      const float* ai = acc + i;
      float* out = yr + o;
      const float* ro = res != nullptr ? res + o : nullptr;
      std::size_t j = 0;
      for (; j + 8 <= run; j += 8) {
        __m256 v = _mm256_loadu_ps(ai + j);
        if constexpr (kQuantized) v = _mm256_mul_ps(v, vscale);
        if (ep.bias != nullptr) v = _mm256_add_ps(v, vbias);
        if (ro != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(ro + j));
        _mm256_storeu_ps(out + j, act8(v, ep));
      }
      for (; j < run; ++j) {
        float v = ai[j];
        if constexpr (kQuantized) v *= scale;
        if (ep.bias != nullptr) v += bias;
        if (ro != nullptr) v += ro[j];
        out[j] = ep.activate(v);
      }
      i += run;
      x += run;
    } else {
      const std::size_t skip = g.pitch - x < avail ? g.pitch - x : avail;
      i += skip;
      x += skip;
    }
    if (x == g.pitch) {
      x = 0;
      ++y;
    }
  }
}

/// Sums row r's nonzeros over grid positions [p, p + 8·kVecs) into
/// tile[0, 8·kVecs): kVecs ymm accumulators for the row's whole nonzero
/// stream, each lane in the scalar k-order. With kMaskLast the last
/// vector loads only the lanes set in `last` (a masked-off lane reads no
/// memory), so a partial tile never reads past the swept grid.
template <bool kQuantized, int kVecs, bool kMaskLast>
void accumulate(const SpconvArgs& a, std::size_t r, std::size_t p,
                __m256i last, float* tile) {
  __m256 acc[kVecs];
  for (int v = 0; v < kVecs; ++v) acc[v] = _mm256_setzero_ps();
  for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
    const __m256 vv = _mm256_set1_ps(
        kQuantized ? static_cast<float>(a.qvalues[k]) : a.values[k]);
    const float* s = a.src + a.offsets[k] + p;
    for (int v = 0; v < kVecs; ++v) {
      const __m256 x = kMaskLast && v == kVecs - 1
                           ? _mm256_maskload_ps(s + 8 * v, last)
                           : _mm256_loadu_ps(s + 8 * v);
      acc[v] = _mm256_add_ps(acc[v], _mm256_mul_ps(vv, x));
    }
  }
  for (int v = 0; v < kVecs; ++v) _mm256_store_ps(tile + 8 * v, acc[v]);
}

template <bool kQuantized>
void avx2_spconv_impl(const SpconvArgs& a, const kernels::Epilogue& ep) {
  const ConvGrid& g = a.grid;
  if (g.height == 0 || g.width == 0) return;
  const std::size_t span = (g.height - 1) * g.pitch + g.width;
  const std::size_t plane = g.height * g.width;
  const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  alignas(32) float tile[32];
  // Tile-major: every row of one 32-position tile before the next tile,
  // so the source window the tile reads stays in L1 across the rows.
  std::size_t ty = 0, tx = 0;  // grid coordinate of the tile's start
  for (std::size_t p = 0; p < span; p += 32) {
    const std::size_t n = span - p < 32 ? span - p : 32;
    // The partial last tile: ceil(n/8) vectors, the last one masked.
    const std::size_t vecs = (n + 7) / 8;
    const __m256i last = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(n - 8 * (vecs - 1))), lanes);
    for (std::size_t r = 0; r < a.rows; ++r) {
      if (n == 32) {
        accumulate<kQuantized, 4, false>(a, r, p, last, tile);
      } else if (vecs == 4) {
        accumulate<kQuantized, 4, true>(a, r, p, last, tile);
      } else if (vecs == 3) {
        accumulate<kQuantized, 3, true>(a, r, p, last, tile);
      } else if (vecs == 2) {
        accumulate<kQuantized, 2, true>(a, r, p, last, tile);
      } else {
        accumulate<kQuantized, 1, true>(a, r, p, last, tile);
      }
      store_runs<kQuantized>(
          tile, n, ty, tx, g, a.out + r * plane,
          ep.residual != nullptr ? ep.residual + r * plane : nullptr,
          kQuantized ? a.scales[r] : 1.0f,
          ep.bias != nullptr ? ep.bias[r] : 0.0f, ep);
    }
    tx += n;
    ty += tx / g.pitch;
    tx %= g.pitch;
  }
}

void avx2_spconv(const SpconvArgs& a, const kernels::Epilogue& ep) {
  if (a.scales != nullptr) {
    avx2_spconv_impl<true>(a, ep);
  } else {
    avx2_spconv_impl<false>(a, ep);
  }
}

// ---------------------------------------------------------------------------
// Flat elementwise epilogue: out[i] = act(in[i] + residual[i]).
// ---------------------------------------------------------------------------

void avx2_epilogue_range(const float* in, float* out, std::size_t i0,
                         std::size_t i1, const kernels::Epilogue& ep) {
  const float* res = ep.residual;
  std::size_t i = i0;
  for (; i + 8 <= i1; i += 8) {
    __m256 v = _mm256_loadu_ps(in + i);
    if (res != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(res + i));
    _mm256_storeu_ps(out + i, act8(v, ep));
  }
  for (; i < i1; ++i) {
    float v = in[i];
    if (res != nullptr) v += res[i];
    out[i] = ep.activate(v);
  }
}

const KernelBackend kAvx2{
    "avx2",          true,        avx2_spmm_rows,
    avx2_qspmm_rows, avx2_spconv, avx2_epilogue_range,
};

}  // namespace

namespace detail {
const KernelBackend& avx2_backend_impl() { return kAvx2; }
}  // namespace detail

}  // namespace dstee::kernels::simd

#endif  // DSTEE_SIMD_AVX2
