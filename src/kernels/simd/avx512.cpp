// AVX-512 direct sparse convolution — bit-identical to the scalar reference.
//
// The avx512 backend is the avx2 backend with this spconv body (composed
// in backend.cpp). The strategy is the AVX2 body's: a 64-position tile of
// one output row lives in four zmm accumulators for the row's whole
// nonzero stream; every lane executes the scalar per-element op sequence,
// a separate _mm512_mul_ps + _mm512_add_ps per nonzero (never FMA — this
// file is built with -ffp-contract=off), then scale (int8), bias,
// residual and activation as each valid position is stored. The last,
// partial tile uses masked loads: a masked-off lane reads no memory, so
// no load reaches past the swept grid.
//
// ReLU and LeakyReLU keep the AVX2 lane contracts (max with +0.0f as the
// second operand; an ordered greater-than compare + blend). Sigmoid/tanh
// run the scalar backend's epilogue over each 16 lanes: std::exp has no
// vector contract, and calling header inline code from here would compile
// a copy of it with AVX-512 enabled that the linker may pick for callers
// on any CPU.
#ifdef DSTEE_SIMD_AVX512

#include <immintrin.h>

#include <cstdint>

#include "kernels/simd/backend.hpp"

namespace dstee::kernels::simd {

namespace {

/// Mask of the first `count` lanes (all 16 when count >= 16).
inline __mmask16 first_lanes(std::size_t count) {
  return count >= 16 ? static_cast<__mmask16>(0xFFFF)
                     : static_cast<__mmask16>((1u << count) - 1u);
}

/// ep.activate() over sixteen lanes, bit-identical per lane. `act_only`
/// is ep without its bias/residual pointers, for the scalar fallback.
inline __m512 act16(__m512 v, const kernels::Epilogue& ep,
                    const kernels::Epilogue& act_only) {
  if (!ep.has_act) return v;
  switch (ep.act) {
    case kernels::ActKind::kRelu:
      // The zero-masked form: GCC 12 flags the plain one's undefined
      // pass-through operand as maybe-uninitialized. Same vmaxps.
      return _mm512_maskz_max_ps(first_lanes(16), v, _mm512_setzero_ps());
    case kernels::ActKind::kLeakyRelu: {
      const __mmask16 gt =
          _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_GT_OQ);
      const __m512 neg = _mm512_mul_ps(_mm512_set1_ps(ep.slope), v);
      return _mm512_mask_blend_ps(gt, neg, v);
    }
    case kernels::ActKind::kSigmoid:
    case kernels::ActKind::kTanh: {
      alignas(64) float tmp[16];
      _mm512_store_ps(tmp, v);
      scalar_backend().epilogue_range(tmp, tmp, 0, 16, act_only);
      return _mm512_load_ps(tmp);
    }
  }
  return v;  // unreachable
}

/// Writes the finished values of grid positions [p, p + n), held in
/// acc[0, n), to their output slots; (y, x) is p's grid coordinate.
/// Positions x >= width are dropped. Each stored
/// run gets scale (int8 only), bias, residual and activation, 16 lanes
/// at a time with a masked tail.
template <bool kQuantized>
void store_runs(const float* acc, std::size_t n, std::size_t y,
                std::size_t x, const ConvGrid& g, float* yr,
                const float* res, __m512 vscale, __m512 vbias,
                const kernels::Epilogue& ep,
                const kernels::Epilogue& act_only) {
  std::size_t i = 0;
  while (i < n) {
    const std::size_t avail = n - i;
    if (x < g.width) {
      const std::size_t run = g.width - x < avail ? g.width - x : avail;
      const std::size_t o = y * g.width + x;
      for (std::size_t j = 0; j < run; j += 16) {
        const __mmask16 m = first_lanes(run - j);
        __m512 v = _mm512_maskz_loadu_ps(m, acc + i + j);
        if constexpr (kQuantized) v = _mm512_mul_ps(v, vscale);
        if (ep.bias != nullptr) v = _mm512_add_ps(v, vbias);
        if (res != nullptr) {
          v = _mm512_add_ps(v, _mm512_maskz_loadu_ps(m, res + o + j));
        }
        _mm512_mask_storeu_ps(yr + o + j, m, act16(v, ep, act_only));
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

template <bool kQuantized>
void avx512_spconv_impl(const SpconvArgs& a, const kernels::Epilogue& ep) {
  const ConvGrid& g = a.grid;
  if (g.height == 0 || g.width == 0) return;
  const std::size_t span = (g.height - 1) * g.pitch + g.width;
  const std::size_t plane = g.height * g.width;
  kernels::Epilogue act_only = ep;
  act_only.bias = nullptr;
  act_only.residual = nullptr;
  alignas(64) float tile[64];
  // Tile-major: every row of one 64-position tile before the next tile,
  // so the source window the tile reads stays in L1 across the rows.
  std::size_t ty = 0, tx = 0;  // grid coordinate of the tile's start
  for (std::size_t p = 0; p < span; p += 64) {
    const std::size_t n = span - p < 64 ? span - p : 64;
    const __mmask16 m0 = first_lanes(n);
    const __mmask16 m1 = n > 16 ? first_lanes(n - 16) : 0;
    const __mmask16 m2 = n > 32 ? first_lanes(n - 32) : 0;
    const __mmask16 m3 = n > 48 ? first_lanes(n - 48) : 0;
    for (std::size_t r = 0; r < a.rows; ++r) {
      const std::size_t k0 = a.row_ptr[r], k1 = a.row_ptr[r + 1];
      const auto value = [&](std::size_t k) {
        if constexpr (kQuantized) {
          return _mm512_set1_ps(static_cast<float>(a.qvalues[k]));
        } else {
          return _mm512_set1_ps(a.values[k]);
        }
      };
      __m512 acc0 = _mm512_setzero_ps(), acc1 = _mm512_setzero_ps();
      __m512 acc2 = _mm512_setzero_ps(), acc3 = _mm512_setzero_ps();
      if (n == 64) {
        for (std::size_t k = k0; k < k1; ++k) {
          const __m512 vv = value(k);
          const float* s = a.src + a.offsets[k] + p;
          acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(vv, _mm512_loadu_ps(s)));
          acc1 = _mm512_add_ps(acc1,
                               _mm512_mul_ps(vv, _mm512_loadu_ps(s + 16)));
          acc2 = _mm512_add_ps(acc2,
                               _mm512_mul_ps(vv, _mm512_loadu_ps(s + 32)));
          acc3 = _mm512_add_ps(acc3,
                               _mm512_mul_ps(vv, _mm512_loadu_ps(s + 48)));
        }
      } else {
        // The partial last tile: masked loads over the n < 64 positions
        // left; sub-vectors past them are never addressed.
        for (std::size_t k = k0; k < k1; ++k) {
          const __m512 vv = value(k);
          const float* s = a.src + a.offsets[k] + p;
          acc0 = _mm512_add_ps(
              acc0, _mm512_mul_ps(vv, _mm512_maskz_loadu_ps(m0, s)));
          if (n > 16) {
            acc1 = _mm512_add_ps(
                acc1, _mm512_mul_ps(vv, _mm512_maskz_loadu_ps(m1, s + 16)));
          }
          if (n > 32) {
            acc2 = _mm512_add_ps(
                acc2, _mm512_mul_ps(vv, _mm512_maskz_loadu_ps(m2, s + 32)));
          }
          if (n > 48) {
            acc3 = _mm512_add_ps(
                acc3, _mm512_mul_ps(vv, _mm512_maskz_loadu_ps(m3, s + 48)));
          }
        }
      }
      _mm512_store_ps(tile, acc0);
      _mm512_store_ps(tile + 16, acc1);
      _mm512_store_ps(tile + 32, acc2);
      _mm512_store_ps(tile + 48, acc3);
      store_runs<kQuantized>(
          tile, n, ty, tx, g, a.out + r * plane,
          ep.residual != nullptr ? ep.residual + r * plane : nullptr,
          _mm512_set1_ps(kQuantized ? a.scales[r] : 1.0f),
          _mm512_set1_ps(ep.bias != nullptr ? ep.bias[r] : 0.0f), ep,
          act_only);
    }
    tx += n;
    ty += tx / g.pitch;
    tx %= g.pitch;
  }
}

}  // namespace

namespace detail {
void avx512_spconv(const SpconvArgs& a, const kernels::Epilogue& ep) {
  if (a.scales != nullptr) {
    avx512_spconv_impl<true>(a, ep);
  } else {
    avx512_spconv_impl<false>(a, ep);
  }
}
}  // namespace detail

}  // namespace dstee::kernels::simd

#endif  // DSTEE_SIMD_AVX512
