#include "kernels/simd/backend.hpp"

#include <atomic>
#include <vector>

#include "util/check.hpp"
#include "util/env.hpp"

namespace dstee::kernels::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These are the historical loop nests from
// sparse/csr.cpp, verbatim — every other backend is defined as
// "bit-identical to these". Do not "improve" them: any change here moves
// the reference every SIMD test compares against.
// ---------------------------------------------------------------------------

void scalar_spmm_rows(const CsrView& a, const float* x, std::size_t batch,
                      float* out, std::size_t r0, std::size_t r1,
                      const float* bias) {
  for (std::size_t n = 0; n < batch; ++n) {
    const float* xn = x + n * a.cols;
    float* yn = out + n * a.rows;
    for (std::size_t r = r0; r < r1; ++r) {
      float acc = 0.0f;
      for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
        acc += a.values[k] * xn[a.col_idx[k]];
      }
      if (bias != nullptr) acc += bias[r];
      yn[r] = acc;
    }
  }
}

// Direct sparse convolution: the historical scalar spmm_cols loop, each
// nonzero streaming src + offsets[k] instead of the patch-matrix row
// b + col·n, over the whole swept grid [0, (height−1)·pitch + width).
// When pitch == width (spmm_cols_into) the grid is the output row itself;
// otherwise it is scratch, and the finish pass stores the valid positions.
void scalar_spconv(const SpconvArgs& a) {
  const ConvGrid& g = a.grid;
  if (g.height == 0 || g.width == 0) return;
  const std::size_t span = (g.height - 1) * g.pitch + g.width;
  const std::size_t plane = g.height * g.width;
  const bool in_place = g.pitch == g.width;
  std::vector<float> scratch(in_place ? 0 : span);
  for (std::size_t r = 0; r < a.rows; ++r) {
    float* yr = a.out + r * plane;
    float* acc = in_place ? yr : scratch.data();
    for (std::size_t j = 0; j < span; ++j) acc[j] = 0.0f;
    for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      const float v = a.values[k];
      const float* s = a.src + a.offsets[k];
      for (std::size_t j = 0; j < span; ++j) acc[j] += v * s[j];
    }
    if (a.bias != nullptr || !in_place) {
      const float bias = a.bias != nullptr ? a.bias[r] : 0.0f;
      for (std::size_t y = 0; y < g.height; ++y) {
        for (std::size_t x = 0; x < g.width; ++x) {
          float v = acc[y * g.pitch + x];
          if (a.bias != nullptr) v += bias;
          yr[y * g.width + x] = v;
        }
      }
    }
  }
}

void scalar_epilogue_range(const float* in, float* out, std::size_t i0,
                           std::size_t i1, const kernels::Epilogue& ep) {
  const float* res = ep.residual;
  for (std::size_t i = i0; i < i1; ++i) {
    float v = in[i];
    if (res != nullptr) v += res[i];
    out[i] = ep.activate(v);
  }
}

const KernelBackend kScalar{
    "scalar",      false,         scalar_spmm_rows,
    scalar_spconv, scalar_epilogue_range,
};

/// Startup resolution: widest supported backend unless the environment
/// names one. An explicit DSTEE_KERNEL_BACKEND that cannot run here is a
/// hard error — a silent scalar fallback would corrupt every measurement
/// taken under the flag.
const KernelBackend* resolve_initial_backend() {
  const std::string name = util::env_string("DSTEE_KERNEL_BACKEND", "");
  if (!name.empty()) {
    const KernelBackend* be = find_backend(name);
    util::check(be != nullptr,
                "DSTEE_KERNEL_BACKEND names an unknown or unsupported "
                "backend: " + name);
    return be;
  }
  if (const KernelBackend* be = avx512_backend()) return be;
  if (const KernelBackend* be = avx2_backend()) return be;
  return &kScalar;
}

std::atomic<const KernelBackend*>& active_slot() {
  static std::atomic<const KernelBackend*> slot{resolve_initial_backend()};
  return slot;
}

}  // namespace

const KernelBackend& scalar_backend() { return kScalar; }

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const KernelBackend* avx2_backend() {
#ifdef DSTEE_SIMD_AVX2
  return cpu_has_avx2() ? &detail::avx2_backend_impl() : nullptr;
#else
  return nullptr;
#endif
}

bool cpu_has_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  return cpu_has_avx2() && __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

const KernelBackend* avx512_backend() {
#ifdef DSTEE_SIMD_AVX512
  if (!cpu_has_avx512()) return nullptr;
  // Composed here, in a TU built without AVX-512 flags: only the spconv
  // body differs from the avx2 backend.
  static const KernelBackend be = [] {
    KernelBackend b = detail::avx2_backend_impl();
    b.name = "avx512";
    b.spconv = detail::avx512_spconv;
    return b;
  }();
  return &be;
#else
  return nullptr;
#endif
}

const KernelBackend* find_backend(const std::string& name) {
  if (name == "scalar") return &kScalar;
  if (name == "avx2") return avx2_backend();
  if (name == "avx512") return avx512_backend();
  return nullptr;
}

std::vector<std::string> available_backends() {
  std::vector<std::string> names{"scalar"};
  if (avx2_backend() != nullptr) names.emplace_back("avx2");
  if (avx512_backend() != nullptr) names.emplace_back("avx512");
  return names;
}

const KernelBackend& active_backend() { return *active_slot().load(); }

void set_active_backend(const std::string& name) {
  const KernelBackend* be = find_backend(name);
  util::check(be != nullptr,
              "unknown or unsupported kernel backend: " + name);
  active_slot().store(be);
}

}  // namespace dstee::kernels::simd
