// Runtime-dispatched sparse-kernel backends.
//
// Every hot sparse kernel in the serving stack funnels through ONE of the
// function pointers below: `sparse::CsrMatrix::spmm*`/`spconv_into` and
// their `sparse::QCsrMatrix` twins hand their loop bodies to a
// KernelBackend, and the flat `kernels::apply_epilogue` does the same for
// its elementwise tail. Three backends exist:
//
//   scalar  the historical loop nests, unchanged — the bit-identity
//           reference every other backend is tested against
//   avx2    AVX2 variants that vectorize ACROSS THE BATCH dimension
//           (spmm: one nnz broadcast against 8 samples' activations) or
//           across the unit-stride output axis (spconv, epilogue); the
//           spconv body holds a 32-position output tile of a row in four
//           ymm registers for the row's whole nonzero stream.
//   avx512  the avx2 backend with an AVX-512 spconv body: four zmm
//           accumulators over 64 positions and a masked tail.
//
// Each output element accumulates its nonzeros in exactly the scalar
// order, with a separate multiply and add per step (no FMA contraction),
// so every backend is BIT-IDENTICAL to scalar for every shape;
// sub-register tails run masked or scalar code.
//
// The active backend is resolved once at startup: CPUID feature detection
// picks the widest supported backend, and the DSTEE_KERNEL_BACKEND
// environment variable (or `dstee_serve --kernel-backend`, which calls
// set_active_backend) overrides it by name. Executor ops capture the
// backend pointer at bind time, so a bound program keeps its kernels even
// if the process-wide choice changes afterwards.
//
// Intrinsics are confined to src/kernels/simd/ (the `simd-confinement`
// lint rule enforces this); everything else talks to this header only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kernels/epilogue.hpp"

namespace dstee::kernels::simd {

/// Raw view of fp32 CSR arrays handed to backend kernels: `row_ptr`
/// holds rows+1 offsets into col_idx/values, exactly sparse::CsrMatrix's
/// arrays.
struct CsrView {
  const std::size_t* row_ptr = nullptr;
  const std::uint32_t* col_idx = nullptr;
  const float* values = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
};

/// Raw view of int8-quantized CSR arrays: values are symmetric int8 with
/// one fp32 scale per row (scales[r] belongs to row r).
struct QCsrView {
  const std::size_t* row_ptr = nullptr;
  const std::uint32_t* col_idx = nullptr;
  const std::int8_t* values = nullptr;
  const float* scales = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
};

/// The output grid of the direct sparse convolution kernel: `height`
/// rows of `pitch` positions, of which the first `width` of each row are
/// outputs, stored densely as out[y·width + x]. Grid position y·pitch + x
/// is computed for every x < pitch in the swept range [0, (height−1)·pitch
/// + width); the positions x >= width are dropped, never stored.
struct ConvGrid {
  std::size_t height = 0;
  std::size_t width = 0;
  std::size_t pitch = 0;
};

/// Arguments of KernelBackend::spconv. The weights are CSR rows with fp32
/// `values`, or — when `scales` is set — int8 `qvalues` with one fp32
/// scale per row. Nonzero k reads the source at src + offsets[k] + grid
/// position, and output row r is out[r·height·width + y·width + x].
struct SpconvArgs {
  const std::size_t* row_ptr = nullptr;
  const float* values = nullptr;
  const std::int8_t* qvalues = nullptr;
  const float* scales = nullptr;
  std::size_t rows = 0;
  const std::uint32_t* offsets = nullptr;
  const float* src = nullptr;
  ConvGrid grid;
  float* out = nullptr;
};

/// One sparse-kernel implementation set. All kernels share the epilogue
/// semantics of the scalar reference (kernels/epilogue.hpp): bias is
/// indexed by row, the batched spmm residual by
/// n * ep.residual_stride + r, the spconv residual like `out`.
struct KernelBackend {
  const char* name = "?";
  bool is_simd = false;

  /// Batched SpMM body over output rows [r0, r1) for every batch sample:
  /// out[n * a.rows + r] = ep(sum_k values[k] * x[n * a.cols + col[k]]).
  /// This is the chunk body CsrMatrix::spmm_into fans out row-wise.
  void (*spmm_rows)(const CsrView& a, const float* x, std::size_t batch,
                    float* out, std::size_t r0, std::size_t r1,
                    const kernels::Epilogue& ep) = nullptr;

  /// Quantized variant: accumulate float(int8 value) · activation in
  /// fp32, multiply the row's accumulator by scales[r] once, then apply
  /// the epilogue exactly like the fp32 kernel.
  void (*qspmm_rows)(const QCsrView& a, const float* x, std::size_t batch,
                     float* out, std::size_t r0, std::size_t r1,
                     const kernels::Epilogue& ep) = nullptr;

  /// Direct sparse convolution over a flattened output grid, fp32 or
  /// int8 (SpconvArgs): out[r, y·width + x] = ep(scale_r · sum_k value[k]
  /// · src[offsets[k] + y·pitch + x]), the sum starting from 0.0f in CSR
  /// order and the int8 row scale applied before the epilogue. With
  /// pitch == width == n, height 1 and offsets[k] = col[k]·n it is
  /// Y = A·B over a dense row-major B[cols, n] — spmm_cols_into.
  void (*spconv)(const SpconvArgs& a, const kernels::Epilogue& ep) = nullptr;

  /// Flat elementwise epilogue over [i0, i1): out[i] = ep.activate(in[i]
  /// + residual[i]). No bias (no row structure) — the chunk body of
  /// kernels::apply_epilogue.
  void (*epilogue_range)(const float* in, float* out, std::size_t i0,
                         std::size_t i1, const kernels::Epilogue& ep) =
      nullptr;
};

/// The scalar reference backend. Always available.
const KernelBackend& scalar_backend();

/// The AVX2/FMA-dispatch backend, or nullptr when the build lacks AVX2
/// support or the CPU does not report AVX2 (runtime CPUID check).
const KernelBackend* avx2_backend();

/// The AVX-512 backend (the avx2 kernels plus an AVX-512 spconv), or
/// nullptr when the build lacks AVX-512 support or the CPU does not report
/// AVX2 and AVX-512F.
const KernelBackend* avx512_backend();

/// True when the CPU reports AVX2 (independent of whether the build
/// compiled the AVX2 kernels).
bool cpu_has_avx2();

/// True when the CPU reports AVX2 and AVX-512F.
bool cpu_has_avx512();

/// Backend by name ("scalar", "avx2", "avx512"); nullptr when unknown or
/// unsupported on this machine/build.
const KernelBackend* find_backend(const std::string& name);

/// Names usable with find_backend on this machine, widest last.
std::vector<std::string> available_backends();

/// The process-wide active backend: the widest supported one, unless
/// DSTEE_KERNEL_BACKEND named another at startup or set_active_backend
/// overrode it since. Kernels use this when no explicit backend is given.
const KernelBackend& active_backend();

/// Overrides the active backend by name; fails loudly (util::CheckError)
/// on unknown names or backends this machine cannot run — a silent
/// fallback would invalidate every benchmark taken under the flag.
void set_active_backend(const std::string& name);

namespace detail {
/// Defined in avx2.cpp; referenced only when the build compiles the AVX2
/// kernels (DSTEE_SIMD_AVX2).
const KernelBackend& avx2_backend_impl();

/// Defined in avx512.cpp; referenced only when the build compiles the
/// AVX-512 kernel (DSTEE_SIMD_AVX512).
void avx512_spconv(const SpconvArgs& a, const kernels::Epilogue& ep);
}  // namespace detail

}  // namespace dstee::kernels::simd
