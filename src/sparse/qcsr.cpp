#include "sparse/qcsr.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/direct_conv.hpp"
#include "kernels/simd/backend.hpp"
#include "sparse/csr.hpp"
#include "util/check.hpp"

namespace dstee::sparse {

namespace {

kernels::simd::QCsrView view_of(const QCsrMatrix& m) {
  return kernels::simd::QCsrView{m.row_ptr().data(), m.col_idx().data(),
                                 m.values().data(), m.scales().data(),
                                 m.rows(), m.cols()};
}

const kernels::simd::KernelBackend& backend_or_active(
    const kernels::simd::KernelBackend* backend) {
  return backend != nullptr ? *backend : kernels::simd::active_backend();
}

}  // namespace

QCsrMatrix QCsrMatrix::quantize(const CsrMatrix& src) {
  QCsrMatrix q(src.rows(), src.cols());
  q.row_ptr_ = src.row_ptr();
  q.col_idx_ = src.col_idx();
  q.values_.resize(src.nnz());
  q.scales_.resize(src.rows());
  const auto& values = src.values();
  for (std::size_t r = 0; r < src.rows(); ++r) {
    float amax = 0.0f;
    for (std::size_t k = q.row_ptr_[r]; k < q.row_ptr_[r + 1]; ++k) {
      amax = std::max(amax, std::fabs(values[k]));
    }
    // All-zero (or empty) rows quantize to zeros under any scale; 1.0
    // keeps dequantization well-defined without a special case.
    const float scale = amax > 0.0f ? amax / 127.0f : 1.0f;
    q.scales_[r] = scale;
    for (std::size_t k = q.row_ptr_[r]; k < q.row_ptr_[r + 1]; ++k) {
      // Round-to-nearest; |v| <= amax guarantees the quotient is in
      // [-127, 127], so no clamp is needed.
      q.values_[k] =
          static_cast<std::int8_t>(std::lround(values[k] / scale));
    }
  }
  return q;
}

double QCsrMatrix::density() const {
  const double total = static_cast<double>(rows_) * static_cast<double>(cols_);
  return total > 0.0 ? static_cast<double>(nnz()) / total : 0.0;
}

tensor::Tensor QCsrMatrix::spmm(
    const tensor::Tensor& x, const runtime::IntraOp& intra,
    const kernels::Epilogue& ep,
    const kernels::simd::KernelBackend* backend) const {
  tensor::Tensor y({x.rank() == 2 ? x.dim(0) : 0, rows_});
  spmm_into(x, y.raw(), intra, ep, backend);
  return y;
}

void QCsrMatrix::spmm_into(
    const tensor::Tensor& x, float* out, const runtime::IntraOp& intra,
    const kernels::Epilogue& ep,
    const kernels::simd::KernelBackend* backend) const {
  util::check(x.rank() == 2 && x.dim(1) == cols_,
              "spmm expects [batch, cols]");
  util::check(ep.residual == nullptr || ep.residual_stride > 0,
              "spmm fused residual requires residual_stride");
  const std::size_t batch = x.dim(0);
  const kernels::simd::KernelBackend& be = backend_or_active(backend);
  const kernels::simd::QCsrView a = view_of(*this);
  runtime::intra_chunks(intra, rows_, [&](std::size_t r0, std::size_t r1) {
    be.qspmm_rows(a, x.raw(), batch, out, r0, r1, ep);
  });
}

void QCsrMatrix::spmm_cols_into(
    const tensor::Tensor& cols, float* out, const kernels::Epilogue& ep,
    const kernels::simd::KernelBackend* backend) const {
  util::check(cols.rank() == 2 && cols.dim(0) == cols_,
              "spmm_cols expects [cols, n]");
  spmm_cols_into(cols.raw(), cols.dim(1), out, ep, backend);
}

void QCsrMatrix::spmm_cols_into(
    const float* b, std::size_t n, float* out, const kernels::Epilogue& ep,
    const kernels::simd::KernelBackend* backend) const {
  spconv_into(b, kernels::column_offsets(col_idx_, cols_, n), {1, n, n}, out,
              ep, backend);
}

void QCsrMatrix::spconv_into(
    const float* src, std::span<const std::uint32_t> offsets,
    const kernels::simd::ConvGrid& grid, float* out,
    const kernels::Epilogue& ep,
    const kernels::simd::KernelBackend* backend) const {
  util::check(offsets.size() == nnz(),
              "spconv expects one offset per nonzero");
  util::check(grid.pitch >= grid.width,
              "spconv grid pitch is narrower than its width");
  kernels::simd::SpconvArgs a;
  a.row_ptr = row_ptr_.data();
  a.qvalues = values_.data();
  a.scales = scales_.data();
  a.rows = rows_;
  a.offsets = offsets.data();
  a.src = src;
  a.grid = grid;
  a.out = out;
  backend_or_active(backend).spconv(a, ep);
}

tensor::Tensor QCsrMatrix::to_dense() const {
  tensor::Tensor dense({rows_, cols_});
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      dense[r * cols_ + col_idx_[k]] =
          scales_[r] * static_cast<float>(values_[k]);
    }
  }
  return dense;
}

std::size_t QCsrMatrix::weight_bytes() const {
  return values_.size() * sizeof(std::int8_t) +
         col_idx_.size() * sizeof(std::uint32_t) +
         scales_.size() * sizeof(float) +
         row_ptr_.size() * sizeof(std::size_t);
}

}  // namespace dstee::sparse
