#include "sparse/csr.hpp"

#include <cmath>
#include <limits>

#include "kernels/direct_conv.hpp"
#include "kernels/simd/backend.hpp"
#include "util/check.hpp"

namespace dstee::sparse {

// The SIMD gather kernels consume 32-bit column indices directly; keep the
// storage type pinned so a well-meaning widening doesn't silently halve
// their throughput (and break the CsrView ABI).
static_assert(sizeof(std::uint32_t) == 4);

namespace {

kernels::simd::CsrView view_of(const CsrMatrix& m) {
  return kernels::simd::CsrView{m.row_ptr().data(), m.col_idx().data(),
                                m.values().data(), m.rows(), m.cols()};
}

const kernels::simd::KernelBackend& backend_or_active(
    const kernels::simd::KernelBackend* backend) {
  return backend != nullptr ? *backend : kernels::simd::active_backend();
}

/// The bias of `ep`, the only part of an epilogue the CSR kernels apply.
/// A residual or an activation is refused rather than dropped.
const float* bias_of(const kernels::Epilogue& ep) {
  if (ep.residual != nullptr || ep.has_act) {
    util::fail("the CSR kernels apply a bias only; run a residual or an "
               "activation through kernels::apply_epilogue");
  }
  return ep.bias;
}

}  // namespace

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {
  // Column indices are stored in 32 bits; a wider matrix would wrap
  // silently in the kernels, so reject it at construction.
  util::check(cols <= std::numeric_limits<std::uint32_t>::max(),
              "CsrMatrix column count exceeds 32-bit index range");
}

CsrMatrix CsrMatrix::from_dense(const tensor::Tensor& dense, float eps) {
  util::check(dense.rank() >= 2,
              "CSR conversion requires a tensor of rank >= 2");
  CsrMatrix m(dense.dim(0), dense.numel() / dense.dim(0));
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < dense.numel(); ++i) {
    if (std::fabs(dense[i]) > eps) ++nnz;
  }
  m.col_idx_.reserve(nnz);
  m.values_.reserve(nnz);
  for (std::size_t r = 0; r < m.rows_; ++r) {
    for (std::size_t c = 0; c < m.cols_; ++c) {
      const float v = dense[r * m.cols_ + c];
      if (std::fabs(v) > eps) {
        m.col_idx_.push_back(static_cast<std::uint32_t>(c));
        m.values_.push_back(v);
      }
    }
    m.row_ptr_[r + 1] = m.values_.size();
  }
  return m;
}

CsrMatrix CsrMatrix::from_masked(const MaskedParameter& param) {
  const tensor::Tensor& dense = param.param().value;
  util::check(dense.rank() >= 2,
              "CSR conversion requires a parameter of rank >= 2");
  const float* mask = param.mask().tensor().raw();
  const float* values = dense.raw();
  CsrMatrix m(dense.dim(0), dense.numel() / dense.dim(0));
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < dense.numel(); ++i) {
    nnz += mask[i] != 0.0f ? 1 : 0;
  }
  // Every slot is stored at the next free entry, which advances only
  // past an active one: no branch per slot. The last inactive slots land
  // in one spare entry, dropped at the end.
  m.col_idx_.resize(nnz + 1);
  m.values_.resize(nnz + 1);
  std::uint32_t* col_out = m.col_idx_.data();
  float* value_out = m.values_.data();
  std::size_t k = 0;
  for (std::size_t r = 0; r < m.rows_; ++r) {
    const std::size_t row = r * m.cols_;
    for (std::size_t c = 0; c < m.cols_; ++c) {
      col_out[k] = static_cast<std::uint32_t>(c);
      value_out[k] = values[row + c];
      k += mask[row + c] != 0.0f ? 1 : 0;
    }
    m.row_ptr_[r + 1] = k;
  }
  m.col_idx_.resize(nnz);
  m.values_.resize(nnz);
  return m;
}

std::optional<CsrMatrix> CsrMatrix::from_masked_edit(
    const CsrMatrix& base, const tensor::Tensor& dense,
    std::span<const std::size_t> removed,
    std::span<const std::pair<std::size_t, float>> added,
    std::span<const std::pair<std::size_t, float>> changed) {
  util::check(dense.numel() == base.rows_ * base.cols_,
              "from_masked_edit: weight tensor does not match the base "
              "matrix");
  if (removed.size() > base.nnz()) return std::nullopt;

  CsrMatrix m(base.rows_, base.cols_);
  const std::size_t nnz = base.nnz() - removed.size() + added.size();
  m.col_idx_.resize(nnz);
  m.values_.resize(nnz);
  std::uint32_t* col_out = m.col_idx_.data();
  float* value_out = m.values_.data();
  const float* values = dense.raw();
  // The next position of each list; an exhausted list reads as past
  // every position. A removed or changed list that is not strictly
  // ascending leaves its next position at or behind the base position
  // just passed, which the checks below reject; an added list is checked
  // as it is emitted.
  constexpr std::size_t kDone = std::numeric_limits<std::size_t>::max();
  std::size_t ri = 0, ai = 0, ci = 0;
  std::size_t next_removed = removed.empty() ? kDone : removed[0];
  std::size_t next_added = added.empty() ? kDone : added[0].first;
  std::size_t next_changed = changed.empty() ? kDone : changed[0].first;
  std::size_t k = 0;
  // Emits every added position before `end`; false when the list does
  // not ascend or would overrun the entries a fitting edit leaves.
  const auto emit_added = [&](std::size_t row, std::size_t end) {
    for (; next_added < end; ++ai) {
      if (k == nnz) return false;
      const std::size_t p = next_added;
      col_out[k] = static_cast<std::uint32_t>(p - row);
      value_out[k++] = added[ai].second;
      next_added = ai + 1 < added.size() ? added[ai + 1].first : kDone;
      if (next_added <= p) return false;
    }
    return true;
  };
  for (std::size_t r = 0; r < base.rows_; ++r) {
    const std::size_t row = r * base.cols_;
    for (std::size_t b = base.row_ptr_[r]; b < base.row_ptr_[r + 1]; ++b) {
      const std::size_t p = row + base.col_idx_[b];
      if (next_added <= p && (!emit_added(row, p) || next_added == p)) {
        return std::nullopt;
      }
      if (next_removed <= p) {
        if (next_removed < p) return std::nullopt;
        ++ri;
        next_removed = ri < removed.size() ? removed[ri] : kDone;
        continue;
      }
      if (k == nnz) return std::nullopt;
      col_out[k] = base.col_idx_[b];
      if (next_changed <= p) {
        if (next_changed < p) return std::nullopt;
        value_out[k++] = changed[ci++].second;
        next_changed = ci < changed.size() ? changed[ci].first : kDone;
      } else {
        value_out[k++] = values[p];
      }
    }
    const std::size_t end = row + base.cols_;
    if (!emit_added(row, end) || next_removed < end || next_changed < end) {
      return std::nullopt;
    }
    m.row_ptr_[r + 1] = k;
  }
  // A position past the last row fits no row.
  if (ri < removed.size() || ai < added.size() || ci < changed.size()) {
    return std::nullopt;
  }
  return m;
}

double CsrMatrix::density() const {
  const double total = static_cast<double>(rows_) * static_cast<double>(cols_);
  return total > 0.0 ? static_cast<double>(nnz()) / total : 0.0;
}

tensor::Tensor CsrMatrix::matvec(const tensor::Tensor& x) const {
  util::check(x.numel() == cols_, "matvec input size must equal cols");
  tensor::Tensor y({rows_});
  for (std::size_t r = 0; r < rows_; ++r) {
    float acc = 0.0f;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      acc += values_[k] * x[col_idx_[k]];
    }
    y[r] = acc;
  }
  return y;
}

tensor::Tensor CsrMatrix::matmul_nt(const tensor::Tensor& x) const {
  return spmm(x, 1);
}

tensor::Tensor CsrMatrix::spmm(const tensor::Tensor& x,
                               const runtime::IntraOp& intra,
                               const kernels::Epilogue& ep,
                               const kernels::simd::KernelBackend* backend)
    const {
  tensor::Tensor y({x.rank() == 2 ? x.dim(0) : 0, rows_});
  spmm_into(x, y.raw(), intra, ep, backend);
  return y;
}

void CsrMatrix::spmm_into(const tensor::Tensor& x, float* out,
                          const runtime::IntraOp& intra,
                          const kernels::Epilogue& ep,
                          const kernels::simd::KernelBackend* backend) const {
  util::check(x.rank() == 2 && x.dim(1) == cols_,
              "spmm expects [batch, cols]");
  const float* bias = bias_of(ep);
  const std::size_t batch = x.dim(0);
  const kernels::simd::KernelBackend& be = backend_or_active(backend);
  const kernels::simd::CsrView a = view_of(*this);

  // One worker computes output rows [r0, r1) for every batch sample: the
  // chunk's values/col_idx stream stays hot across samples and each
  // output element has exactly one writer. Backends add the bias before
  // the store and are bit-identical to each other, so results don't
  // depend on dispatch.
  runtime::intra_chunks(intra, rows_, [&](std::size_t r0, std::size_t r1) {
    be.spmm_rows(a, x.raw(), batch, out, r0, r1, bias);
  });
}

tensor::Tensor CsrMatrix::spmm(const tensor::Tensor& x,
                               std::size_t num_threads) const {
  return spmm(x, runtime::IntraOp{num_threads, nullptr});
}

tensor::Tensor CsrMatrix::spmm_cols(const tensor::Tensor& cols) const {
  tensor::Tensor y({rows_, cols.rank() == 2 ? cols.dim(1) : 0});
  spmm_cols_into(cols, y.raw());
  return y;
}

void CsrMatrix::spmm_cols_into(const tensor::Tensor& cols, float* out,
                               const kernels::Epilogue& ep,
                               const kernels::simd::KernelBackend* backend)
    const {
  util::check(cols.rank() == 2 && cols.dim(0) == cols_,
              "spmm_cols expects [cols, n]");
  spmm_cols_into(cols.raw(), cols.dim(1), out, ep, backend);
}

void CsrMatrix::spmm_cols_into(const float* b, std::size_t n, float* out,
                               const kernels::Epilogue& ep,
                               const kernels::simd::KernelBackend* backend)
    const {
  spconv_into(b, kernels::column_offsets(col_idx_, cols_, n), {1, n, n}, out,
              ep, backend);
}

void CsrMatrix::spconv_into(const float* src,
                            std::span<const std::uint32_t> offsets,
                            const kernels::simd::ConvGrid& grid, float* out,
                            const kernels::Epilogue& ep,
                            const kernels::simd::KernelBackend* backend)
    const {
  util::check(offsets.size() == nnz(),
              "spconv expects one offset per nonzero");
  util::check(grid.pitch >= grid.width,
              "spconv grid pitch is narrower than its width");
  kernels::simd::SpconvArgs a;
  a.row_ptr = row_ptr_.data();
  a.values = values_.data();
  a.rows = rows_;
  a.offsets = offsets.data();
  a.src = src;
  a.grid = grid;
  a.out = out;
  a.bias = bias_of(ep);
  backend_or_active(backend).spconv(a);
}

void CsrMatrix::scale_rows(std::span<const float> scale) {
  util::check(scale.size() == rows_,
              "scale_rows requires one factor per row");
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      values_[k] *= scale[r];
    }
  }
}

tensor::Tensor CsrMatrix::to_dense() const {
  tensor::Tensor dense({rows_, cols_});
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      dense[r * cols_ + col_idx_[k]] = values_[k];
    }
  }
  return dense;
}

}  // namespace dstee::sparse
