#include "tensor/matmul.hpp"

#include "util/check.hpp"

namespace dstee::tensor {

namespace {

// i-k-j loop order: the inner loop runs contiguously over B's and C's rows,
// which vectorizes well and is cache-friendly for row-major storage.
void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float a_ip = a[i * k + p];
      if (a_ip == 0.0f) continue;  // masked-weight rows stay cheap
      const float* b_row = b + p * n;
      for (std::size_t j = 0; j < n; ++j) c_row[j] += a_ip * b_row[j];
    }
  }
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  util::check(a.rank() == 2 && b.rank() == 2, "matmul requires rank-2 inputs");
  if (a.dim(1) != b.dim(0)) {
    util::fail("matmul inner dimensions must agree: " + a.shape().to_string() +
               " x " + b.shape().to_string());
  }
  Tensor c({a.dim(0), b.dim(1)});
  gemm(a.raw(), b.raw(), c.raw(), a.dim(0), a.dim(1), b.dim(1));
  return c;
}

void matmul_accumulate(const Tensor& a, const Tensor& b, Tensor& c) {
  util::check(a.rank() == 2 && b.rank() == 2, "matmul requires rank-2 inputs");
  util::check(a.dim(1) == b.dim(0), "matmul inner dimensions must agree");
  util::check(c.rank() == 2 && c.dim(0) == a.dim(0) && c.dim(1) == b.dim(1),
              "accumulator shape mismatch");
  gemm(a.raw(), b.raw(), c.raw(), a.dim(0), a.dim(1), b.dim(1));
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  util::check(a.rank() == 2 && b.rank() == 2, "matmul_nt requires rank-2 inputs");
  util::check(a.dim(1) == b.dim(1), "matmul_nt inner dimensions must agree");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a.raw() + i * k;
    float* c_row = c.raw() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* b_row = b.raw() + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
      c_row[j] = acc;
    }
  }
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  util::check(a.rank() == 2 && b.rank() == 2, "matmul_tn requires rank-2 inputs");
  util::check(a.dim(0) == b.dim(0), "matmul_tn inner dimensions must agree");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  // Accumulate rank-1 updates; inner loop contiguous over b and c rows.
  for (std::size_t p = 0; p < k; ++p) {
    const float* a_row = a.raw() + p * m;
    const float* b_row = b.raw() + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float a_pi = a_row[i];
      if (a_pi == 0.0f) continue;
      float* c_row = c.raw() + i * n;
      for (std::size_t j = 0; j < n; ++j) c_row[j] += a_pi * b_row[j];
    }
  }
  return c;
}

Tensor transpose(const Tensor& a) {
  util::check(a.rank() == 2, "transpose requires a rank-2 tensor");
  const std::size_t m = a.dim(0), n = a.dim(1);
  Tensor out({n, m});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) out[j * m + i] = a[i * n + j];
  }
  return out;
}

}  // namespace dstee::tensor
