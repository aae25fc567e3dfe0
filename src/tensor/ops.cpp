#include "tensor/ops.hpp"

#include <cmath>

#include "util/check.hpp"

namespace dstee::tensor {

namespace {
void check_same_shape(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    util::fail("elementwise op requires identical shapes: " +
               a.shape().to_string() + " vs " + b.shape().to_string());
  }
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b);
  Tensor out(a.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) out[i] = a[i] + b[i];
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b);
  Tensor out(a.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) out[i] = a[i] - b[i];
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b);
  Tensor out(a.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) out[i] = a[i] * b[i];
  return out;
}

Tensor div(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b);
  Tensor out(a.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) out[i] = a[i] / b[i];
  return out;
}

void add_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b);
  for (std::size_t i = 0; i < a.numel(); ++i) a[i] += b[i];
}

void sub_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b);
  for (std::size_t i = 0; i < a.numel(); ++i) a[i] -= b[i];
}

void mul_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b);
  for (std::size_t i = 0; i < a.numel(); ++i) a[i] *= b[i];
}

void axpy_inplace(Tensor& a, float alpha, const Tensor& b) {
  check_same_shape(a, b);
  for (std::size_t i = 0; i < a.numel(); ++i) a[i] += alpha * b[i];
}

Tensor add_scalar(const Tensor& a, float s) {
  Tensor out = a;
  for (std::size_t i = 0; i < out.numel(); ++i) out[i] += s;
  return out;
}

Tensor mul_scalar(const Tensor& a, float s) {
  Tensor out = a;
  mul_scalar_inplace(out, s);
  return out;
}

void mul_scalar_inplace(Tensor& a, float s) {
  for (std::size_t i = 0; i < a.numel(); ++i) a[i] *= s;
}

Tensor abs(const Tensor& a) {
  Tensor out(a.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) out[i] = std::fabs(a[i]);
  return out;
}

Tensor sign(const Tensor& a) {
  Tensor out(a.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) {
    out[i] = (a[i] > 0.0f) ? 1.0f : (a[i] < 0.0f ? -1.0f : 0.0f);
  }
  return out;
}

Tensor map(const Tensor& a, const std::function<float(float)>& f) {
  Tensor out(a.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) out[i] = f(a[i]);
  return out;
}

void map_inplace(Tensor& a, const std::function<float(float)>& f) {
  for (std::size_t i = 0; i < a.numel(); ++i) a[i] = f(a[i]);
}

double sum(const Tensor& a) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) acc += a[i];
  return acc;
}

double mean(const Tensor& a) {
  util::check(a.numel() > 0, "mean of empty tensor");
  return sum(a) / static_cast<double>(a.numel());
}

float max_value(const Tensor& a) {
  util::check(a.numel() > 0, "max of empty tensor");
  float best = a[0];
  for (std::size_t i = 1; i < a.numel(); ++i) best = std::max(best, a[i]);
  return best;
}

float min_value(const Tensor& a) {
  util::check(a.numel() > 0, "min of empty tensor");
  float best = a[0];
  for (std::size_t i = 1; i < a.numel(); ++i) best = std::min(best, a[i]);
  return best;
}

std::size_t argmax(const Tensor& a) {
  util::check(a.numel() > 0, "argmax of empty tensor");
  std::size_t best = 0;
  for (std::size_t i = 1; i < a.numel(); ++i) {
    if (a[i] > a[best]) best = i;
  }
  return best;
}

double squared_norm(const Tensor& a) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(a[i]);
  }
  return acc;
}

double norm(const Tensor& a) { return std::sqrt(squared_norm(a)); }

std::size_t count_nonzero(const Tensor& a, float eps) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    if (std::fabs(a[i]) > eps) ++n;
  }
  return n;
}

std::vector<std::size_t> argmax_rows(const Tensor& a) {
  util::check(a.rank() == 2, "argmax_rows requires a rank-2 tensor");
  const std::size_t rows = a.dim(0);
  const std::size_t cols = a.dim(1);
  std::vector<std::size_t> out(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < cols; ++c) {
      if (a[r * cols + c] > a[r * cols + best]) best = c;
    }
    out[r] = best;
  }
  return out;
}

bool has_nonfinite(const Tensor& a) {
  for (std::size_t i = 0; i < a.numel(); ++i) {
    if (!std::isfinite(a[i])) return true;
  }
  return false;
}

}  // namespace dstee::tensor
