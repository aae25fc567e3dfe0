// Shared test utilities: finite-difference gradient checking and tensor
// construction helpers.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "kernels/epilogue.hpp"
#include "nn/module.hpp"
#include "tensor/init.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace dstee::testing {

/// Random tensor with entries ~ N(0, 1) from a fixed-seed stream.
inline tensor::Tensor random_tensor(tensor::Shape shape,
                                    std::uint64_t seed = 42,
                                    float stddev = 1.0f) {
  tensor::Tensor t(std::move(shape));
  util::Rng rng(seed);
  tensor::fill_normal(t, rng, 0.0f, stddev);
  return t;
}

/// The epilogue shapes the fused serve path produces — identity and each
/// activation — minus the pointer operands (attached per test from
/// locally-owned storage).
inline std::vector<kernels::Epilogue> activation_epilogues() {
  std::vector<kernels::Epilogue> eps;
  eps.emplace_back();  // identity
  for (const kernels::ActKind act :
       {kernels::ActKind::kRelu, kernels::ActKind::kLeakyRelu,
        kernels::ActKind::kSigmoid, kernels::ActKind::kTanh}) {
    kernels::Epilogue ep;
    ep.has_act = true;
    ep.act = act;
    eps.push_back(ep);
  }
  return eps;
}

/// Scalar probe loss L = Σ p_i · y_i with fixed random projection p, so a
/// single backward pass checks every output path.
struct ProbeLoss {
  tensor::Tensor projection;

  explicit ProbeLoss(const tensor::Shape& output_shape,
                     std::uint64_t seed = 1234)
      : projection(random_tensor(output_shape, seed, 0.5f)) {}

  double value(const tensor::Tensor& y) const {
    double acc = 0.0;
    for (std::size_t i = 0; i < y.numel(); ++i) {
      acc += static_cast<double>(projection[i]) * y[i];
    }
    return acc;
  }

  tensor::Tensor grad() const { return projection; }
};

/// Central-difference gradient of `loss_of_x` at x[index].
inline double numeric_derivative(
    const std::function<double(const tensor::Tensor&)>& loss_of_x,
    tensor::Tensor x, std::size_t index, float eps = 1e-3f) {
  const float saved = x[index];
  x[index] = saved + eps;
  const double plus = loss_of_x(x);
  x[index] = saved - eps;
  const double minus = loss_of_x(x);
  return (plus - minus) / (2.0 * static_cast<double>(eps));
}

/// Checks a module's input gradient and all parameter gradients against
/// central differences on the probe loss. `samples` entries per tensor are
/// probed (spread deterministically) to keep runtime bounded.
inline void check_module_gradients(nn::Module& module,
                                   const tensor::Tensor& input,
                                   double tol = 5e-2,
                                   std::size_t samples = 12,
                                   float eps = 1e-2f) {
  module.zero_grad();
  const tensor::Tensor output = module.forward(input);
  const ProbeLoss probe(output.shape());
  const tensor::Tensor grad_input = module.backward(probe.grad());

  // --- input gradient ---
  auto loss_from_input = [&](const tensor::Tensor& x) {
    return probe.value(module.forward(x));
  };
  const std::size_t in_n = input.numel();
  const std::size_t in_step = std::max<std::size_t>(1, in_n / samples);
  for (std::size_t i = 0; i < in_n; i += in_step) {
    const double expected = numeric_derivative(loss_from_input, input, i, eps);
    EXPECT_NEAR(grad_input[i], expected,
                tol * std::max(1.0, std::fabs(expected)))
        << "input gradient mismatch at flat index " << i;
  }

  // Re-run forward/backward so analytic parameter grads correspond to the
  // unperturbed input (loss_from_input above overwrote layer caches).
  module.zero_grad();
  module.forward(input);
  module.backward(probe.grad());

  // --- parameter gradients ---
  for (nn::Parameter* param : module.parameters()) {
    const std::size_t n = param->value.numel();
    const std::size_t step = std::max<std::size_t>(1, n / samples);
    for (std::size_t i = 0; i < n; i += step) {
      const float saved = param->value[i];
      param->value[i] = saved + eps;
      const double plus = probe.value(module.forward(input));
      param->value[i] = saved - eps;
      const double minus = probe.value(module.forward(input));
      param->value[i] = saved;
      const double expected =
          (plus - minus) / (2.0 * static_cast<double>(eps));
      EXPECT_NEAR(param->grad[i], expected,
                  tol * std::max(1.0, std::fabs(expected)))
          << "gradient mismatch for " << param->name << " at flat index "
          << i;
    }
  }
  // Restore caches to a consistent state.
  module.zero_grad();
  module.forward(input);
}

/// Statistical variant for composite blocks ending in ReLU after
/// BatchNorm: BN centers pre-activations at zero, so a ±ε perturbation
/// flips ReLU masks on a few elements and corrupts those FD estimates even
/// when the analytic gradient is exact. Routing bugs (missing skip path,
/// wrong mask) corrupt essentially ALL entries, so requiring most probes to
/// match still catches them.
inline void check_module_gradients_tolerant(nn::Module& module,
                                            const tensor::Tensor& input,
                                            double tol = 0.1,
                                            std::size_t samples = 16,
                                            float eps = 5e-3f,
                                            double max_outlier_frac = 0.25) {
  module.zero_grad();
  const tensor::Tensor output = module.forward(input);
  const ProbeLoss probe(output.shape());
  const tensor::Tensor grad_input = module.backward(probe.grad());

  std::size_t checked = 0, outliers = 0;
  auto probe_entry = [&](float analytic, double expected) {
    ++checked;
    if (std::fabs(analytic - expected) >
        tol * std::max(1.0, std::fabs(expected))) {
      ++outliers;
    }
  };

  auto loss_from_input = [&](const tensor::Tensor& x) {
    return probe.value(module.forward(x));
  };
  const std::size_t in_step =
      std::max<std::size_t>(1, input.numel() / samples);
  for (std::size_t i = 0; i < input.numel(); i += in_step) {
    probe_entry(grad_input[i],
                numeric_derivative(loss_from_input, input, i, eps));
  }

  module.zero_grad();
  module.forward(input);
  module.backward(probe.grad());
  for (nn::Parameter* param : module.parameters()) {
    const std::size_t step =
        std::max<std::size_t>(1, param->value.numel() / samples);
    for (std::size_t i = 0; i < param->value.numel(); i += step) {
      const float saved = param->value[i];
      param->value[i] = saved + eps;
      const double plus = probe.value(module.forward(input));
      param->value[i] = saved - eps;
      const double minus = probe.value(module.forward(input));
      param->value[i] = saved;
      probe_entry(param->grad[i],
                  (plus - minus) / (2.0 * static_cast<double>(eps)));
    }
  }
  ASSERT_GT(checked, 0u);
  EXPECT_LE(static_cast<double>(outliers) / static_cast<double>(checked),
            max_outlier_frac)
      << outliers << " of " << checked << " probed gradients disagree";
  module.zero_grad();
  module.forward(input);
}

}  // namespace dstee::testing
