#include "kernels/activations.hpp"

#include <cmath>

#include "kernels/epilogue.hpp"
#include "util/check.hpp"

namespace dstee::kernels {

namespace {

/// Same small-input guard as apply_epilogue (epilogue.cpp): the
/// mask-caching training variants below keep their own loops because the
/// epilogue API has no backward-mask concept.
constexpr std::size_t kElemGrain = 1u << 12;

}  // namespace

tensor::Tensor relu(const tensor::Tensor& x, tensor::Tensor* mask,
                    const runtime::IntraOp& intra) {
  if (mask == nullptr) {
    Epilogue ep;
    ep.has_act = true;
    ep.act = ActKind::kRelu;
    return apply_epilogue(x, ep, intra);
  }
  tensor::Tensor y(x.shape());
  *mask = tensor::Tensor(x.shape());
  runtime::intra_chunks(
      intra, x.numel(), kElemGrain,
      [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          const bool pos = x[i] > 0.0f;
          (*mask)[i] = pos ? 1.0f : 0.0f;
          y[i] = pos ? x[i] : 0.0f;
        }
      });
  return y;
}

tensor::Tensor add_relu(const tensor::Tensor& a, const tensor::Tensor& b,
                        tensor::Tensor* mask, const runtime::IntraOp& intra) {
  if (a.shape() != b.shape()) {
    util::fail("residual branches disagree: " + a.shape().to_string() +
               " vs " + b.shape().to_string());
  }
  if (mask == nullptr) {
    Epilogue ep;
    ep.residual = b.raw();
    ep.has_act = true;
    ep.act = ActKind::kRelu;
    return apply_epilogue(a, ep, intra);
  }
  tensor::Tensor y(a.shape());
  *mask = tensor::Tensor(a.shape());
  runtime::intra_chunks(
      intra, a.numel(), kElemGrain,
      [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          const float s = a[i] + b[i];
          const bool pos = s > 0.0f;
          (*mask)[i] = pos ? 1.0f : 0.0f;
          y[i] = pos ? s : 0.0f;
        }
      });
  return y;
}

tensor::Tensor leaky_relu(const tensor::Tensor& x, float slope,
                          const runtime::IntraOp& intra) {
  Epilogue ep;
  ep.has_act = true;
  ep.act = ActKind::kLeakyRelu;
  ep.slope = slope;
  return apply_epilogue(x, ep, intra);
}

tensor::Tensor sigmoid(const tensor::Tensor& x,
                       const runtime::IntraOp& intra) {
  Epilogue ep;
  ep.has_act = true;
  ep.act = ActKind::kSigmoid;
  return apply_epilogue(x, ep, intra);
}

tensor::Tensor tanh(const tensor::Tensor& x, const runtime::IntraOp& intra) {
  Epilogue ep;
  ep.has_act = true;
  ep.act = ActKind::kTanh;
  return apply_epilogue(x, ep, intra);
}

}  // namespace dstee::kernels
