// Stateless elementwise activation kernels — thin compatibility wrappers
// for the nn/ training forwards over the one epilogue application in
// kernels/epilogue.hpp.
//
// The per-activation entry points below exist for two reasons only:
// (a) nn/ layers cache backward masks, a training-time concept the
// Epilogue descriptor deliberately does not model, and (b) their
// signatures predate the epilogue API. Every mask-less call funnels
// through kernels::apply_epilogue, so train-time and serve-time numerics
// cannot drift apart; serve/ EvalOps must NOT call these directly
// (enforced by the `serve-epilogue` dstee_lint rule) — they build a
// kernels::Epilogue for apply_epilogue instead. Each kernel accepts a
// runtime::IntraOp chunking the flat element range across the persistent
// runtime pool; elementwise outputs trivially have one writer per
// element, so results are bit-identical for any chunk count. Small
// tensors always run inline regardless of the policy (fan-out would cost
// more than the loop).
#pragma once

#include "runtime/pool.hpp"
#include "tensor/tensor.hpp"

namespace dstee::kernels {

/// y = max(x, 0). When `mask` is non-null it is resized to x's shape and
/// filled with 1 where x > 0 (the backward mask nn::ReLU caches).
tensor::Tensor relu(const tensor::Tensor& x, tensor::Tensor* mask = nullptr,
                    const runtime::IntraOp& intra = {});

/// y = relu(a + b) — the residual join (ResidualBlock::forward at train
/// time, the compiled add+ReLU graph node at serve time). `a` and `b`
/// must agree in shape; when `mask` is non-null it receives 1 where
/// a + b > 0 (the backward mask ResidualBlock caches).
tensor::Tensor add_relu(const tensor::Tensor& a, const tensor::Tensor& b,
                        tensor::Tensor* mask = nullptr,
                        const runtime::IntraOp& intra = {});

/// y = x > 0 ? x : slope·x.
tensor::Tensor leaky_relu(const tensor::Tensor& x, float slope,
                          const runtime::IntraOp& intra = {});

/// y = 1 / (1 + e^{-x}).
tensor::Tensor sigmoid(const tensor::Tensor& x,
                       const runtime::IntraOp& intra = {});

/// y = tanh(x).
tensor::Tensor tanh(const tensor::Tensor& x,
                    const runtime::IntraOp& intra = {});

}  // namespace dstee::kernels
