// Top-k / bottom-k index selection — the primitive behind both halves of
// drop-and-grow: ArgTopK over |weights| (drop) and over scores (grow).
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.hpp"

namespace dstee::tensor {

/// Indices of the `k` largest values (descending by value; ties broken by
/// ascending index so results are deterministic). k may be 0; k <= numel.
std::vector<std::size_t> topk_indices(const Tensor& values, std::size_t k);

/// Indices of the `k` smallest values (ascending by value, ties by index).
std::vector<std::size_t> bottomk_indices(const Tensor& values, std::size_t k);

/// topk over a subset: only the flat indices in `candidates` (each <
/// numel) participate. Over a mask's inactive positions this is
/// ArgTopK(S · (M == 0), k) from Algorithm 1 — growth considers inactive
/// positions only. Requires at least k candidates.
std::vector<std::size_t> topk_indices_among(const Tensor& values,
                                            std::vector<std::size_t> candidates,
                                            std::size_t k);

/// bottomk over a subset (a mask's active positions for magnitude drop,
/// where masked weights are already zero and must not be "dropped"
/// again).
std::vector<std::size_t> bottomk_indices_among(
    const Tensor& values, std::vector<std::size_t> candidates, std::size_t k);

}  // namespace dstee::tensor
