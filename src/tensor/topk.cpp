#include "tensor/topk.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace dstee::tensor {

namespace {

// Shared implementation: selects k indices out of `candidates` ordered by
// `better` (strict weak ordering over indices).
template <typename Compare>
std::vector<std::size_t> select_k(std::vector<std::size_t> candidates,
                                  std::size_t k, Compare better) {
  util::check(k <= candidates.size(),
              "top-k: k exceeds number of eligible elements");
  if (k == 0) return {};
  std::nth_element(candidates.begin(), candidates.begin() + (k - 1),
                   candidates.end(), better);
  candidates.resize(k);
  std::sort(candidates.begin(), candidates.end(), better);
  return candidates;
}

std::vector<std::size_t> all_indices(std::size_t n) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  return idx;
}

/// `candidates`, each checked to index `values`.
std::vector<std::size_t> checked(const Tensor& values,
                                 std::vector<std::size_t> candidates) {
  for (const std::size_t i : candidates) {
    if (i >= values.numel()) util::fail("top-k candidate out of range");
  }
  return candidates;
}

}  // namespace

std::vector<std::size_t> topk_indices(const Tensor& values, std::size_t k) {
  return select_k(all_indices(values.numel()), k,
                  [&](std::size_t a, std::size_t b) {
                    if (values[a] != values[b]) return values[a] > values[b];
                    return a < b;
                  });
}

std::vector<std::size_t> bottomk_indices(const Tensor& values, std::size_t k) {
  return select_k(all_indices(values.numel()), k,
                  [&](std::size_t a, std::size_t b) {
                    if (values[a] != values[b]) return values[a] < values[b];
                    return a < b;
                  });
}

std::vector<std::size_t> topk_indices_among(const Tensor& values,
                                            std::vector<std::size_t> candidates,
                                            std::size_t k) {
  return select_k(checked(values, std::move(candidates)), k,
                  [&](std::size_t a, std::size_t b) {
                    if (values[a] != values[b]) return values[a] > values[b];
                    return a < b;
                  });
}

std::vector<std::size_t> bottomk_indices_among(
    const Tensor& values, std::vector<std::size_t> candidates, std::size_t k) {
  return select_k(checked(values, std::move(candidates)), k,
                  [&](std::size_t a, std::size_t b) {
                    if (values[a] != values[b]) return values[a] < values[b];
                    return a < b;
                  });
}

}  // namespace dstee::tensor
