// Unit tests for top-k / bottom-k selection (the drop-and-grow primitive).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "tensor/topk.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace dstee {
namespace {

tensor::Tensor vec(std::initializer_list<float> v) {
  return tensor::Tensor(tensor::Shape({v.size()}), std::vector<float>(v));
}

TEST(TopK, SelectsLargest) {
  const auto t = vec({3, 1, 4, 1, 5, 9, 2, 6});
  const auto idx = tensor::topk_indices(t, 3);
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx[0], 5u);  // 9
  EXPECT_EQ(idx[1], 7u);  // 6
  EXPECT_EQ(idx[2], 4u);  // 5
}

TEST(TopK, BottomSelectsSmallest) {
  const auto t = vec({3, 1, 4, 1, 5});
  const auto idx = tensor::bottomk_indices(t, 2);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 1u);  // first 1
  EXPECT_EQ(idx[1], 3u);  // second 1
}

TEST(TopK, TieBreaksByIndexDeterministically) {
  const auto t = vec({2, 2, 2, 2});
  const auto idx = tensor::topk_indices(t, 2);
  EXPECT_EQ(idx[0], 0u);
  EXPECT_EQ(idx[1], 1u);
}

TEST(TopK, KZeroReturnsEmpty) {
  EXPECT_TRUE(tensor::topk_indices(vec({1, 2}), 0).empty());
}

TEST(TopK, KEqualsNReturnsAll) {
  const auto idx = tensor::topk_indices(vec({1, 2, 3}), 3);
  EXPECT_EQ(idx.size(), 3u);
}

TEST(TopK, KTooLargeThrows) {
  EXPECT_THROW(tensor::topk_indices(vec({1, 2}), 3), util::CheckError);
}

TEST(TopK, MatchesFullSortOnRandomData) {
  const auto t = testing::random_tensor(tensor::Shape({500}), 11);
  const std::size_t k = 37;
  const auto idx = tensor::topk_indices(t, k);
  // Reference: full sort.
  std::vector<std::size_t> all(t.numel());
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::sort(all.begin(), all.end(), [&](std::size_t a, std::size_t b) {
    if (t[a] != t[b]) return t[a] > t[b];
    return a < b;
  });
  for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(idx[i], all[i]);
}

TEST(TopK, WhereRestrictsToEligible) {
  const auto t = vec({10, 9, 8, 7});
  const auto idx = tensor::topk_indices_among(t, {1, 3}, 2);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 1u);
  EXPECT_EQ(idx[1], 3u);
}

TEST(TopK, BottomWhereRestrictsToEligible) {
  const auto t = vec({1, 2, 3, 4});
  const auto idx = tensor::bottomk_indices_among(t, {1, 2}, 1);
  ASSERT_EQ(idx.size(), 1u);
  EXPECT_EQ(idx[0], 1u);
}

TEST(TopK, WhereThrowsWhenNotEnoughEligible) {
  const auto t = vec({1, 2, 3});
  EXPECT_THROW(tensor::topk_indices_among(t, {0}, 2), util::CheckError);
}

TEST(TopK, WhereShapeMismatchThrows) {
  EXPECT_THROW(tensor::topk_indices_among(vec({1, 2}), {2}, 1),
               util::CheckError);
  EXPECT_THROW(tensor::bottomk_indices_among(vec({1, 2}), {0, 5}, 1),
               util::CheckError);
}

TEST(TopK, NegativeValuesHandled) {
  const auto t = vec({-5, -1, -3});
  const auto top = tensor::topk_indices(t, 1);
  EXPECT_EQ(top[0], 1u);
  const auto bottom = tensor::bottomk_indices(t, 1);
  EXPECT_EQ(bottom[0], 0u);
}

}  // namespace
}  // namespace dstee
