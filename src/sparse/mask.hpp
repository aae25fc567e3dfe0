// Binary mask over a parameter tensor, stored as a packed bitset.
//
// Position i is bit i % 64 of word i / 64. Invariant: the tail bits (the
// positions past numel() in the last word) are zero, so a popcount, a
// word compare or a XOR over the words never sees them. The mask is the
// unit the whole paper operates on — drop-and-grow edits it, counters
// accumulate it, exploration tracks its union over time — and a served
// model keeps one bit per weight for it, not a float.
//
// The float form (0.0f / 1.0f per position) exists only at the edges,
// never as a numel()-float copy: checkpoint "#mask" records convert a
// chunk at a time (to_floats / from_floats), and the state hash mixes the
// words that form would hold, generated from the bits.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dstee::sparse {

/// Binary mask with the same shape as its parameter.
class Mask {
 public:
  Mask() = default;

  /// All-ones (dense) mask of the given shape.
  explicit Mask(tensor::Shape shape);

  /// Mask with exactly `active` ones placed uniformly at random.
  static Mask random(tensor::Shape shape, std::size_t active, util::Rng& rng);

  /// Mask with ones at `indices` (flat), zeros elsewhere.
  static Mask from_indices(tensor::Shape shape,
                           const std::vector<std::size_t>& indices);

  const tensor::Shape& shape() const { return shape_; }
  std::size_t numel() const { return numel_; }

  /// Number of active (1) entries.
  std::size_t num_active() const;

  /// Fraction of active entries in [0, 1].
  double density() const;

  // Inline: delta application calls these once per edited position.
  bool is_active(std::size_t flat_index) const {
    check_index(flat_index);
    return ((words_[flat_index >> 6] >> (flat_index & 63)) & 1u) != 0;
  }

  /// Activates / deactivates a single element.
  void activate(std::size_t flat_index) {
    check_index(flat_index);
    words_[flat_index >> 6] |= std::uint64_t{1} << (flat_index & 63);
  }
  void deactivate(std::size_t flat_index) {
    check_index(flat_index);
    words_[flat_index >> 6] &= ~(std::uint64_t{1} << (flat_index & 63));
  }

  /// Flat indices of all active / inactive elements (ascending).
  std::vector<std::size_t> active_indices() const;
  std::vector<std::size_t> inactive_indices() const;

  /// Calls `visit(i)` for every active position i in [begin, end),
  /// ascending: O(active + (end - begin) / 64).
  template <typename Visit>
  void for_each_active(std::size_t begin, std::size_t end,
                       Visit&& visit) const {
    util::check(begin <= end && end <= numel_,
                "mask range out of bounds");
    if (begin == end) return;
    std::size_t w = begin >> 6;
    const std::size_t last = (end - 1) >> 6;
    std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (begin & 63));
    for (;;) {
      if (w == last) bits &= ~std::uint64_t{0} >> (63 - ((end - 1) & 63));
      while (bits != 0) {
        visit((w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
        bits &= bits - 1;
      }
      if (w == last) return;
      bits = words_[++w];
    }
  }

  /// The packed positions, tail bits zero.
  std::span<const std::uint64_t> words() const { return words_; }

  /// Bytes the mask holds: 8 per 64 positions.
  std::size_t storage_bytes() const {
    return words_.size() * sizeof(std::uint64_t);
  }

  /// t ⊙ mask, in place: every inactive position of `t` becomes +0.
  void apply_to(tensor::Tensor& t) const;

  /// t += mask, adding each position's 0.0f or 1.0f (a DST counter's
  /// update).
  void add_to(tensor::Tensor& t) const;

  /// Writes positions [first, first + out.size()) as 0.0f / 1.0f, the
  /// form a checkpoint "#mask" record stores.
  void to_floats(std::size_t first, std::span<float> out) const;

  /// Sets positions [first, first + in.size()) from their 0/1 float form:
  /// 1 activates, 0 or -0 deactivates, and any other value throws
  /// CheckError. A loader reads a record through this a chunk at a time;
  /// a rejected chunk leaves the mask partly written, so a caller that
  /// must stay whole restores the mask from a copy.
  void from_floats(std::size_t first, std::span<const float> in);

  /// ORs `other` into this mask (the union of two topologies).
  Mask& operator|=(const Mask& other);

  /// Number of positions where this mask and `other` differ.
  std::size_t hamming_distance(const Mask& other) const;

  friend bool operator==(const Mask&, const Mask&) = default;

 private:
  /// An empty (all-zero) mask of the given shape.
  static Mask zeros(tensor::Shape shape);

  void check_index(std::size_t flat_index) const {
    util::check(flat_index < numel_, "flat index out of range");
  }

  tensor::Shape shape_;
  std::size_t numel_ = 0;
  std::vector<std::uint64_t> words_;  // ceil(numel / 64), tail bits zero
};

}  // namespace dstee::sparse
