// Binary mask over a parameter tensor.
//
// Invariant: every element is exactly 0.0f or 1.0f. The mask is the unit
// the whole paper operates on — drop-and-grow edits it, counters accumulate
// it, exploration tracks its union over time.
#pragma once

#include <cstddef>
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

  const tensor::Shape& shape() const { return values_.shape(); }
  std::size_t numel() const { return values_.numel(); }

  /// Number of active (1) entries.
  std::size_t num_active() const;

  /// Fraction of active entries in [0, 1].
  double density() const;

  // Inline: delta application calls these once per edited position.
  bool is_active(std::size_t flat_index) const {
    check_index(flat_index);
    return values_[flat_index] != 0.0f;
  }

  /// Activates / deactivates a single element.
  void activate(std::size_t flat_index) {
    check_index(flat_index);
    values_[flat_index] = 1.0f;
  }
  void deactivate(std::size_t flat_index) {
    check_index(flat_index);
    values_[flat_index] = 0.0f;
  }

  /// Flat indices of all active / inactive elements (ascending).
  std::vector<std::size_t> active_indices() const;
  std::vector<std::size_t> inactive_indices() const;

  /// The underlying 0/1 tensor (read-only; mutate via activate/deactivate
  /// so the invariant holds).
  const tensor::Tensor& tensor() const { return values_; }

  /// t ⊙ mask, in place.
  void apply_to(tensor::Tensor& t) const;

  /// Overwrites the mask in place from a reader: `read` fills the whole
  /// numel()-float storage span, then every element is checked to be 0
  /// or 1 (a -0 is stored as 0). Loaders use this to read a mask record
  /// without a temporary. A reader that throws, or a non-binary element
  /// (CheckError), leaves the mask partly written: restore it from a
  /// copy.
  template <typename Read>
  void read_in_place(Read&& read) {
    read(std::span<float>(values_.data()));
    check_binary();
  }

  /// Number of positions where this mask and `other` differ.
  std::size_t hamming_distance(const Mask& other) const;

 private:
  void check_index(std::size_t flat_index) const {
    util::check(flat_index < numel(), "flat index out of range");
  }

  /// CheckError unless every element is 0 or 1; stores each 0 as +0.
  void check_binary();

  tensor::Tensor values_;
};

}  // namespace dstee::sparse
