// Exploration-rate accounting (ITOP's R metric, paper §III-C).
//
// R = (# weights that have EVER been active during training)
//     / (total # sparsifiable weights).
// Figure 3's left panels plot R against mask-update rounds for several
// trade-off coefficients c.
#pragma once

#include <cstddef>
#include <vector>

#include "sparse/sparse_model.hpp"

namespace dstee::sparse {

/// Tracks the union of all masks seen so far ("b" in the paper).
class ExplorationTracker {
 public:
  /// Initializes the explored-set with the model's initial masks.
  explicit ExplorationTracker(const SparseModel& model);

  /// ORs the model's current masks into the explored set. Call after every
  /// mask update round.
  void observe(const SparseModel& model);

  /// Exploration rate R ∈ [0, 1].
  double exploration_rate() const;

  /// Per-layer exploration rates.
  std::vector<double> per_layer_rates() const;

  /// Number of weights explored so far.
  std::size_t explored_count() const;
  std::size_t total_count() const { return total_; }

 private:
  std::vector<Mask> ever_active_;  // the union of every mask, per layer
  std::size_t total_ = 0;
};

}  // namespace dstee::sparse
