#include "sparse/exploration.hpp"

#include "util/check.hpp"

namespace dstee::sparse {

ExplorationTracker::ExplorationTracker(const SparseModel& model) {
  ever_active_.reserve(model.num_layers());
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    ever_active_.push_back(model.layer(i).mask());
    total_ += model.layer(i).numel();
  }
}

void ExplorationTracker::observe(const SparseModel& model) {
  util::check(model.num_layers() == ever_active_.size(),
              "tracker was built for a different model");
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    const Mask& m = model.layer(i).mask();
    util::check(m.shape() == ever_active_[i].shape(),
                "layer size changed under the tracker");
    ever_active_[i] |= m;
  }
}

double ExplorationTracker::exploration_rate() const {
  util::check(total_ > 0, "tracker has no weights");
  return static_cast<double>(explored_count()) / static_cast<double>(total_);
}

std::vector<double> ExplorationTracker::per_layer_rates() const {
  std::vector<double> rates;
  rates.reserve(ever_active_.size());
  for (const Mask& seen : ever_active_) {
    rates.push_back(seen.numel() == 0 ? 0.0 : seen.density());
  }
  return rates;
}

std::size_t ExplorationTracker::explored_count() const {
  std::size_t n = 0;
  for (const Mask& seen : ever_active_) n += seen.num_active();
  return n;
}

}  // namespace dstee::sparse
