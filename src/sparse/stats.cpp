#include "sparse/stats.hpp"

#include <cmath>
#include <sstream>

namespace dstee::sparse {

std::size_t TopologyLog::total_dropped() const {
  std::size_t n = 0;
  for (const auto& r : rounds_) n += r.dropped;
  return n;
}

std::size_t TopologyLog::total_grown() const {
  std::size_t n = 0;
  for (const auto& r : rounds_) n += r.grown;
  return n;
}

double TopologyLog::never_seen_growth_fraction() const {
  std::size_t grown = 0, fresh = 0;
  for (const auto& r : rounds_) {
    grown += r.grown;
    fresh += r.never_seen_grown;
  }
  if (grown == 0) return 0.0;
  return static_cast<double>(fresh) / static_cast<double>(grown);
}

std::string validate_invariants(const SparseModel& model) {
  std::ostringstream os;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    const auto& layer = model.layer(i);
    const auto& mask = layer.mask();
    const auto& value = layer.param().value;
    for (std::size_t j = 0; j < mask.numel(); ++j) {
      if (!mask.is_active(j) && value[j] != 0.0f) {
        os << "layer " << i << " (" << layer.name() << "): masked weight ["
           << j << "] = " << value[j] << " is nonzero";
        return os.str();
      }
    }
    const auto& counter = layer.counter();
    for (std::size_t j = 0; j < counter.numel(); ++j) {
      if (counter[j] < 0.0f || std::floor(counter[j]) != counter[j]) {
        os << "layer " << i << ": counter[" << j << "] = " << counter[j]
           << " is not a non-negative integer";
        return os.str();
      }
    }
  }
  return {};
}

}  // namespace dstee::sparse
