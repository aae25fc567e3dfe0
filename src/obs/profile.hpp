// Per-PlanOp wall-time accumulation for the executor.
//
// One cell per plan node: total nanoseconds and call count, both relaxed
// atomics, so every replica clone of an Executor can share ONE profile
// and their concurrent forwards aggregate into the same cells. The
// measured totals feed Plan::annotate's measured cost shares
// (`dstee_serve --profile-ops`).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace dstee::obs {

class OpProfile {
 public:
  explicit OpProfile(std::size_t num_nodes)
      : cells_(new Cell[num_nodes]), size_(num_nodes) {}

  OpProfile(const OpProfile&) = delete;
  OpProfile& operator=(const OpProfile&) = delete;

  std::size_t size() const { return size_; }

  /// Accumulates one timed execution of node `i`. Lock-free; safe from
  /// any number of replica threads at once.
  void add(std::size_t i, std::int64_t ns) {
    cells_[i].ns.fetch_add(ns, std::memory_order_relaxed);
    cells_[i].calls.fetch_add(1, std::memory_order_relaxed);
  }

  std::int64_t node_ns(std::size_t i) const {
    return cells_[i].ns.load(std::memory_order_relaxed);
  }
  std::uint64_t node_calls(std::size_t i) const {
    return cells_[i].calls.load(std::memory_order_relaxed);
  }

  std::int64_t total_ns() const {
    std::int64_t total = 0;
    for (std::size_t i = 0; i < size_; ++i) total += node_ns(i);
    return total;
  }

  /// Per-node share of the measured total (all zeros when nothing was
  /// measured — callers fall back to the static cost model).
  std::vector<double> cost_shares() const {
    std::vector<double> shares(size_, 0.0);
    const double total = static_cast<double>(total_ns());
    if (total <= 0.0) return shares;
    for (std::size_t i = 0; i < size_; ++i) {
      shares[i] = static_cast<double>(node_ns(i)) / total;
    }
    return shares;
  }

 private:
  struct Cell {
    std::atomic<std::int64_t> ns{0};
    std::atomic<std::uint64_t> calls{0};
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t size_;
};

}  // namespace dstee::obs
