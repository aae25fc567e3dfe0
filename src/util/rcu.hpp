// RcuCell: a published shared_ptr<const T> — the project's RCU
// (read-copy-update) primitive for hot-swapped immutable state.
//
// Readers load() a snapshot and keep using it for as long as they hold
// the shared_ptr; writers store() a replacement built off to the side.
// Nobody blocks anybody for more than a pointer copy: in-flight work
// finishes on the version it captured, new work picks up the new one,
// and the old version is destroyed when its last reference drops. There
// is no drain, no pause, and no lock held across the swap.
//
// The pointer is guarded by a util::Mutex, so the thread-safety analysis
// and TSan both see the publication. Serving workers load once per
// micro-batch, so the cost is one uncontended lock per batch.
//
// The project lint (tools/dstee_lint, rule `hot-swap-rcu`) requires
// hot-swapped CompiledNet members to live in one of these rather than in
// a bare shared_ptr, precisely so the publish/observe protocol cannot be
// bypassed with a plain (racy) pointer read.
#pragma once

#include <memory>
#include <utility>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace dstee::util {

template <typename T>
class RcuCell {
 public:
  RcuCell() = default;
  explicit RcuCell(std::shared_ptr<const T> initial)
      : ptr_(std::move(initial)) {}

  /// Snapshot of the current version. Never null once published; callers
  /// keep the returned pointer for the duration of their work.
  std::shared_ptr<const T> load() const {
    MutexLock lock(mu_);
    return ptr_;
  }

  /// Publishes a new version. The old version retires when the last
  /// reader that captured it drops its reference. The swap leaves the
  /// displaced pointer in `next`, which is released after the lock, so a
  /// retiring version is never destroyed while readers wait on `mu_`.
  void store(std::shared_ptr<const T> next) {
    MutexLock lock(mu_);
    ptr_.swap(next);
  }

 private:
  mutable Mutex mu_;
  std::shared_ptr<const T> ptr_ DSTEE_GUARDED_BY(mu_);
};

/// Wraps an object the caller guarantees outlives every observer into a
/// non-owning shared_ptr (aliasing constructor with an empty control
/// block). Lets borrowed state flow through RcuCell-shaped APIs.
template <typename T>
std::shared_ptr<const T> borrow(const T& object) {
  return std::shared_ptr<const T>(std::shared_ptr<void>(), &object);
}

}  // namespace dstee::util
