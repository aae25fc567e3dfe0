// Persistent intra-op thread pool shared by every parallel kernel.
//
// Spawning std::threads inside each SpMM/conv call pays thread-start
// latency per call — fine for huge batches, ruinous for the serving hot
// path where a batch-8 SpMM finishes in tens of microseconds. This pool
// starts its workers once; a parallel region only pays a queue push and
// a condition-variable wake.
//
// Structure: fixed workers, one task deque per worker (submissions
// round-robin across them; an idle worker steals from its peers), and a
// single idle mutex/cv pair workers sleep on. Fan-out happens through
// run_chunks(), which keeps the historical parallel_chunks contract:
// [0, n) splits into ceil-div contiguous chunks, the calling thread runs
// the first chunk itself, fn is invoked once per non-empty chunk (so
// per-chunk scratch lives inside it), and the caller guarantees chunk
// independence — every output element written by exactly one chunk —
// which makes results bit-identical for ANY chunk/worker count.
//
// Re-entrancy: a worker that calls run_chunks()/parallel_for() on its own
// pool runs the region inline (no task submission), so nested parallel
// regions can never deadlock the pool. Exceptions thrown by fn inside a
// parallel region are captured and rethrown on the calling thread (first
// error wins); the pool stays usable afterwards.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace dstee::runtime {

namespace detail {

/// Completion latch for one fan-out: lives on the caller's stack, counts
/// submitted chunk tasks, and carries the first exception across threads.
/// All state is guarded by `mu`, so the error is visible to the waiter the
/// moment `remaining` hits zero.
struct FanLatch {
  /// `tasks` = chunk tasks that will call finish() exactly once each.
  explicit FanLatch(std::size_t tasks) : remaining(tasks) {}

  util::Mutex mu;
  util::CondVar cv;
  std::size_t remaining DSTEE_GUARDED_BY(mu);
  std::exception_ptr error DSTEE_GUARDED_BY(mu);

  void finish(std::exception_ptr e) {
    util::MutexLock lock(mu);
    if (e && !error) error = std::move(e);
    if (--remaining == 0) cv.notify_one();
  }

  /// Blocks until every task finished; returns the first error (null if
  /// all tasks succeeded).
  std::exception_ptr wait() {
    util::UniqueLock lock(mu);
    while (remaining != 0) cv.wait(lock);
    return error;
  }
};

}  // namespace detail

/// Fixed-size worker pool with per-worker task queues. A Pool with zero
/// workers is valid: every region and submitted task runs inline on the
/// calling thread (the degenerate single-core configuration).
class Pool {
 public:
  /// Starts exactly `num_workers` threads (0 = fully inline pool).
  explicit Pool(std::size_t num_workers);

  /// Joins all workers after draining queued tasks. The caller must ensure
  /// no thread is inside run_chunks()/parallel_for() on this pool.
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  std::size_t workers() const { return threads_.size(); }

  /// Detached task submission (round-robin across worker queues). Tasks
  /// must not throw — a throwing task terminates the process, exactly as
  /// an escaped exception on a raw std::thread would. With zero workers
  /// the task runs inline before submit() returns.
  void submit(std::function<void()> task);

  /// The chunked fan-out contract on pool workers: splits [0, n) into
  /// `chunks` ceil-div contiguous chunks (0 = workers()+1, never more
  /// than n), runs fn(begin, end) once per non-empty chunk with the
  /// calling thread taking the first chunk, and returns when every chunk
  /// has finished. chunks <= 1, a zero-worker pool, and calls from inside
  /// one of this pool's workers all run inline.
  template <typename Fn>
  void run_chunks(std::size_t n, std::size_t chunks, Fn&& fn) {
    if (chunks == 0) chunks = workers() + 1;
    chunks = std::min(chunks, std::max<std::size_t>(1, n));
    if (chunks <= 1 || workers() == 0 || on_worker_thread()) {
      fn(0, n);
      return;
    }
    const std::size_t chunk = (n + chunks - 1) / chunks;
    // Chunks 1.. go to the pool; count first so the latch never hits zero
    // before every submission is in flight.
    std::size_t tasks = 0;
    for (std::size_t t = 1; t < chunks; ++t) {
      if (std::min(n, t * chunk) < n) ++tasks;
    }
    detail::FanLatch latch(tasks);
    for (std::size_t t = 1; t < chunks; ++t) {
      const std::size_t b0 = std::min(n, t * chunk);
      const std::size_t b1 = std::min(n, b0 + chunk);
      if (b0 >= b1) break;
      enqueue([&fn, &latch, b0, b1] {
        std::exception_ptr error;
        try {
          fn(b0, b1);
        } catch (...) {
          error = std::current_exception();
        }
        latch.finish(std::move(error));
      });
    }
    std::exception_ptr caller_error;
    try {
      fn(0, std::min(n, chunk));
    } catch (...) {
      caller_error = std::current_exception();
    }
    // Always drain before rethrowing: the tasks reference fn and latch on
    // this stack frame.
    const std::exception_ptr task_error = latch.wait();
    if (caller_error) std::rethrow_exception(caller_error);
    if (task_error) std::rethrow_exception(task_error);
  }

  /// Pool-wide data-parallel loop with a minimum grain: uses at most
  /// workers()+1 chunks and never hands a chunk fewer than `grain` items
  /// (grain 0 = 1), so tiny loops stay inline instead of paying fan-out
  /// overhead. Same chunk-independence/bit-identical contract as
  /// run_chunks.
  template <typename Fn>
  void parallel_for(std::size_t n, std::size_t grain, Fn&& fn) {
    if (grain == 0) grain = 1;
    const std::size_t chunks =
        std::min(workers() + 1, std::max<std::size_t>(1, n / grain));
    run_chunks(n, chunks, std::forward<Fn>(fn));
  }

 private:
  struct WorkerQueue {
    util::Mutex mu;
    std::deque<std::function<void()>> tasks DSTEE_GUARDED_BY(mu);
  };

  /// True when the calling thread is one of THIS pool's workers.
  bool on_worker_thread() const;
  void enqueue(std::function<void()> task);
  bool try_pop(std::size_t home, std::function<void()>& out);
  void worker_loop(std::size_t index);

  // queues_/threads_ are sized in the constructor and structurally
  // immutable afterwards (only each queue's guarded deque mutates), so
  // the vectors themselves need no lock.
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;
  std::atomic<std::size_t> next_queue_{0};  ///< lock-free round-robin cursor

  // Workers sleep here; pending_/stop_ are guarded by idle_mu_ so wakeups
  // are never lost.
  util::Mutex idle_mu_;
  util::CondVar idle_cv_;
  std::size_t pending_ DSTEE_GUARDED_BY(idle_mu_) = 0;
  bool stop_ DSTEE_GUARDED_BY(idle_mu_) = false;
};

/// Process-wide parallelism budget: DSTEE_RUNTIME_THREADS when set, else
/// hardware concurrency (always >= 1). The default pool keeps this many
/// threads busy counting the caller: it runs budget-1 workers.
std::size_t default_parallelism();

/// The process-wide pool, constructed on first use with
/// default_parallelism()-1 workers. Kernels fall back to it whenever no
/// explicit pool is injected; tests inject their own Pool instead.
Pool& default_pool();

/// Process default chunk count for training-path forwards (nn/ conv and
/// pooling), resolved once from DSTEE_INTRA_OP_THREADS (default 1 =
/// serial, matching the pre-pool behavior). Serving configures intra-op
/// parallelism explicitly through serve::CompileOptions instead.
std::size_t intra_op_default();

/// Overrides intra_op_default() at run time (tests, embedders).
void set_intra_op_default(std::size_t threads);

/// Intra-op execution policy threaded through the kernels: how many
/// chunks to split a parallel loop into, and which pool executes them.
/// The default {1, nullptr} is serial and never touches any pool, so
/// kernels with a defaulted IntraOp parameter cost nothing extra.
struct IntraOp {
  std::size_t threads = 1;  ///< chunk count; 0 = pool-wide, 1 = inline
  Pool* pool = nullptr;     ///< executing pool; nullptr = default_pool()
};

inline Pool& pool_of(const IntraOp& intra) {
  return intra.pool != nullptr ? *intra.pool : default_pool();
}

/// Runs fn(begin, end) over [0, n) split into intra.threads chunks on
/// intra's pool. threads == 1 (the default) and n <= 1 run inline without
/// resolving the pool at all — the serving fast path.
template <typename Fn>
void intra_chunks(const IntraOp& intra, std::size_t n, Fn&& fn) {
  if (intra.threads == 1 || n <= 1) {
    fn(0, n);
    return;
  }
  pool_of(intra).run_chunks(n, intra.threads, std::forward<Fn>(fn));
}

/// intra_chunks with a minimum grain: never hands a chunk fewer than
/// `grain` items, so a loop too small to amortize the fan-out wake runs
/// inline no matter what the caller's policy says. THE one place every
/// kernel gets its small-input guard from — kernels pick the grain in
/// their own unit (elements, planes, rows).
template <typename Fn>
void intra_chunks(const IntraOp& intra, std::size_t n, std::size_t grain,
                  Fn&& fn) {
  if (intra.threads == 1 || n <= 1) {
    fn(0, n);
    return;
  }
  std::size_t chunks = intra.threads;
  Pool& pool = pool_of(intra);
  if (chunks == 0) chunks = pool.workers() + 1;
  if (grain > 1) {
    chunks = std::min(chunks, std::max<std::size_t>(1, n / grain));
  }
  if (chunks <= 1) {
    fn(0, n);
    return;
  }
  pool.run_chunks(n, chunks, std::forward<Fn>(fn));
}

/// The intra-op policy nn/ training forwards share: the process default
/// chunk count on the process default pool. One definition so a future
/// pool override or grain knob touches exactly one place.
inline IntraOp training_intra() {
  return IntraOp{intra_op_default(), nullptr};
}

}  // namespace dstee::runtime
