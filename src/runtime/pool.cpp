#include "runtime/pool.hpp"

#include <atomic>
#include <string>
#include <thread>

#include "obs/trace.hpp"
#include "util/env.hpp"

namespace dstee::runtime {

namespace {

/// The pool whose worker_loop owns this thread (nullptr on non-pool
/// threads). run_chunks consults it to run nested regions inline.
thread_local const Pool* tl_worker_pool = nullptr;

}  // namespace

Pool::Pool(std::size_t num_workers) {
  queues_.reserve(num_workers);
  threads_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  for (std::size_t i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

Pool::~Pool() {
  {
    util::MutexLock lock(idle_mu_);
    stop_ = true;
  }
  idle_cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

bool Pool::on_worker_thread() const { return tl_worker_pool == this; }

void Pool::submit(std::function<void()> task) {
  if (workers() == 0) {
    task();
    return;
  }
  enqueue(std::move(task));
}

void Pool::enqueue(std::function<void()> task) {
  const std::size_t w =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  // pending_ is bumped BEFORE the push: a worker that pops the task and
  // decrements is then guaranteed a matching increment already happened.
  // The tiny window where pending_ > 0 but the queue push is still in
  // flight only costs a woken worker one yield-and-retry.
  {
    util::MutexLock lock(idle_mu_);
    ++pending_;
  }
  {
    WorkerQueue& q = *queues_[w];
    util::MutexLock lock(q.mu);
    q.tasks.push_back(std::move(task));
  }
  idle_cv_.notify_one();
}

bool Pool::try_pop(std::size_t home, std::function<void()>& out) {
  // Own queue first, then steal round-robin from the peers — submissions
  // spread across queues, so an idle worker finds displaced work fast.
  const std::size_t count = queues_.size();
  for (std::size_t i = 0; i < count; ++i) {
    WorkerQueue& q = *queues_[(home + i) % count];
    util::MutexLock lock(q.mu);
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.front());
      q.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void Pool::worker_loop(std::size_t index) {
  tl_worker_pool = this;
  // Label this worker's trace ring so drained spans (intra-op chunks)
  // carry a readable lane name in the viewer.
  obs::set_thread_name("pool-" + std::to_string(index));
  for (;;) {
    {
      util::UniqueLock lock(idle_mu_);
      while (!stop_ && pending_ == 0) idle_cv_.wait(lock);
      if (pending_ == 0) return;  // stop_ set and everything drained
    }
    std::function<void()> task;
    if (!try_pop(index, task)) {
      // pending_ was bumped but the push has not landed yet (or a peer
      // won the race); retry.
      std::this_thread::yield();
      continue;
    }
    {
      util::MutexLock lock(idle_mu_);
      --pending_;
    }
    task();
  }
}

std::size_t default_parallelism() {
  static const std::size_t value = [] {
    const std::int64_t env = util::env_int("DSTEE_RUNTIME_THREADS", 0);
    if (env > 0) return static_cast<std::size_t>(env);
    return static_cast<std::size_t>(
        std::max(1u, std::thread::hardware_concurrency()));
  }();
  return value;
}

Pool& default_pool() {
  // Workers = budget - 1: the thread entering a parallel region runs the
  // first chunk itself, so total active threads equal the budget.
  static Pool pool(default_parallelism() - 1);
  return pool;
}

namespace {

std::atomic<std::size_t>& intra_op_slot() {
  static std::atomic<std::size_t> value{[] {
    const std::int64_t env = util::env_int("DSTEE_INTRA_OP_THREADS", 1);
    return env >= 0 ? static_cast<std::size_t>(env) : std::size_t{1};
  }()};
  return value;
}

}  // namespace

std::size_t intra_op_default() {
  return intra_op_slot().load(std::memory_order_relaxed);
}

void set_intra_op_default(std::size_t threads) {
  intra_op_slot().store(threads, std::memory_order_relaxed);
}

}  // namespace dstee::runtime
