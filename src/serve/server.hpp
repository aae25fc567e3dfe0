// InferenceServer: sharded worker groups + micro-batching request queues,
// with RCU-style zero-downtime hot swap of the served network.
//
// Clients submit single samples — rank-1 [features] rows for MLPs, rank-3
// [C, H, W] images for conv nets — and get a future for the result row.
// The server runs up to `max_shards` independent worker GROUPS, each with
// its own request queue and `num_threads` worker threads. Every group
// serves the one published CompiledNet version, held in a single
// util::RcuCell: a forward is const and touches no shared state, so the
// groups share its weights instead of each copying them. Requests route
// to the first `active_shards` groups round-robin PER SAMPLE SHAPE, so
// heterogeneous traffic spreads every shape across the active groups
// instead of pinning one shape to one queue.
//
// HOT SWAP: swap() publishes a new CompiledNet version into the server's
// RcuCell. A worker captures the version pointer once per micro-batch, so
// in-flight batches finish on the version they captured, the next batch
// picks up the new one, and the old version is destroyed when its last
// reference drops — no drain, no pause, no dropped requests.
//
// ADMISSION CONTROL: submit() applies backpressure — it blocks while
// `queue_capacity` requests are already waiting on the routed shard, and
// the stall is recorded in `blocked_ms`. try_submit() never blocks:
// beyond the per-shard `queue_quota` (capacity when 0) the request is
// shed and counted in `shed_total`.
//
// ACCOUNTING: every request, batch, shed, stall and queue depth is
// recorded once, lock-free, into obs metric series the server resolves
// at construction (see ServerConfig::metrics); stats() reads them back.
//
// SCALING: shard slots are pre-built up to `max_shards`; scale_to()
// changes only how many of them receive new traffic (an atomic routing
// bound), so growing or shrinking a model's serving capacity is
// wait-free and parked shards simply drain and idle until re-activated,
// when they serve whatever version is published then.
//
// Within a group, workers coalesce queued requests of equal sample shape
// into [batch, ...] tensors and run them through the published
// CompiledNet (whose forward is const and thread-safe). Whether a partial
// batch waits for more requests is decided by decide_hold(), a pure
// function of what the shard observes: a partial batch is flushed at once
// when the shard's forward estimate (the median of its last three
// forwards) is shorter than the mean gap between its arrivals, because no
// second request is due before the batch would be done. Otherwise it is
// held until `max_batch` are queued or the oldest queued request has
// waited one forward estimate, capped at `max_delay_ms`, so requests that
// arrive while a batch would run join it and batches still form under
// load. A lone request at low load waits for nothing, and the shard's
// first batch is not held. `fill_or_timeout` restores the fixed window:
// hold every partial batch for the full `max_delay_ms`.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <variant>
#include <vector>

#include "obs/clock.hpp"
#include "serve/compiled_net.hpp"
#include "serve/stats.hpp"
#include "tensor/tensor.hpp"
#include "util/rcu.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace dstee::obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace dstee::obs

namespace dstee::serve {

struct ServerConfig {
  std::size_t num_threads = 2;   ///< batch-executing threads PER shard
  std::size_t num_shards = 1;    ///< initially ACTIVE worker groups
  std::size_t max_batch = 16;    ///< flush when this many requests queue
  /// Cap on how long a partial batch's head request is held. A partial
  /// batch is held only while its shard's forward estimate is at least
  /// the mean gap between its arrivals, and then for one forward
  /// estimate when that is shorter than this cap (see decide_hold).
  double max_delay_ms = 2.0;
  /// Hold every partial batch for the full `max_delay_ms` (the fixed
  /// fill-or-timeout window), whatever the forward estimate and the
  /// arrival gaps.
  bool fill_or_timeout = false;
  std::size_t queue_capacity = 4096;  ///< per-shard; submit() blocks beyond
  std::size_t max_shards = 0;    ///< scaling headroom; 0 = num_shards
  std::size_t queue_quota = 0;   ///< try_submit() sheds beyond this; 0 =
                                 ///< shed only at queue_capacity
  /// The registry the server records its accounting into, labeled
  /// `metrics_label`: per-request latency and queue wait, batch sizes,
  /// request, batch, shed and per-flush-reason counts, submit() stalls
  /// and the queue-depth peak. stats() reads these series back, so
  /// servers that share a registry and a label share counts. Null: the
  /// server owns a registry of its own. Must outlive the server.
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_label;  ///< `model` label on the series
};

/// Why a micro-batch's hold ended.
enum class FlushReason : std::uint8_t {
  kFull,      ///< max_batch requests were queued
  kWindow,    ///< the head request waited one forward estimate
  kDeadline,  ///< the head request waited max_delay_ms
  kShutdown,  ///< the shard is stopping
  kIdle,      ///< no second request is due within one forward: no hold
};
inline constexpr std::size_t kFlushReasons = 5;

/// The batcher's decision for its queue: flush now, for a reason, or
/// hold the head request this much longer.
using HoldDecision = std::variant<FlushReason, obs::Clock::duration>;

/// The hold rule, a pure function of what a shard observes. `queued`
/// (>= 1) requests wait, the oldest for `head_age`; `forward` is the
/// shard's forward estimate (zero before its first forward) and
/// `mean_gap` the mean gap between its arrivals (duration::max() before
/// its second arrival). In order: `max_batch` queued flushes kFull;
/// `stopping` flushes kShutdown; `fill_or_timeout` holds the head to
/// `max_delay_ms`, then flushes kDeadline; a forward estimate shorter
/// than the mean gap flushes kIdle; otherwise the head is held one
/// forward estimate, then flushes kWindow, or, when the estimate is at
/// least `max_delay_ms`, held to `max_delay_ms`, then flushes kDeadline.
HoldDecision decide_hold(std::size_t queued, obs::Clock::duration head_age,
                         obs::Clock::duration forward,
                         obs::Clock::duration mean_gap, bool stopping,
                         const ServerConfig& config);

/// The mean gap between a shard's arrivals: a moving average with weight
/// 1/8, seeded by the first gap. Not synchronized.
class ArrivalGaps {
 public:
  void observe(obs::Clock::time_point arrival);
  /// duration::max() until a second arrival gives the first gap.
  obs::Clock::duration mean() const { return mean_; }

 private:
  std::optional<obs::Clock::time_point> last_;
  obs::Clock::duration mean_ = obs::Clock::duration::max();
};

/// A shard's forward estimate: the median of its last three successful
/// forwards (the smaller of two, the one of one, zero before the first),
/// so one preempted forward does not stretch the hold. Not synchronized.
class ForwardEstimate {
 public:
  void record(obs::Clock::duration forward);
  obs::Clock::duration estimate() const;

 private:
  std::array<obs::Clock::duration, 3> recent_{};
  std::size_t count_ = 0;  ///< forwards recorded, saturating at 3
  std::size_t next_ = 0;   ///< ring slot the next forward overwrites
};

/// Multi-threaded micro-batching front-end over one hot-swappable
/// CompiledNet.
class InferenceServer {
 public:
  /// `net` must outlive the server (it is borrowed, not owned; every
  /// shard serves it). Workers start immediately.
  InferenceServer(const CompiledNet& net, ServerConfig config);

  /// Shared-ownership variant: the server keeps the net alive for as
  /// long as it is published or an in-flight batch references it —
  /// required for hot swap, where the caller may drop its reference
  /// after swap().
  InferenceServer(std::shared_ptr<const CompiledNet> net,
                  ServerConfig config);

  /// Stops accepting work, drains the queues, joins workers.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueues one sample (rank >= 1, WITHOUT a batch axis: [features] or
  /// [C, H, W]) and returns a future for its output row (rank-1). Blocks
  /// while the routed shard's queue is full; throws CheckError after
  /// shutdown() or on a shape mismatch the net can detect up front.
  std::future<tensor::Tensor> submit(tensor::Tensor input);

  /// Admission-controlled submit: never blocks. Returns nullopt — and
  /// counts one shed — when the routed shard already has
  /// `queue_quota` (or queue_capacity, whichever bounds first) requests
  /// waiting. Throws after shutdown(), like submit().
  std::optional<std::future<tensor::Tensor>> try_submit(tensor::Tensor input);

  /// Publishes `net` as the serving version of every shard slot (active
  /// and parked). In-flight batches finish on the version they captured;
  /// requests already queued and all later submits run on the new one.
  /// The new net must report the same input_features() as the one served
  /// so far.
  void swap(std::shared_ptr<const CompiledNet> net);

  /// Sets how many shard slots receive new traffic, clamped to
  /// [1, max_shards]. Returns the resulting active count. Shrinking
  /// parks the tail shards: they drain their queues and idle until a
  /// later grow.
  std::size_t scale_to(std::size_t shards);

  std::size_t num_active_shards() const {
    return active_shards_.load(std::memory_order_acquire);
  }

  /// Total queued (not yet batched) requests across all shard slots.
  std::size_t queue_depth() const;

  /// Number of swap() publications so far.
  std::size_t swap_epoch() const { return swap_epoch_.load(); }

  /// Idempotent: rejects new submissions, lets workers drain what is
  /// already queued, then joins them.
  void shutdown();

  /// shutdown() + releases the published version (the RcuCell is
  /// cleared once the workers are joined, so nothing loads it). The
  /// eviction path: a decommissioned server keeps answering stats() but
  /// holds no weight memory. submit()/try_submit() throw, like after
  /// shutdown().
  void decommission();

  /// The server's traffic, read from its metric series (see stats.hpp);
  /// swap_count is swap_epoch().
  StatsSnapshot stats() const;

  /// Shard SLOTS (the scaling ceiling); see num_active_shards() for how
  /// many currently receive traffic.
  std::size_t num_shards() const { return shards_.size(); }

  const ServerConfig& config() const { return config_; }

 private:
  struct Request {
    tensor::Tensor input;
    std::promise<tensor::Tensor> result;
    obs::Clock::time_point enqueued;
    /// Nonzero when this request was picked by the trace sampler; its
    /// queue/batch/compute spans are recorded under this id.
    std::uint64_t trace_id = 0;
  };

  /// One worker group: a queue and its workers. Lock discipline: `mu`
  /// guards the queue, the stopping flag and the hold's inputs
  /// (`arrivals`, `forwards`); `workers` is touched only by the
  /// constructing/joining thread (never by the workers themselves).
  struct Shard {
    util::Mutex mu;
    util::CondVar queue_cv;  ///< signals work / shutdown
    util::CondVar space_cv;  ///< signals queue room
    std::deque<Request> queue DSTEE_GUARDED_BY(mu);
    bool stopping DSTEE_GUARDED_BY(mu) = false;
    /// Gaps between enqueue stamps, updated by enqueue().
    ArrivalGaps arrivals DSTEE_GUARDED_BY(mu);
    /// The shard's recent successful forwards, updated by next_batch().
    ForwardEstimate forwards DSTEE_GUARDED_BY(mu);

    // Shard workers ARE the serving inter-op layer (long-lived batchers,
    // not pool tasks): constructed in the InferenceServer ctor, joined in
    // shutdown(), never touched in between.
    // dstee-lint: allow(raw-thread) -- the one sanctioned spawn site
    std::vector<std::thread> workers;
  };

  /// Round-robin-by-shape routing target for the next request, over the
  /// currently active shards.
  Shard& route(const tensor::Shape& sample_shape);

  /// Shared tail of submit()/try_submit(): enqueue (caller holds
  /// shard.mu) and hand back the future.
  std::future<tensor::Tensor> enqueue(Shard& shard, tensor::Tensor input)
      DSTEE_REQUIRES(shard.mu);

  void validate_sample(const tensor::Tensor& input) const;

  struct Batch {
    std::vector<Request> requests;  ///< empty means shutdown
    FlushReason reason = FlushReason::kFull;
  };

  void worker_loop(Shard& shard);
  /// Pops the next micro-batch from `shard` (requests of equal sample
  /// shape, up to max_batch, held as decide_hold says). `forward` is the
  /// wall time of the caller's previous forward, or nullopt if it failed
  /// or none ran; it joins the shard's forward estimate under the lock
  /// the pop takes anyway.
  Batch next_batch(Shard& shard, std::optional<obs::Clock::duration> forward);

  ServerConfig config_;
  std::size_t input_features_ = 0;  ///< from the source net, for validation
  /// The served version: every shard's workers load it once per batch,
  /// swap() stores a new one.
  util::RcuCell<CompiledNet> net_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// The registry the series live in when config_.metrics is null.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  // The accounting, resolved once in the constructor (metric objects are
  // pointer-stable for the registry's lifetime) and never null; every
  // update is lock-free.
  obs::Histogram* latency_hist_ = nullptr;
  obs::Histogram* queue_wait_hist_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;
  obs::Histogram* blocked_hist_ = nullptr;  ///< submit() stalls, ms
  obs::Counter* requests_ctr_ = nullptr;
  obs::Counter* batches_ctr_ = nullptr;
  obs::Counter* shed_ctr_ = nullptr;
  obs::Gauge* queue_peak_ = nullptr;
  /// Indexed by FlushReason; they sum to batches_ctr_.
  std::array<obs::Counter*, kFlushReasons> flush_ctrs_{};

  /// Routing bound: shards_[0 .. active) receive new traffic. Release
  /// store in scale_to(), acquire load in route().
  std::atomic<std::size_t> active_shards_{1};

  /// Counts swap() publications; the one swap count StatsSnapshot reports.
  std::atomic<std::size_t> swap_epoch_{0};

  /// Round-robin cursors, one per shape hash bucket: routing costs one
  /// relaxed fetch_add — no global lock, no allocation — so concurrent
  /// submitters never serialize before reaching their shard queue. Two
  /// shapes landing in one bucket share a cursor, which still rotates
  /// fairly; it just coarsens "per shape" to "per bucket".
  static constexpr std::size_t kRouteBuckets = 64;
  std::array<std::atomic<std::size_t>, kRouteBuckets> route_cursors_{};
};

}  // namespace dstee::serve
