// Serving metrics: per-request latency and aggregate throughput.
//
// Synchronization contract (two tiers, encoded in the annotations below):
//  - COUNTERS (requests, batches, queue peak, blocked time) are relaxed
//    atomics. Recording them is lock-free and snapshot()/aggregate()
//    readers never block a worker recording a counter — the guarantee
//    backpressure accounting relies on.
//  - LATENCY SAMPLES live in a bounded ring guarded by `mu_`. A worker
//    finishing a batch and a reader copying the window for percentile
//    sorting share that mutex briefly (the copy is O(window), the sort
//    happens outside the lock), so sample recording can block on a
//    concurrent snapshot — by design, and only for the window copy.
// Counters and samples are therefore not mutually consistent to the
// request: a snapshot may see a counter tick whose latency sample is not
// in the window yet. Percentiles are over the recent window anyway, so
// the skew is invisible in practice.
//
// A sharded server keeps one ServerStats per worker group and derives the
// server-wide view with aggregate().
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace dstee::obs {
class MetricsRegistry;
}  // namespace dstee::obs

namespace dstee::serve {

/// Point-in-time aggregate view of a server's (or one shard's) traffic.
struct StatsSnapshot {
  std::size_t requests = 0;       ///< completed requests
  std::size_t batches = 0;        ///< forward passes executed
  double elapsed_seconds = 0.0;   ///< since construction
  double throughput_rps = 0.0;    ///< requests / elapsed
  double mean_batch_size = 0.0;   ///< requests / batches
  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_p999_ms = 0.0;
  double latency_max_ms = 0.0;
  std::size_t queue_peak = 0;     ///< queue-depth high-water mark
  double blocked_ms = 0.0;        ///< total submit() backpressure wait
  std::size_t shed_total = 0;     ///< admission-control rejects (try_submit)
  /// Hot-swap versions published. Set by InferenceServer from its swap
  /// epoch (every shard serves every version); a bare ServerStats leaves
  /// it 0.
  std::size_t swap_count = 0;

  /// Multi-line human-readable report.
  std::string to_string() const;
};

/// Linear-interpolated percentile of an ASCENDING-sorted sample set;
/// `q` in [0, 1]. Returns 0 for an empty sample. Exposed for tests.
double percentile(const std::vector<double>& sorted_ascending, double q);

/// Thread-safe latency/throughput recorder shared by server workers.
///
/// Request/batch counters are exact. Latency samples live in a bounded
/// ring holding the most recent `kMaxLatencySamples` requests, so a
/// long-running server neither grows without bound nor pays ever-larger
/// percentile sorts — latency stats are over the recent window, counts
/// and throughput over the full lifetime.
class ServerStats {
 public:
  static constexpr std::size_t kMaxLatencySamples = 1u << 16;

  ServerStats() : start_(obs::now()) {}

  /// Records one executed micro-batch and the end-to-end latency (queue
  /// wait + compute) of each request it contained.
  void record_batch(const std::vector<double>& request_latencies_ms);

  /// Records the queue depth observed right after an enqueue; keeps the
  /// high-water mark. Lock-free (relaxed max-CAS).
  void record_queue_depth(std::size_t depth);

  /// Adds one submit() backpressure stall to the blocked-time total.
  /// Lock-free (relaxed add, microsecond resolution).
  void record_blocked_ms(double ms);

  /// Counts one request rejected by admission control (a try_submit()
  /// that found the routed queue at its quota). Lock-free (relaxed add).
  void record_shed();

  /// Aggregates everything recorded so far.
  StatsSnapshot snapshot() const;

  /// Server-wide view over per-shard recorders: counts and blocked time
  /// sum, queue peak is the max across groups, elapsed is the longest
  /// clock, and percentiles are computed over the union of the groups'
  /// latency windows.
  static StatsSnapshot aggregate(const std::vector<const ServerStats*>& groups);

 private:
  /// All serve-path timing goes through the obs clock surface — the
  /// serve-timing lint rule keeps raw steady_clock calls out of src/serve.
  using Clock = obs::Clock;

  static StatsSnapshot finalize(std::size_t requests, std::size_t batches,
                                double elapsed_seconds,
                                std::vector<double> samples,
                                std::size_t queue_peak, double blocked_ms,
                                std::size_t shed_total);

  // Latency ring: guarded. Copying the window is the only work readers do
  // under the lock.
  mutable util::Mutex mu_;
  std::vector<double> latencies_ms_
      DSTEE_GUARDED_BY(mu_);  ///< ring, capped at kMaxLatencySamples
  std::size_t next_slot_ DSTEE_GUARDED_BY(mu_) = 0;  ///< ring slot once full
  const Clock::time_point start_;  ///< throughput clock base

  // Counters: lock-free by design (see file comment) and monotonic.
  std::atomic<std::size_t> requests_{0};
  std::atomic<std::size_t> batches_{0};
  std::atomic<std::size_t> queue_peak_{0};
  std::atomic<std::int64_t> blocked_us_{0};  ///< integral microseconds
  std::atomic<std::size_t> shed_{0};
};

/// Surfaces one StatsSnapshot through the obs metrics registry under the
/// given model label — every snapshot field becomes a gauge named
/// dstee_stats_<field> (gauges, not counters: a snapshot is a point-in-
/// time total, and re-exporting a counter would double-count). The bridge
/// from the server's internal accounting to `dstee_serve --metrics-out`.
void export_stats_metrics(obs::MetricsRegistry& registry,
                          const std::string& label, const StatsSnapshot& s);

}  // namespace dstee::serve
