// Metrics: named counters / gauges / log-linear histograms with an
// optional per-model label, exported as Prometheus text exposition and
// as flat (name, label, value) samples for CSV trending. They are the
// serving stack's one accounting system: InferenceServer::stats() reads
// its StatsSnapshot back from the series its workers record into.
//
// Update paths are lock-free (relaxed atomics; the histogram sum and a
// gauge's raise_to are CAS loops), so servers can record into a metric
// from every worker without a shared lock. The registry itself locks
// only on get-or-create and on export — both cold. Metric objects are
// pointer-stable for the registry's lifetime: call counter()/gauge()/
// histogram() once at setup, keep the reference, and update it forever.
//
// Histogram buckets split each power of two from 2^-10 (~0.001) to 2^20
// into 8 linear steps, bounds 2^k * (1 + j/8): every bucket is at most
// 12.5% wide relative to its lower bound, so a quantile interpolated in
// its bucket is within 12.5% of the sample at that rank. The bucket
// index comes in O(1) from the value's exponent and leading mantissa
// bits. Exposition follows the Prometheus convention: cumulative `le`
// buckets, a `+Inf` bucket equal to `_count`, and a `_sum` sample.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace dstee::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  /// Raises the value to `v` when `v` is larger (a high-water mark).
  /// Lock-free: a relaxed max-CAS.
  void raise_to(double v) {
    double seen = v_.load(std::memory_order_relaxed);
    while (v > seen &&
           !v_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-linear histogram of non-negative samples: 8 linear buckets per
/// power of two.
class Histogram {
 public:
  /// Linear buckets per power of two.
  static constexpr std::size_t kSubBuckets = 8;
  /// The finite buckets span [2^kMinExp, 2^kMaxExp]; smaller values
  /// (zero included) land in the first, larger ones in +Inf.
  static constexpr int kMinExp = -10;
  static constexpr int kMaxExp = 20;
  /// Finite buckets; one implicit +Inf bucket follows.
  static constexpr std::size_t kNumBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets;

  void observe(double v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // Accumulate the double sum via CAS on its bit pattern — atomic
    // fetch_add on doubles is C++20 but spotty across libstdc++ versions.
    std::uint64_t old_bits = sum_bits_.load(std::memory_order_relaxed);
    while (!sum_bits_.compare_exchange_weak(
        old_bits, std::bit_cast<std::uint64_t>(
                      std::bit_cast<double>(old_bits) + v),
        std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const {
    return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
  }

  /// Per-bucket (non-cumulative) count; index kNumBuckets is +Inf.
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Estimated `q`-quantile, `q` in [0, 1] (CheckError otherwise): the
  /// nearest-rank sample's bucket, interpolated linearly inside it, so
  /// within 12.5% of that sample. The rank comes from the bucket counts
  /// this call read, so a concurrent observe() never moves it past the
  /// last bucket. 0 when empty; a rank in +Inf reads as the top finite
  /// bound, 2^kMaxExp. quantile(1.0) bounds the largest sample.
  double quantile(double q) const;

  /// Upper bound of finite bucket i, 2^k * (1 + j/8) with k = kMinExp +
  /// i / 8 and j = i % 8 + 1 (exclusive above, inclusive at).
  static double bucket_le(std::size_t i);

  /// Index of the bucket `v` lands in (kNumBuckets = +Inf overflow).
  static std::size_t bucket_index(double v);

 private:
  std::atomic<std::uint64_t> buckets_[kNumBuckets + 1]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};
};

/// Get-or-create registry of named metrics with an optional `model`
/// label. Same (name, label) always returns the same object; the same
/// name with two different metric kinds fails loudly.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const std::string& label = "",
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& label = "",
               const std::string& help = "");
  Histogram& histogram(const std::string& name, const std::string& label = "",
                       const std::string& help = "");

  /// One flat sample for CSV trending. Histograms flatten to `_count`
  /// and `_sum` rows.
  struct Sample {
    std::string name;
    std::string label;
    double value = 0.0;
  };
  std::vector<Sample> snapshot() const;

  /// Prometheus text exposition (# HELP / # TYPE / samples; histograms
  /// with cumulative le buckets, +Inf, _sum and _count).
  std::string prometheus_text() const;

  std::size_t num_metrics() const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;
    std::string label;
    std::string help;
    Kind kind = Kind::kCounter;
    // Exactly one is set, matching `kind`. unique_ptr keeps the metric
    // heap-stable while the deque reallocates nothing anyway.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Every series of one metric name.
  struct Family {
    Kind kind = Kind::kCounter;
    std::unordered_map<std::string, Entry*> by_label;
  };

  Entry& get_or_create(const std::string& name, const std::string& label,
                       const std::string& help, Kind kind)
      DSTEE_REQUIRES(mu_);

  mutable util::Mutex mu_;
  /// Every series in first-registration order (the export order).
  std::deque<Entry> entries_ DSTEE_GUARDED_BY(mu_);
  /// The lookup index over entries_: a series costs two hash probes
  /// however many are registered.
  std::unordered_map<std::string, Family> families_ DSTEE_GUARDED_BY(mu_);
};

/// The process-wide registry serve-path metrics land in.
MetricsRegistry& metrics();

}  // namespace dstee::obs
