#include "serve/stats.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"

namespace dstee::serve {

double percentile(const std::vector<double>& sorted_ascending, double q) {
  util::check(q >= 0.0 && q <= 1.0, "percentile rank must be in [0, 1]");
  if (sorted_ascending.empty()) return 0.0;
  const double pos =
      q * static_cast<double>(sorted_ascending.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted_ascending.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_ascending[lo] * (1.0 - frac) + sorted_ascending[hi] * frac;
}

void ServerStats::record_batch(
    const std::vector<double>& request_latencies_ms) {
  // Requests before the batch (release), read in the opposite order
  // (acquire): a snapshot never counts a batch without its requests.
  requests_.fetch_add(request_latencies_ms.size(), std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_release);
  util::MutexLock lock(mu_);
  for (const double latency : request_latencies_ms) {
    if (latencies_ms_.size() < kMaxLatencySamples) {
      latencies_ms_.push_back(latency);
    } else {
      latencies_ms_[next_slot_] = latency;
      next_slot_ = (next_slot_ + 1) % kMaxLatencySamples;
    }
  }
}

void ServerStats::record_queue_depth(std::size_t depth) {
  // Relaxed max-CAS: never blocks, never blocked by a snapshot.
  std::size_t seen = queue_peak_.load(std::memory_order_relaxed);
  while (depth > seen && !queue_peak_.compare_exchange_weak(
                             seen, depth, std::memory_order_relaxed)) {
  }
}

void ServerStats::record_blocked_ms(double ms) {
  blocked_us_.fetch_add(static_cast<std::int64_t>(ms * 1000.0),
                        std::memory_order_relaxed);
}

void ServerStats::record_shed() {
  shed_.fetch_add(1, std::memory_order_relaxed);
}

StatsSnapshot ServerStats::finalize(std::size_t requests,
                                    std::size_t batches,
                                    double elapsed_seconds,
                                    std::vector<double> samples,
                                    std::size_t queue_peak,
                                    double blocked_ms,
                                    std::size_t shed_total) {
  StatsSnapshot s;
  s.requests = requests;
  s.batches = batches;
  s.elapsed_seconds = elapsed_seconds;
  s.queue_peak = queue_peak;
  s.blocked_ms = blocked_ms;
  s.shed_total = shed_total;
  std::sort(samples.begin(), samples.end());
  if (s.elapsed_seconds > 0.0) {
    s.throughput_rps = static_cast<double>(s.requests) / s.elapsed_seconds;
  }
  if (s.batches > 0) {
    s.mean_batch_size =
        static_cast<double>(s.requests) / static_cast<double>(s.batches);
  }
  if (!samples.empty()) {
    double sum = 0.0;
    for (const double v : samples) sum += v;
    s.latency_mean_ms = sum / static_cast<double>(samples.size());
    s.latency_p50_ms = percentile(samples, 0.50);
    s.latency_p95_ms = percentile(samples, 0.95);
    s.latency_p99_ms = percentile(samples, 0.99);
    s.latency_p999_ms = percentile(samples, 0.999);
    s.latency_max_ms = samples.back();
  }
  return s;
}

StatsSnapshot ServerStats::snapshot() const {
  std::vector<double> samples;
  {
    // The lock covers only the sample-window copy; counter reads below
    // are lock-free and never stall a worker.
    util::MutexLock lock(mu_);
    samples = latencies_ms_;
  }
  const double elapsed =
      std::chrono::duration<double>(obs::now() - start_).count();
  const std::size_t batches = batches_.load(std::memory_order_acquire);
  const std::size_t requests = requests_.load(std::memory_order_relaxed);
  return finalize(requests, batches, elapsed, std::move(samples),
                  queue_peak_.load(std::memory_order_relaxed),
                  static_cast<double>(
                      blocked_us_.load(std::memory_order_relaxed)) /
                      1000.0,
                  shed_.load(std::memory_order_relaxed));
}

StatsSnapshot ServerStats::aggregate(
    const std::vector<const ServerStats*>& groups) {
  std::vector<double> samples;
  std::size_t requests = 0, batches = 0, queue_peak = 0;
  std::size_t shed = 0;
  double blocked_ms = 0.0, elapsed = 0.0;
  for (const ServerStats* group : groups) {
    batches += group->batches_.load(std::memory_order_acquire);
    requests += group->requests_.load(std::memory_order_relaxed);
    queue_peak = std::max(
        queue_peak, group->queue_peak_.load(std::memory_order_relaxed));
    shed += group->shed_.load(std::memory_order_relaxed);
    blocked_ms += static_cast<double>(
                      group->blocked_us_.load(std::memory_order_relaxed)) /
                  1000.0;
    elapsed = std::max(
        elapsed,
        std::chrono::duration<double>(obs::now() - group->start_).count());
    util::MutexLock lock(group->mu_);
    samples.insert(samples.end(), group->latencies_ms_.begin(),
                   group->latencies_ms_.end());
  }
  return finalize(requests, batches, elapsed, std::move(samples), queue_peak,
                  blocked_ms, shed);
}

void export_stats_metrics(obs::MetricsRegistry& registry,
                          const std::string& label, const StatsSnapshot& s) {
  const auto set = [&](const char* name, double value, const char* help) {
    registry.gauge(name, label, help).set(value);
  };
  set("dstee_stats_requests", static_cast<double>(s.requests),
      "Completed requests");
  set("dstee_stats_batches", static_cast<double>(s.batches),
      "Forward passes executed");
  set("dstee_stats_mean_batch_size", s.mean_batch_size,
      "Requests per executed batch");
  set("dstee_stats_throughput_rps", s.throughput_rps,
      "Requests per second since the server started");
  set("dstee_stats_latency_mean_ms", s.latency_mean_ms,
      "Mean end-to-end latency over the recent window, ms");
  set("dstee_stats_latency_p50_ms", s.latency_p50_ms,
      "p50 end-to-end latency over the recent window, ms");
  set("dstee_stats_latency_p99_ms", s.latency_p99_ms,
      "p99 end-to-end latency over the recent window, ms");
  set("dstee_stats_queue_peak", static_cast<double>(s.queue_peak),
      "Queue-depth high-water mark");
  set("dstee_stats_blocked_ms", s.blocked_ms,
      "Total submit() backpressure wait, ms");
  set("dstee_stats_shed", static_cast<double>(s.shed_total),
      "Requests rejected by admission control");
  set("dstee_stats_swaps", static_cast<double>(s.swap_count),
      "Hot-swap versions published");
}

std::string StatsSnapshot::to_string() const {
  std::string out;
  out += "requests:        " + std::to_string(requests) + "\n";
  out += "batches:         " + std::to_string(batches) + "\n";
  out += "mean batch size: " + util::format_fixed(mean_batch_size, 2) + "\n";
  out += "elapsed:         " + util::format_fixed(elapsed_seconds, 3) + " s\n";
  out += "throughput:      " + util::format_fixed(throughput_rps, 1) +
         " req/s\n";
  out += "latency mean:    " + util::format_fixed(latency_mean_ms, 3) +
         " ms\n";
  out += "latency p50:     " + util::format_fixed(latency_p50_ms, 3) + " ms\n";
  out += "latency p95:     " + util::format_fixed(latency_p95_ms, 3) + " ms\n";
  out += "latency p99:     " + util::format_fixed(latency_p99_ms, 3) + " ms\n";
  out += "latency p99.9:   " + util::format_fixed(latency_p999_ms, 3) +
         " ms\n";
  out += "latency max:     " + util::format_fixed(latency_max_ms, 3) + " ms\n";
  out += "queue peak:      " + std::to_string(queue_peak) + "\n";
  out += "blocked in submit: " + util::format_fixed(blocked_ms, 3) + " ms\n";
  out += "shed (admission):  " + std::to_string(shed_total) + "\n";
  out += "hot swaps:       " + std::to_string(swap_count) + "\n";
  return out;
}

}  // namespace dstee::serve
