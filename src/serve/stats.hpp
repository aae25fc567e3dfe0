// StatsSnapshot: a server's traffic, read back from its obs metrics.
//
// An InferenceServer records each request, batch, shed, backpressure
// stall and queue depth once, into obs::MetricsRegistry series labeled
// with its model name (see ServerConfig::metrics), and stats() reads
// those series back — the metrics are the one accounting system. The
// counts (requests, batches, queue peak, shed, blocked time) are the
// series' exact values. The latency figures come from the
// dstee_request_latency_ms histogram over the series' lifetime: each
// quantile is within 12.5% of the sample at its rank (see
// obs::Histogram::quantile). Counts read while workers run may lag one
// another by the batches in flight; read after shutdown() they are exact.
#pragma once

#include <cstddef>
#include <string>

namespace dstee::serve {

/// Point-in-time view of a server's traffic.
struct StatsSnapshot {
  std::size_t requests = 0;       ///< completed requests
  std::size_t batches = 0;        ///< forward passes executed
  double mean_batch_size = 0.0;   ///< requests / batches
  double latency_mean_ms = 0.0;   ///< latency sum / count
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_p999_ms = 0.0;
  double latency_max_ms = 0.0;    ///< the 1.0-quantile (see above)
  std::size_t queue_peak = 0;     ///< queue-depth high-water mark
  double blocked_ms = 0.0;        ///< total submit() backpressure wait
  std::size_t shed_total = 0;     ///< admission-control rejects (try_submit)
  /// Hot-swap versions published: the server's swap_epoch().
  std::size_t swap_count = 0;

  /// Multi-line human-readable report.
  std::string to_string() const;
};

}  // namespace dstee::serve
