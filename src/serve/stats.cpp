#include "serve/stats.hpp"

#include "util/string_util.hpp"

namespace dstee::serve {

std::string StatsSnapshot::to_string() const {
  std::string out;
  out += "requests:        " + std::to_string(requests) + "\n";
  out += "batches:         " + std::to_string(batches) + "\n";
  out += "mean batch size: " + util::format_fixed(mean_batch_size, 2) + "\n";
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
