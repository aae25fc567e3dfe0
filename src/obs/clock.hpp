// The one sanctioned timing surface for the serving stack.
//
// Every serve-path timestamp — micro-batch deadlines, latency samples,
// autoscaler polls, trace spans — reads obs::now(), so spans recorded by
// the TraceRecorder and the latencies the server's metrics record are
// measured on the SAME monotonic clock and can be cross-checked exactly (a
// request span's duration is the latency the dstee_request_latency_ms
// histogram observed for it).
// tools/dstee_lint's `serve-timing` rule bars src/serve/ from naming
// std::chrono::steady_clock directly, which keeps this the single
// definition site.
//
// obs::Clock is std::chrono::steady_clock: monotonic (never jumps on NTP
// adjustments), cheap (a vDSO read on Linux), and the clock the rest of
// the standard library's waiting primitives use, so wait_until deadlines
// built from obs::now() need no conversion.
#pragma once

#include <chrono>
#include <cstdint>

namespace dstee::obs {

using Clock = std::chrono::steady_clock;

/// The current monotonic time. THE timing call for serve hot paths.
inline Clock::time_point now() { return Clock::now(); }

/// Nanoseconds since the (arbitrary, boot-relative) clock epoch. Spans
/// store these: 64-bit signed covers ~292 years of uptime.
inline std::int64_t to_ns(Clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

/// to_ns(now()) — the span-recording fast path.
inline std::int64_t now_ns() { return to_ns(now()); }

/// Fractional milliseconds from `from` to `to` (negative if reversed).
inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace dstee::obs
