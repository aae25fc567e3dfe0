#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <ostream>

#include "util/check.hpp"

namespace dstee::obs {

namespace {

/// Thread name staged before any ring exists (set_thread_name may run at
/// thread start, before the first record() registers a ring).
thread_local std::string tls_thread_name;  // NOLINT(runtime/string)

/// Trace id of the request currently executing on this thread.
thread_local std::uint64_t tls_trace_id = 0;

/// Per-recorder-instance serial, so a thread-local ring cache can tell a
/// destroyed-and-reallocated recorder from the one it registered with.
std::atomic<std::uint64_t> g_recorder_serial{0};

struct TlsRingCache {
  std::uint64_t recorder_serial = 0;
  void* ring = nullptr;
};
thread_local TlsRingCache tls_ring_cache;

void json_escape(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
}

}  // namespace

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest:
      return "request";
    case SpanKind::kQueue:
      return "queue";
    case SpanKind::kBatch:
      return "batch";
    case SpanKind::kFlush:
      return "flush";
    case SpanKind::kAssemble:
      return "assemble";
    case SpanKind::kForward:
      return "forward";
    case SpanKind::kOp:
      return "op";
    case SpanKind::kSwap:
      return "swap";
    case SpanKind::kSwapPhase:
      return "swap_phase";
  }
  return "?";
}

TraceRecorder::TraceRecorder(std::size_t ring_capacity)
    : capacity_(ring_capacity) {
  util::check(ring_capacity > 0, "TraceRecorder ring capacity must be > 0");
  serial_ = g_recorder_serial.fetch_add(1, std::memory_order_relaxed) + 1;
}

TraceRecorder::~TraceRecorder() = default;

void TraceRecorder::enable(std::uint32_t sample_every) {
  sample_every_.store(sample_every == 0 ? 1 : sample_every,
                      std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

std::uint64_t TraceRecorder::sample() {
  if (!enabled_.load(std::memory_order_relaxed)) return 0;
  const std::uint32_t every = sample_every_.load(std::memory_order_relaxed);
  const std::uint64_t n = submit_seq_.fetch_add(1, std::memory_order_relaxed);
  if (every > 1 && n % every != 0) return 0;
  return next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint64_t TraceRecorder::fresh_id() {
  if (!enabled_.load(std::memory_order_relaxed)) return 0;
  return next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1;
}

TraceRecorder::Ring& TraceRecorder::local_ring() {
  if (tls_ring_cache.ring != nullptr &&
      tls_ring_cache.recorder_serial == serial_) {
    return *static_cast<Ring*>(tls_ring_cache.ring);
  }
  util::MutexLock lock(rings_mu_);
  auto ring = std::make_unique<Ring>(
      static_cast<std::uint32_t>(rings_.size()), capacity_);
  ring->label = tls_thread_name.empty()
                    ? "thread-" + std::to_string(ring->id)
                    : tls_thread_name;
  Ring* raw = ring.get();
  rings_.push_back(std::move(ring));
  tls_ring_cache = {serial_, raw};
  return *raw;
}

void TraceRecorder::record(std::uint64_t trace_id, SpanKind kind,
                           const char* name, std::int64_t ts_ns,
                           std::int64_t dur_ns, std::uint64_t arg) {
  if (trace_id == 0) return;
  Ring& ring = local_ring();
  Slot& slot = ring.slots[ring.next_write % capacity_];
  // Seqlock writer, fence-free (Boehm, MSPC 2012): invalidate, then
  // store each field with release, so a reader that sees any new field
  // value also sees the invalidation; then publish the new sequence with
  // release so a reader that sees it also sees every field. On x86 every
  // one of these is a plain move.
  slot.seq.store(0, std::memory_order_relaxed);
  slot.trace_id.store(trace_id, std::memory_order_release);
  slot.name.store(name, std::memory_order_release);
  slot.ts_ns.store(ts_ns, std::memory_order_release);
  slot.dur_ns.store(dur_ns, std::memory_order_release);
  slot.arg.store(arg, std::memory_order_release);
  slot.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_release);
  slot.seq.store(ring.next_write + 1, std::memory_order_release);
  ++ring.next_write;
}

std::vector<TraceEvent> TraceRecorder::drain() const {
  std::vector<TraceEvent> events;
  util::MutexLock lock(rings_mu_);
  for (const std::unique_ptr<Ring>& ring : rings_) {
    for (std::size_t i = 0; i < capacity_; ++i) {
      const Slot& slot = ring->slots[i];
      // Seqlock reader: a slot is valid iff the sequence word is nonzero
      // and unchanged across the field reads (sequence values never
      // repeat, so an intervening overwrite cannot go unnoticed). The
      // field loads are acquire, so the second sequence load cannot move
      // above them: a field from a newer write brings that write's
      // invalidation with it.
      const std::uint64_t seq1 = slot.seq.load(std::memory_order_acquire);
      if (seq1 == 0) continue;
      TraceEvent ev;
      ev.trace_id = slot.trace_id.load(std::memory_order_acquire);
      ev.name = slot.name.load(std::memory_order_acquire);
      ev.ts_ns = slot.ts_ns.load(std::memory_order_acquire);
      ev.dur_ns = slot.dur_ns.load(std::memory_order_acquire);
      ev.arg = slot.arg.load(std::memory_order_acquire);
      ev.kind =
          static_cast<SpanKind>(slot.kind.load(std::memory_order_acquire));
      ev.ring = ring->id;
      const std::uint64_t seq2 = slot.seq.load(std::memory_order_relaxed);
      if (seq1 != seq2 || ev.name == nullptr) continue;
      events.push_back(ev);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              return a.dur_ns > b.dur_ns;  // parents before children
            });
  return events;
}

std::vector<std::string> TraceRecorder::ring_labels() const {
  util::MutexLock lock(rings_mu_);
  std::vector<std::string> labels;
  labels.reserve(rings_.size());
  for (const std::unique_ptr<Ring>& ring : rings_) {
    labels.push_back(ring->label);
  }
  return labels;
}

std::size_t TraceRecorder::num_rings() const {
  util::MutexLock lock(rings_mu_);
  return rings_.size();
}

void TraceRecorder::write_chrome_trace(std::ostream& os) const {
  const std::vector<TraceEvent> events = drain();
  const std::vector<std::string> labels = ring_labels();
  std::int64_t base_ns = 0;
  for (const TraceEvent& ev : events) {
    if (base_ns == 0 || ev.ts_ns < base_ns) base_ns = ev.ts_ns;
  }
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  comma();
  os << R"({"ph":"M","pid":1,"name":"process_name",)"
     << R"("args":{"name":"dstee workers"}})";
  comma();
  os << R"({"ph":"M","pid":2,"name":"process_name",)"
     << R"("args":{"name":"sampled requests"}})";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    comma();
    os << R"({"ph":"M","pid":1,"tid":)" << i
       << R"(,"name":"thread_name","args":{"name":")";
    json_escape(os, labels[i]);
    os << "\"}}";
  }
  for (const TraceEvent& ev : events) {
    const bool request_lane = is_request_scoped(ev.kind);
    const std::uint64_t tid = request_lane ? ev.trace_id : ev.ring;
    // Chrome trace ts/dur are microseconds; keep nanosecond precision
    // with three decimals.
    const auto us = [](std::int64_t ns) {
      const std::int64_t whole = ns / 1000;
      const std::int64_t frac = ns % 1000;
      return std::to_string(whole) + "." +
             std::string(frac < 100 ? (frac < 10 ? "00" : "0") : "") +
             std::to_string(frac);
    };
    comma();
    os << R"({"name":")" << ev.name << R"(","cat":")" << to_string(ev.kind)
       << R"(","ph":"X","pid":)" << (request_lane ? 2 : 1) << ",\"tid\":" << tid
       << ",\"ts\":" << us(ev.ts_ns - base_ns) << ",\"dur\":" << us(ev.dur_ns)
       << R"(,"args":{"trace_id":)" << ev.trace_id << ",\"arg\":" << ev.arg
       << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

TraceRecorder& trace() {
  static TraceRecorder recorder;
  return recorder;
}

void set_thread_name(const std::string& name) {
  tls_thread_name = name;
  // Re-label rings this thread already registered (cache hit path): the
  // cached ring, if any, belongs to whichever recorder registered it;
  // its label is guarded by that recorder's mutex, which we cannot name
  // here — so names set AFTER first record only affect future recorders.
  // Call set_thread_name at thread start (all call sites do).
}

std::uint64_t current_trace_id() { return tls_trace_id; }

ThreadTraceScope::ThreadTraceScope(std::uint64_t trace_id)
    : prev_(tls_trace_id) {
  tls_trace_id = trace_id;
}

ThreadTraceScope::~ThreadTraceScope() { tls_trace_id = prev_; }

}  // namespace dstee::obs
