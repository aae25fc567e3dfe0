// Request tracing: per-request spans recorded into lock-free
// thread-local ring buffers, drained to Chrome trace-event JSON.
//
// Design constraints, in order:
//
//   1. Zero measurable cost when off. The serve hot path pays exactly one
//      predictable branch per request (TraceRecorder::sample() reads one
//      relaxed atomic flag) and per-op instrumentation is skipped
//      entirely unless the current request was sampled.
//   2. No locks, no allocation on the record path. Each recording thread
//      owns a fixed-capacity ring of slots; record() is a handful of
//      release atomic stores (plain moves on x86) bracketed by a per-slot
//      sequence word (a fence-free seqlock, single writer per ring). A
//      full ring overwrites its oldest events — tracing is a diagnostic
//      window, not a log.
//   3. Race-free draining from any thread, concurrent with writers.
//      Every slot field is a std::atomic, so a torn read is impossible at
//      the memory-model level (TSan-clean by construction); a LOGICALLY
//      torn event — writer overwrote the slot mid-read — is rejected by
//      re-validating the sequence word. Drain may miss the event being
//      written this instant; it never fabricates one.
//
// Span vocabulary (see serve/server.cpp for the recording sites): a
// sampled request records `request` = [enqueued, done], `queue` =
// [enqueued, popped] and `batch` = [popped, done] on its own request
// lane — the three share endpoints, so queue + batch sums EXACTLY to the
// request duration. The worker that ran the micro-batch records `flush`
// (whole batch) ⊃ `assemble` + `forward` ⊃ per-PlanOp `op` spans on its
// own thread lane. A ModelRegistry delta swap records `swap` ⊃ one
// `swap_phase` span per phase (apply, patch, bind, publish) on the lane
// of the thread that called it; the phases tile the swap.
// write_chrome_trace() emits both lane families as Chrome trace-event
// JSON ("X" complete events) loadable in Perfetto.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace dstee::obs {

/// What stage of the serve path a span covers. Drives the Chrome-trace
/// lane mapping: request-scoped kinds render on a per-request lane,
/// execution-scoped kinds on the recording thread's lane.
enum class SpanKind : std::uint8_t {
  kRequest = 0,  ///< enqueued -> promise fulfilled (the reported latency)
  kQueue,        ///< enqueued -> popped into a micro-batch
  kBatch,        ///< popped -> done, from this request's point of view
  kFlush,        ///< one whole micro-batch on the worker that ran it
  kAssemble,     ///< gathering batch rows into the input tensor
  kForward,      ///< the compiled-net forward for the batch
  kOp,           ///< one PlanOp node inside the executor
  kSwap,         ///< one model hot swap on the thread that ran it
  kSwapPhase,    ///< one phase of a swap (apply, patch, bind, publish)
};

const char* to_string(SpanKind kind);

/// True for kinds that render on the per-request lane (tid = trace id)
/// rather than the recording thread's lane.
inline bool is_request_scoped(SpanKind kind) {
  return kind == SpanKind::kRequest || kind == SpanKind::kQueue ||
         kind == SpanKind::kBatch;
}

/// One drained span. `name` points at a static string (PlanOp kind names,
/// span-kind literals) — recording never copies or allocates.
struct TraceEvent {
  std::uint64_t trace_id = 0;
  const char* name = nullptr;
  std::int64_t ts_ns = 0;   ///< obs::now_ns() at span start
  std::int64_t dur_ns = 0;  ///< span duration
  std::uint64_t arg = 0;    ///< kind-specific (batch size, node id, ...)
  SpanKind kind = SpanKind::kOp;
  std::uint32_t ring = 0;  ///< id of the ring (thread) that recorded it
};

/// Process-wide span recorder. One instance normally lives behind
/// obs::trace(); tests construct their own to isolate ring state.
class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 4096;

  explicit TraceRecorder(std::size_t ring_capacity = kDefaultRingCapacity);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Arms the recorder: every `sample_every`-th sample() call returns a
  /// fresh nonzero trace id (1 = trace every request).
  void enable(std::uint32_t sample_every = 1);

  /// Disarms: sample() returns 0. Already-recorded events stay drainable.
  void disable();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  std::uint32_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  /// The admission decision, called once per request on the submit path:
  /// returns a fresh nonzero trace id for every Nth request while
  /// enabled, else 0. When disabled this is ONE relaxed load + branch.
  std::uint64_t sample();

  /// A fresh nonzero trace id while enabled, whatever the sampling
  /// period; 0 when disabled. For control-plane work (a model swap),
  /// which is rare enough to trace every time.
  std::uint64_t fresh_id();

  /// Records a completed span on the calling thread's ring. No-op when
  /// `trace_id` is 0, so call sites need no enabled-check of their own.
  /// `name` must have static storage duration.
  void record(std::uint64_t trace_id, SpanKind kind, const char* name,
              std::int64_t ts_ns, std::int64_t dur_ns, std::uint64_t arg = 0);

  /// Snapshot of every valid slot across all rings, sorted by start time.
  /// Safe concurrently with writers (see file comment); does not clear.
  std::vector<TraceEvent> drain() const;

  /// Labels of all rings, indexed by TraceEvent::ring.
  std::vector<std::string> ring_labels() const;

  /// Drains and writes Chrome trace-event JSON (Perfetto-loadable):
  /// pid 1 = recording threads (tid = ring id), pid 2 = sampled requests
  /// (tid = trace id). Timestamps are rebased to the earliest event.
  void write_chrome_trace(std::ostream& os) const;

  std::size_t ring_capacity() const { return capacity_; }

  /// Number of rings registered so far (threads that recorded).
  std::size_t num_rings() const;

 private:
  /// One slot, seqlock-protected. seq == 0 means empty/being-written;
  /// otherwise seq is the 1-based monotonic write index, so a reader that
  /// sees the same nonzero seq before and after reading the fields knows
  /// no overwrite intervened (write indices never repeat).
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<std::int64_t> ts_ns{0};
    std::atomic<std::int64_t> dur_ns{0};
    std::atomic<std::uint64_t> arg{0};
    std::atomic<std::uint8_t> kind{0};
  };

  struct Ring {
    Ring(std::uint32_t id_in, std::size_t capacity)
        : slots(new Slot[capacity]), id(id_in) {}
    const std::unique_ptr<Slot[]> slots;
    // Monotonic write index. Written ONLY by the owning thread; drain
    // never reads it (it scans every slot and validates seq), so a plain
    // field is race-free.
    std::uint64_t next_write = 0;
    const std::uint32_t id;
    std::string label;  ///< guarded by the recorder's rings_mu_
  };

  /// The calling thread's ring, created (under rings_mu_) on first use
  /// and cached thread-locally afterwards.
  Ring& local_ring();

  const std::size_t capacity_;
  /// Process-unique instance serial: lets the thread-local ring cache
  /// tell this recorder from a destroyed one reallocated at the same
  /// address (tests construct short-lived recorders).
  std::uint64_t serial_ = 0;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> sample_every_{1};
  std::atomic<std::uint64_t> submit_seq_{0};
  std::atomic<std::uint64_t> next_trace_id_{0};

  mutable util::Mutex rings_mu_;
  // Ring objects are heap-stable (unique_ptr) and live until the recorder
  // dies: threads keep raw Ring pointers cached, so entries are never
  // removed. Only the vector itself (and each ring's label) is guarded.
  std::vector<std::unique_ptr<Ring>> rings_ DSTEE_GUARDED_BY(rings_mu_);
};

/// The process-wide recorder the serving stack records into.
TraceRecorder& trace();

/// Labels the calling thread's lane in trace output ("serve-s0-w1",
/// "pool-3", ...). Cheap and callable before any recorder exists; the
/// name sticks to rings the thread registers later.
void set_thread_name(const std::string& name);

/// The trace id of the request the calling thread is currently executing
/// (0 = none/unsampled). Set via ThreadTraceScope; read by the executor
/// to decide whether to record per-op spans.
std::uint64_t current_trace_id();

/// RAII: marks the calling thread as executing a sampled request for the
/// scope's lifetime (restores the previous id on exit, so nesting works).
class ThreadTraceScope {
 public:
  explicit ThreadTraceScope(std::uint64_t trace_id);
  ~ThreadTraceScope();

  ThreadTraceScope(const ThreadTraceScope&) = delete;
  ThreadTraceScope& operator=(const ThreadTraceScope&) = delete;

 private:
  std::uint64_t prev_;
};

}  // namespace dstee::obs
