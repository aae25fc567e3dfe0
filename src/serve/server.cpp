#include "serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace dstee::serve {

namespace {

// The obs clock is the one sanctioned serve-path timing surface (lint
// rule serve-timing); the millis helper below is pure duration
// arithmetic.
using Clock = obs::Clock;

Clock::duration millis_duration(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

// Indexed by FlushReason. Span names need static storage
// (TraceRecorder::record copies only the pointer).
constexpr const char* kFlushReasonNames[] = {"full", "window", "deadline",
                                             "shutdown", "idle"};
constexpr const char* kFlushSpanNames[] = {"flush:full", "flush:window",
                                           "flush:deadline",
                                           "flush:shutdown", "flush:idle"};

}  // namespace

HoldDecision decide_hold(std::size_t queued, Clock::duration head_age,
                         Clock::duration forward, Clock::duration mean_gap,
                         bool stopping, const ServerConfig& config) {
  if (queued >= config.max_batch) return FlushReason::kFull;
  if (stopping) return FlushReason::kShutdown;
  // A forward shorter than the mean gap ends before the next request is
  // due: holding would only delay the head.
  if (!config.fill_or_timeout && forward < mean_gap) return FlushReason::kIdle;
  const Clock::duration max_delay = millis_duration(config.max_delay_ms);
  const bool windowed = !config.fill_or_timeout && forward < max_delay;
  const Clock::duration hold = windowed ? forward : max_delay;
  if (head_age >= hold) {
    return windowed ? FlushReason::kWindow : FlushReason::kDeadline;
  }
  return hold - head_age;
}

void ArrivalGaps::observe(Clock::time_point arrival) {
  if (last_) {
    const Clock::duration gap = arrival - *last_;
    mean_ = mean_ == Clock::duration::max() ? gap : mean_ + (gap - mean_) / 8;
  }
  last_ = arrival;
}

void ForwardEstimate::record(Clock::duration forward) {
  recent_[next_] = forward;
  next_ = (next_ + 1) % recent_.size();
  count_ = std::min(count_ + 1, recent_.size());
}

Clock::duration ForwardEstimate::estimate() const {
  // Until the ring fills, its first count_ slots hold every forward.
  const auto& [a, b, c] = recent_;
  switch (count_) {
    case 0:
      return {};
    case 1:
      return a;
    case 2:
      return std::min(a, b);
    default:
      return std::max(std::min(a, b), std::min(std::max(a, b), c));
  }
}

InferenceServer::InferenceServer(const CompiledNet& net, ServerConfig config)
    : InferenceServer(util::borrow(net), config) {}

InferenceServer::InferenceServer(std::shared_ptr<const CompiledNet> net,
                                 ServerConfig config)
    : config_(config) {
  util::check(net != nullptr, "server requires a non-null net");
  input_features_ = net->input_features();
  util::check(config_.num_threads >= 1, "server requires >= 1 worker thread");
  util::check(config_.num_shards >= 1, "server requires >= 1 shard");
  util::check(config_.max_batch >= 1, "server requires max_batch >= 1");
  util::check(config_.max_delay_ms >= 0.0,
              "server max_delay_ms must be non-negative");
  util::check(config_.queue_capacity >= config_.max_batch,
              "queue_capacity must be >= max_batch");
  if (config_.max_shards == 0) config_.max_shards = config_.num_shards;
  util::check(config_.max_shards >= config_.num_shards,
              "max_shards must be >= num_shards");
  util::check(config_.queue_quota <= config_.queue_capacity,
              "queue_quota must be <= queue_capacity");
  net_.store(std::move(net));
  shards_.reserve(config_.max_shards);
  for (std::size_t s = 0; s < config_.max_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  active_shards_.store(config_.num_shards, std::memory_order_release);
  if (config_.metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
  }
  obs::MetricsRegistry& metrics =
      config_.metrics != nullptr ? *config_.metrics : *owned_metrics_;
  const std::string& label = config_.metrics_label;
  latency_hist_ = &metrics.histogram(
      "dstee_request_latency_ms", label,
      "End-to-end request latency (queue wait + compute), milliseconds");
  requests_ctr_ =
      &metrics.counter("dstee_requests_total", label, "Completed requests");
  batches_ctr_ =
      &metrics.counter("dstee_batches_total", label, "Micro-batches executed");
  queue_wait_hist_ = &metrics.histogram(
      "dstee_queue_wait_ms", label,
      "Time from enqueue to being popped into a micro-batch, milliseconds");
  batch_size_hist_ = &metrics.histogram("dstee_batch_size", label,
                                        "Requests per executed micro-batch");
  shed_ctr_ = &metrics.counter("dstee_requests_shed_total", label,
                               "Requests rejected by admission control");
  blocked_hist_ = &metrics.histogram(
      "dstee_submit_blocked_ms", label,
      "submit() backpressure stalls on a full queue, milliseconds");
  queue_peak_ = &metrics.gauge("dstee_queue_depth_peak", label,
                               "Most requests queued on one shard");
  static_assert(std::size(kFlushReasonNames) == kFlushReasons &&
                std::size(kFlushSpanNames) == kFlushReasons);
  for (std::size_t r = 0; r < kFlushReasons; ++r) {
    const std::string reason = kFlushReasonNames[r];
    flush_ctrs_[r] = &metrics.counter(
        "dstee_batch_flush_" + reason + "_total", label,
        "Executed micro-batches whose hold ended by: " + reason);
  }
  // Workers start only after every shard exists: a worker never observes a
  // half-built shards_ vector.
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    Shard* s = shards_[si].get();
    s->workers.reserve(config_.num_threads);
    for (std::size_t t = 0; t < config_.num_threads; ++t) {
      s->workers.emplace_back([this, s, si, t] {
        // Named at thread start, before the first trace record registers
        // this thread's ring (see obs::set_thread_name).
        obs::set_thread_name("serve-s" + std::to_string(si) + "-w" +
                             std::to_string(t));
        worker_loop(*s);
      });
    }
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

InferenceServer::Shard& InferenceServer::route(
    const tensor::Shape& sample_shape) {
  const std::size_t active = active_shards_.load(std::memory_order_acquire);
  if (active == 1) return *shards_[0];
  // FNV-1a over the dims picks the shape's cursor bucket.
  std::size_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < sample_shape.rank(); ++i) {
    h ^= sample_shape.dim(i) + 1;
    h *= 1099511628211ull;
  }
  std::atomic<std::size_t>& cursor = route_cursors_[h % kRouteBuckets];
  return *shards_[cursor.fetch_add(1, std::memory_order_relaxed) % active];
}

void InferenceServer::validate_sample(const tensor::Tensor& input) const {
  util::check(input.rank() >= 1,
              "submit expects a sample without a batch axis, e.g. "
              "[features] or [C, H, W]");
  // A CSR-linear-first net pins the flat feature count; conv-first nets
  // validate [C, H, W] inside the first op instead. Runs on every submit,
  // so the message is built only on failure.
  if (input_features_ != 0 &&
      (input.rank() != 1 || input.numel() != input_features_)) {
    util::fail("sample has shape " + input.shape().to_string() +
               ", net expects [" + std::to_string(input_features_) + "]");
  }
}

std::future<tensor::Tensor> InferenceServer::enqueue(Shard& shard,
                                                     tensor::Tensor input) {
  Request req;
  req.input = std::move(input);
  // One relaxed load when tracing is off; a sampled request gets a
  // nonzero id and its spans land in the trace.
  req.trace_id = obs::trace().sample();
  req.enqueued = obs::now();
  shard.arrivals.observe(req.enqueued);
  std::future<tensor::Tensor> result = req.result.get_future();
  shard.queue.push_back(std::move(req));
  queue_peak_->raise_to(static_cast<double>(shard.queue.size()));
  shard.queue_cv.notify_one();
  return result;
}

std::future<tensor::Tensor> InferenceServer::submit(tensor::Tensor input) {
  validate_sample(input);
  Shard& shard = route(input.shape());
  util::UniqueLock lock(shard.mu);
  if (!shard.stopping && shard.queue.size() >= config_.queue_capacity) {
    // Backpressure stall: the wait itself is part of the serving story,
    // so it is measured and surfaced instead of silently absorbed.
    const Clock::time_point blocked_from = obs::now();
    while (!shard.stopping &&
           shard.queue.size() >= config_.queue_capacity) {
      shard.space_cv.wait(lock);
    }
    blocked_hist_->observe(obs::ms_between(blocked_from, obs::now()));
  }
  util::check(!shard.stopping, "submit on a shut-down server");
  return enqueue(shard, std::move(input));
}

std::optional<std::future<tensor::Tensor>> InferenceServer::try_submit(
    tensor::Tensor input) {
  validate_sample(input);
  Shard& shard = route(input.shape());
  const std::size_t quota =
      config_.queue_quota > 0 ? config_.queue_quota : config_.queue_capacity;
  util::UniqueLock lock(shard.mu);
  util::check(!shard.stopping, "try_submit on a shut-down server");
  if (shard.queue.size() >= quota) {
    shed_ctr_->add(1);
    return std::nullopt;
  }
  return enqueue(shard, std::move(input));
}

void InferenceServer::swap(std::shared_ptr<const CompiledNet> net) {
  util::check(net != nullptr, "swap requires a non-null net");
  util::check(net->input_features() == input_features_,
              "swap: replacement net expects a different input shape");
  // One cell for every slot, parked ones included: a later scale_to()
  // grow serves the current version by construction.
  net_.store(std::move(net));
  ++swap_epoch_;
}

std::size_t InferenceServer::scale_to(std::size_t shards) {
  std::size_t target = shards;
  if (target < 1) target = 1;
  if (target > shards_.size()) target = shards_.size();
  active_shards_.store(target, std::memory_order_release);
  return target;
}

std::size_t InferenceServer::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    depth += shard->queue.size();
  }
  return depth;
}

InferenceServer::Batch InferenceServer::next_batch(
    Shard& shard, std::optional<Clock::duration> forward) {
  util::UniqueLock lock(shard.mu);
  if (forward) shard.forwards.record(*forward);
  for (;;) {
    while (!shard.stopping && shard.queue.empty()) shard.queue_cv.wait(lock);
    if (shard.queue.empty()) return {};  // stopping and fully drained

    // Decided afresh on every wake: another worker may have drained the
    // queue and a newer request become head, or finished a forward and
    // moved the estimate.
    FlushReason reason = FlushReason::kFull;
    while (!shard.queue.empty()) {
      const Clock::time_point now = obs::now();
      const HoldDecision decision = decide_hold(
          shard.queue.size(), now - shard.queue.front().enqueued,
          shard.forwards.estimate(), shard.arrivals.mean(), shard.stopping,
          config_);
      if (const auto* flush = std::get_if<FlushReason>(&decision)) {
        reason = *flush;
        break;
      }
      shard.queue_cv.wait_until(lock,
                                now + std::get<Clock::duration>(decision));
    }
    if (shard.queue.empty()) continue;

    // Requests in one tensor must agree on sample shape; heterogeneous
    // traffic simply splits into per-shape batches.
    Batch batch{{}, reason};
    const tensor::Shape sample_shape = shard.queue.front().input.shape();
    while (!shard.queue.empty() && batch.requests.size() < config_.max_batch &&
           shard.queue.front().input.shape() == sample_shape) {
      batch.requests.push_back(std::move(shard.queue.front()));
      shard.queue.pop_front();
    }
    shard.space_cv.notify_all();
    return batch;
  }
}

void InferenceServer::worker_loop(Shard& shard) {
  // Wall time of this worker's last forward, handed to next_batch for the
  // shard's forward estimate. A failed batch hands nullopt.
  std::optional<Clock::duration> forward;
  for (;;) {
    Batch next = next_batch(shard, std::exchange(forward, std::nullopt));
    std::vector<Request>& batch = next.requests;
    if (batch.empty()) return;

    // Trace bookkeeping: the batch's worker-side spans (flush/assemble/
    // forward) are attributed to the first sampled request in it; with
    // tracing off every trace_id is 0 and each record() below is a
    // single predictable branch.
    const Clock::time_point popped = obs::now();
    std::uint64_t batch_tid = 0;
    for (const Request& req : batch) {
      if (req.trace_id != 0) {
        batch_tid = req.trace_id;
        break;
      }
    }

    const std::size_t b = batch.size();
    const std::size_t sample_elems = batch[0].input.numel();
    const std::int64_t assemble_ns = obs::to_ns(popped);
    tensor::Tensor x{batch[0].input.shape().prepended(b)};
    for (std::size_t i = 0; i < b; ++i) {
      float* dst = x.raw() + i * sample_elems;
      const float* src = batch[i].input.raw();
      for (std::size_t j = 0; j < sample_elems; ++j) dst[j] = src[j];
    }
    obs::trace().record(batch_tid, obs::SpanKind::kAssemble, "assemble",
                        assemble_ns, obs::now_ns() - assemble_ns, b);

    std::size_t fulfilled = 0;  // promises already satisfied by set_value
    try {
      // RCU read side: capture the published version once for the whole
      // micro-batch. A concurrent swap() retargets the NEXT batch; this
      // one finishes on the version it captured, and the captured
      // shared_ptr keeps that version alive until the batch is done.
      const std::shared_ptr<const CompiledNet> net = net_.load();
      const std::int64_t fwd_ns = obs::now_ns();
      tensor::Tensor y;
      {
        // Per-op spans inside this forward attach to the batch's trace id
        // through the thread-local scope (see Executor::forward).
        obs::ThreadTraceScope scope(batch_tid);
        y = net->forward(x);
      }
      const std::int64_t fwd_dur_ns = obs::now_ns() - fwd_ns;
      obs::trace().record(batch_tid, obs::SpanKind::kForward, "forward",
                          fwd_ns, fwd_dur_ns, b);
      util::check(y.rank() >= 1 && y.dim(0) == b && y.numel() % b == 0,
                  "compiled forward returned a non-batched result");
      forward = std::chrono::nanoseconds(fwd_dur_ns);
      const std::size_t out = y.numel() / b;
      const Clock::time_point done = obs::now();
      const std::int64_t popped_ns = obs::to_ns(popped);
      const std::int64_t done_ns = obs::to_ns(done);
      for (std::size_t i = 0; i < b; ++i) {
        tensor::Tensor row({out});
        const float* src = y.raw() + i * out;
        for (std::size_t j = 0; j < out; ++j) row[j] = src[j];
        batch[i].result.set_value(std::move(row));
        ++fulfilled;
        latency_hist_->observe(obs::ms_between(batch[i].enqueued, done));
        queue_wait_hist_->observe(obs::ms_between(batch[i].enqueued, popped));
        // Per-request spans: queue [enqueued, popped) + batch [popped,
        // done) tile the request [enqueued, done) exactly, so a trace
        // consumer can check dur(queue) + dur(batch) == dur(request).
        const std::uint64_t tid = batch[i].trace_id;
        if (tid != 0) {
          const std::int64_t enq_ns = obs::to_ns(batch[i].enqueued);
          obs::trace().record(tid, obs::SpanKind::kRequest, "request",
                              enq_ns, done_ns - enq_ns, i);
          obs::trace().record(tid, obs::SpanKind::kQueue, "queue", enq_ns,
                              popped_ns - enq_ns, i);
          obs::trace().record(tid, obs::SpanKind::kBatch, "batch",
                              popped_ns, done_ns - popped_ns, i);
        }
      }
      const auto reason = static_cast<std::size_t>(next.reason);
      obs::trace().record(batch_tid, obs::SpanKind::kFlush,
                          kFlushSpanNames[reason], popped_ns,
                          done_ns - popped_ns, b);
      requests_ctr_->add(b);
      batches_ctr_->add(1);
      flush_ctrs_[reason]->add(1);
      batch_size_hist_->observe(static_cast<double>(b));
    } catch (...) {
      // Settle only the promises that have not been fulfilled yet —
      // set_exception on a satisfied promise would itself throw and take
      // the whole worker (and process) down.
      const std::exception_ptr error = std::current_exception();
      for (std::size_t i = fulfilled; i < b; ++i) {
        batch[i].result.set_exception(error);
      }
      // A failed batch counts nothing: the stats are of served requests.
    }
  }
}

void InferenceServer::shutdown() {
  for (auto& shard : shards_) {
    {
      util::MutexLock lock(shard->mu);
      shard->stopping = true;
    }
    shard->queue_cv.notify_all();
    shard->space_cv.notify_all();
  }
  for (auto& shard : shards_) {
    for (auto& worker : shard->workers) {
      if (worker.joinable()) worker.join();
    }
    shard->workers.clear();
  }
}

void InferenceServer::decommission() {
  shutdown();
  // Workers are joined, so nothing loads the cell anymore; clearing it
  // drops the server's reference to the published version. Stats stay
  // readable.
  net_.store(nullptr);
}

StatsSnapshot InferenceServer::stats() const {
  StatsSnapshot s;
  s.requests = requests_ctr_->value();
  s.batches = batches_ctr_->value();
  if (s.batches > 0) {
    s.mean_batch_size =
        static_cast<double>(s.requests) / static_cast<double>(s.batches);
  }
  if (const std::uint64_t n = latency_hist_->count(); n > 0) {
    s.latency_mean_ms = latency_hist_->sum() / static_cast<double>(n);
  }
  s.latency_p50_ms = latency_hist_->quantile(0.50);
  s.latency_p95_ms = latency_hist_->quantile(0.95);
  s.latency_p99_ms = latency_hist_->quantile(0.99);
  s.latency_p999_ms = latency_hist_->quantile(0.999);
  s.latency_max_ms = latency_hist_->quantile(1.0);
  s.queue_peak = static_cast<std::size_t>(queue_peak_->value());
  s.blocked_ms = blocked_hist_->sum();
  s.shed_total = shed_ctr_->value();
  s.swap_count = swap_epoch();
  return s;
}

}  // namespace dstee::serve
