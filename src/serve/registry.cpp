#include "serve/registry.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <iterator>
#include <thread>
#include <utility>

#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "train/checkpoint.hpp"
#include "util/check.hpp"

namespace dstee::serve {

namespace {

obs::Counter* evictions_counter(obs::MetricsRegistry* metrics) {
  util::check(metrics != nullptr,
              "ModelRegistry requires a metrics registry");
  return &metrics->counter("dstee_model_evictions_total", "",
                           "Models removed from the registry");
}

// A registered model is inference-only: nothing the registry calls
// (hashing, delta application, plan patching, lowering) reads a gradient
// or a DST counter, so neither is kept.
void release_training_state(nn::Module& module, sparse::SparseModel* state) {
  for (nn::Parameter* p : module.parameters()) p->release_grad();
  if (state != nullptr) state->release_counters();
}

// The phases of a delta swap, in order; metric dstee_swap_<phase>_ms.
constexpr const char* kSwapPhases[4] = {"apply", "patch", "bind", "publish"};

// Bytes of every tensor a slot holds: parameter values, gradients and
// counters that exist, state buffers, masks (at their packed size, 8
// bytes per 64 positions), and the served version's plan weights
// (dstee_model_state_bytes).
double held_bytes(nn::Module& module, const sparse::SparseModel* state,
                  const CompiledNet& served) {
  std::size_t floats = 0;
  for (const nn::Parameter* p : module.parameters()) {
    floats += p->value.numel() * (p->has_grad() ? 2 : 1);
  }
  for (const tensor::Tensor* b : module.state_buffers()) floats += b->numel();
  std::size_t mask_bytes = 0;
  const std::size_t layers = state != nullptr ? state->num_layers() : 0;
  for (std::size_t i = 0; i < layers; ++i) {
    const sparse::MaskedParameter& layer = state->layer(i);
    if (layer.has_counter()) floats += layer.numel();
    mask_bytes += layer.mask().storage_bytes();
  }
  return static_cast<double>(floats * sizeof(float) + mask_bytes +
                             served.total_weight_bytes());
}

}  // namespace

std::size_t autoscale_target(const AutoscalerConfig& config,
                             std::size_t active, double mean_queue_per_shard,
                             std::size_t& low_streak) {
  const std::size_t min_shards = std::max<std::size_t>(1, config.min_shards);
  const std::size_t max_shards = std::max(config.max_shards, min_shards);
  const auto clamped = [&](std::size_t n) {
    return std::clamp(n, min_shards, max_shards);
  };
  if (mean_queue_per_shard >= config.queue_high) {
    low_streak = 0;
    return clamped(active + 1);
  }
  if (mean_queue_per_shard > config.queue_low) {
    low_streak = 0;
    return clamped(active);
  }
  if (++low_streak < std::max<std::size_t>(1, config.shrink_patience)) {
    return clamped(active);
  }
  low_streak = 0;
  return clamped(active > 1 ? active - 1 : 1);
}

ModelRegistry::ModelRegistry()
    : owned_metrics_(std::make_unique<obs::MetricsRegistry>()),
      metrics_(owned_metrics_.get()),
      evictions_(evictions_counter(metrics_)) {}

ModelRegistry::ModelRegistry(obs::MetricsRegistry* metrics)
    : metrics_(metrics), evictions_(evictions_counter(metrics)) {}

ModelRegistry::~ModelRegistry() { shutdown(); }

void ModelRegistry::add_model(const std::string& name,
                              std::unique_ptr<nn::Sequential> module,
                              std::unique_ptr<sparse::SparseModel> state,
                              ModelOptions options) {
  util::check(!name.empty(), "ModelRegistry: model name must not be empty");
  util::check(module != nullptr,
              "ModelRegistry: model '" + name + "' has no module");

  // Wire the model's server into the registry's metrics registry under
  // the model name, unless the caller already routed it elsewhere.
  if (options.server.metrics == nullptr) options.server.metrics = metrics_;
  if (options.server.metrics_label.empty()) {
    options.server.metrics_label = name;
  }

  auto slot = std::make_shared<Slot>(std::move(options));
  slot->module = std::move(module);
  slot->state = std::move(state);
  release_training_state(*slot->module, slot->state.get());
  slot->state_bytes = &metrics_->gauge(
      "dstee_model_state_bytes", name,
      "Bytes of every tensor the model's slot holds, served plan included");
  Slot::SwapSeries& swaps = slot->swaps;
  swaps.total = &metrics_->histogram("dstee_swap_ms", name,
                                     "Delta hot swap wall time, ms");
  for (std::size_t i = 0; i < std::size(kSwapPhases); ++i) {
    const std::string phase = kSwapPhases[i];
    swaps.phases[i] = &metrics_->histogram(
        "dstee_swap_" + phase + "_ms", name,
        "Delta hot swap " + phase + " phase, ms");
  }
  swaps.rejected = &metrics_->counter("dstee_deltas_rejected_total", name,
                                      "Deltas apply_delta rejected");
  swaps.full_recompiles =
      &metrics_->counter("dstee_swap_full_recompiles_total", name,
                         "Delta swaps that recompiled the whole model");

  std::shared_ptr<const CompiledNet> net;
  double bytes = 0.0;
  {
    util::MutexLock lock(slot->mu);
    net = recompile(*slot);
    slot->hash = model_state_hash(*slot->module, slot->state.get());
    bytes = held_bytes(*slot->module, slot->state.get(), *net);
  }
  slot->server =
      std::make_unique<InferenceServer>(net, slot->options.server);

  const bool autoscaled = slot->options.autoscaler.enabled;
  // Declared before the lock: a retired slot the map held last is freed
  // after mu_ is released.
  std::shared_ptr<Slot> retired;
  util::MutexLock lock(mu_);
  std::shared_ptr<Slot>& newest = by_name_[name];
  // A removed slot's name is free for re-use: re-adding a model after
  // remove_model is part of the eviction contract.
  util::check(newest == nullptr ||
                  newest->removed.load(std::memory_order_acquire),
              "ModelRegistry: duplicate model name '" + name + "'");
  slot->state_bytes->set(bytes);
  retired = std::exchange(newest, std::move(slot));
  if (autoscaled) start_autoscaler();
}

std::future<tensor::Tensor> ModelRegistry::submit(const std::string& name,
                                                  tensor::Tensor input) {
  return find(name)->server->submit(std::move(input));
}

std::optional<std::future<tensor::Tensor>> ModelRegistry::try_submit(
    const std::string& name, tensor::Tensor input) {
  return find(name)->server->try_submit(std::move(input));
}

SwapReport ModelRegistry::apply_delta(const std::string& name,
                                      const CheckpointDelta& delta) {
  const std::shared_ptr<Slot> held = find(name);
  Slot& slot = *held;
  util::MutexLock lock(slot.mu);
  // find() raced a concurrent remove_model: the slot was decommissioned
  // (module/state freed) while we waited for the swap lock.
  util::check(!slot.removed.load(std::memory_order_acquire),
              "ModelRegistry: model '" + name + "' was removed");
#ifndef NDEBUG
  // What release builds trust, re-checked on every swap: the cached hash
  // is the model's.
  check_cached_hash(name, slot);
#endif

  // One clock read between phases, so the phases tile the swap.
  std::int64_t stamps[5] = {obs::now_ns()};
  const std::uint64_t hashes = state_hashes_on_this_thread();
  // Mutate the source-of-truth model first, keyed by the hash the slot
  // last verified; this throws, leaving the model as it was, when the
  // delta is rejected.
  try {
    serve::apply_delta(delta, *slot.module, slot.state.get(), slot.hash);
  } catch (...) {
    slot.swaps.rejected->add(1);
    // The base matched the cached hash, yet the delta failed and the
    // model was restored: only failures pay to re-hash it, which names a
    // cache that drifted from its model.
    if (delta.base_hash == slot.hash) check_cached_hash(name, slot);
    throw;
  }
  slot.hash = delta.result_hash;  // verified by the one hash above
  stamps[1] = obs::now_ns();

  // Patch from the plan of the served version: untouched nodes keep
  // pointing at the very matrices that version's ops run on.
  PlanPatch patch = apply_delta_to_plan(
      slot.current->plan(), delta, *slot.module, slot.state.get(),
      slot.options.compile.dense_eps);

  SwapReport report;
  report.total_weight_nodes = patch.total_weight_nodes;
  if (patch.needs_full_recompile) {
    report.full_recompile = true;
    slot.swaps.full_recompiles->add(1);
    recompile(slot);  // binds too: the bind phase is empty
    stamps[2] = stamps[3] = obs::now_ns();
  } else {
    report.patched_weight_nodes = patch.patched_weight_nodes;
    report.scanned_weight_nodes = patch.scanned_weight_nodes;
    report.patched_scale_shifts = patch.patched_scale_shifts;
    stamps[2] = obs::now_ns();
    slot.current = std::make_shared<const CompiledNet>(
        slot.compiler.bind(std::move(patch.plan)));
    stamps[3] = obs::now_ns();
  }
  report.state_hashes =
      static_cast<std::size_t>(state_hashes_on_this_thread() - hashes);
  slot.server->swap(slot.current);
  report.swap_epoch = slot.server->swap_epoch();
  record_state_bytes(name, slot,
                     held_bytes(*slot.module, slot.state.get(), *slot.current));
  stamps[4] = obs::now_ns();

  const auto ms = [](std::int64_t ns) { return static_cast<double>(ns) / 1e6; };
  slot.swaps.total->observe(ms(stamps[4] - stamps[0]));
  const std::uint64_t trace_id = obs::trace().fresh_id();
  obs::trace().record(trace_id, obs::SpanKind::kSwap, "swap", stamps[0],
                      stamps[4] - stamps[0], report.swap_epoch);
  for (std::size_t i = 0; i < std::size(kSwapPhases); ++i) {
    slot.swaps.phases[i]->observe(ms(stamps[i + 1] - stamps[i]));
    obs::trace().record(trace_id, obs::SpanKind::kSwapPhase, kSwapPhases[i],
                        stamps[i], stamps[i + 1] - stamps[i],
                        report.swap_epoch);
  }
  return report;
}

void ModelRegistry::swap_model(const std::string& name,
                               const std::string& checkpoint_path) {
  const std::shared_ptr<Slot> held = find(name);
  Slot& slot = *held;
  util::MutexLock lock(slot.mu);
  util::check(!slot.removed.load(std::memory_order_acquire),
              "ModelRegistry: model '" + name + "' was removed");
  // load_checkpoint writes each tensor as it reads it, so a file it
  // rejects part way would leave the model a mix of two versions while
  // the slot still serves, and hashes, the old one. Copy the values,
  // buffers and masks it writes first and put them back if the load
  // throws. The counters it restores are released again either way.
  const std::vector<nn::Parameter*> params = slot.module->parameters();
  const std::vector<tensor::Tensor*> buffers = slot.module->state_buffers();
  sparse::SparseModel* state = slot.state.get();
  std::vector<tensor::Tensor> values, states;
  std::vector<sparse::Mask> masks;
  for (const nn::Parameter* p : params) values.push_back(p->value);
  for (const tensor::Tensor* b : buffers) states.push_back(*b);
  const std::size_t layers = state != nullptr ? state->num_layers() : 0;
  for (std::size_t i = 0; i < layers; ++i) {
    masks.push_back(state->layer(i).mask());
  }
  try {
    train::load_checkpoint(checkpoint_path, *slot.module, state);
  } catch (...) {
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i]->value = std::move(values[i]);
    }
    for (std::size_t i = 0; i < buffers.size(); ++i) {
      *buffers[i] = std::move(states[i]);
    }
    for (std::size_t i = 0; i < layers; ++i) {
      state->layer(i).mask() = std::move(masks[i]);
    }
    release_training_state(*slot.module, state);
    throw;
  }
  release_training_state(*slot.module, state);
  slot.hash = model_state_hash(*slot.module, state);
  slot.server->swap(recompile(slot));
  record_state_bytes(name, slot,
                     held_bytes(*slot.module, slot.state.get(), *slot.current));
}

void ModelRegistry::remove_model(const std::string& name) {
  // Throws when unknown or already removed.
  const std::shared_ptr<Slot> held = find(name);
  Slot& slot = *held;
  // Publish the removal first: find() stops handing the slot out, so no
  // new submits/swaps reach it. Two removals can both pass find(); the
  // exchange lets exactly one through. A submit that already routed wins
  // or loses the race against shutdown — queued requests drain,
  // post-shutdown submits throw.
  util::check(!slot.removed.exchange(true, std::memory_order_acq_rel),
              "ModelRegistry: model '" + name + "' was removed");
  util::MutexLock lock(slot.mu);  // serialize with in-flight swaps
  slot.server->decommission();    // drain, join, release the version
  // Release the training-side source of truth; the slot shell (server,
  // config) stays until the name is re-added.
  slot.module.reset();
  slot.state.reset();
  slot.current.reset();
  slot.hash = 0;
  record_state_bytes(name, slot, 0.0);
  evictions_->add(1);
}

std::size_t ModelRegistry::scale_model(const std::string& name,
                                       std::size_t shards) {
  return find(name)->server->scale_to(shards);
}

StatsSnapshot ModelRegistry::stats(const std::string& name) const {
  return find(name)->server->stats();
}

std::size_t ModelRegistry::num_active_shards(const std::string& name) const {
  return find(name)->server->num_active_shards();
}

std::size_t ModelRegistry::queue_depth(const std::string& name) const {
  return find(name)->server->queue_depth();
}

std::uint64_t ModelRegistry::state_hash(const std::string& name) const {
  const std::shared_ptr<Slot> slot = find(name);
  util::MutexLock lock(slot->mu);
  return slot->hash;
}

std::vector<std::string> ModelRegistry::model_names() const {
  util::MutexLock lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, slot] : by_name_) {
    if (!slot->removed.load(std::memory_order_acquire)) names.push_back(name);
  }
  return names;
}

std::size_t ModelRegistry::num_models() const {
  util::MutexLock lock(mu_);
  std::size_t count = 0;
  for (const auto& [name, slot] : by_name_) {
    if (!slot->removed.load(std::memory_order_acquire)) ++count;
  }
  return count;
}

bool ModelRegistry::has_model(const std::string& name) const {
  util::MutexLock lock(mu_);
  const auto it = by_name_.find(name);
  return it != by_name_.end() &&
         !it->second->removed.load(std::memory_order_acquire);
}

void ModelRegistry::shutdown() {
  {
    util::MutexLock lock(as_mu_);
    as_stop_ = true;
  }
  as_cv_.notify_all();
  if (autoscaler_.joinable()) autoscaler_.join();
  util::MutexLock lock(mu_);
  for (const auto& [name, slot] : by_name_) slot->server->shutdown();
}

std::shared_ptr<ModelRegistry::Slot> ModelRegistry::find(
    const std::string& name) const {
  util::MutexLock lock(mu_);
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    util::fail("ModelRegistry: unknown model '" + name + "'");
  }
  if (it->second->removed.load(std::memory_order_acquire)) {
    util::fail("ModelRegistry: model '" + name + "' was removed");
  }
  return it->second;
}

std::shared_ptr<const CompiledNet> ModelRegistry::recompile(Slot& slot) {
  slot.current = std::make_shared<const CompiledNet>(
      slot.compiler.compile(*slot.module, slot.state.get()));
  return slot.current;
}

void ModelRegistry::check_cached_hash(const std::string& name, Slot& slot) {
  const std::uint64_t have = model_state_hash(*slot.module, slot.state.get());
  util::check(have == slot.hash,
              "ModelRegistry: the cached state hash of model '" + name +
                  "' no longer matches its model: the registry last "
                  "verified " +
                  std::to_string(slot.hash) + " but the model hashes to " +
                  std::to_string(have));
}

void ModelRegistry::record_state_bytes(const std::string& name,
                                       const Slot& slot, double bytes) {
  util::MutexLock lock(mu_);
  // The name's series belongs to its newest slot: a swap or a removal
  // that finishes after the name was re-added leaves it alone.
  const auto it = by_name_.find(name);
  if (it != by_name_.end() && it->second.get() == &slot) {
    slot.state_bytes->set(bytes);
  }
}

void ModelRegistry::start_autoscaler() {
  if (autoscaler_.joinable()) return;
  // dstee-lint: allow(raw-thread) -- registry-owned poller, joined in shutdown
  autoscaler_ = std::thread([this] { autoscale_loop(); });
}

void ModelRegistry::autoscale_loop() {
  for (;;) {
    double interval_ms = 50.0;
    std::vector<std::shared_ptr<Slot>> scaled;
    {
      util::MutexLock lock(mu_);
      for (const auto& [name, slot] : by_name_) {
        if (slot->options.autoscaler.enabled &&
            !slot->removed.load(std::memory_order_acquire)) {
          scaled.push_back(slot);
          interval_ms =
              std::min(interval_ms, slot->options.autoscaler.interval_ms);
        }
      }
    }
    const obs::Clock::time_point deadline =
        obs::now() +
        std::chrono::duration_cast<obs::Clock::duration>(
            std::chrono::duration<double, std::milli>(
                std::max(1.0, interval_ms)));
    {
      util::UniqueLock lock(as_mu_);
      while (!as_stop_ && obs::now() < deadline) {
        as_cv_.wait_until(lock, deadline);
      }
      if (as_stop_) return;
    }
    for (const std::shared_ptr<Slot>& slot : scaled) {
      AutoscalerConfig cfg = slot->options.autoscaler;
      if (cfg.max_shards == 0) cfg.max_shards = slot->server->num_shards();
      const std::size_t active = slot->server->num_active_shards();
      const double mean_queue =
          static_cast<double>(slot->server->queue_depth()) /
          static_cast<double>(std::max<std::size_t>(1, active));
      const std::size_t target =
          autoscale_target(cfg, active, mean_queue, slot->low_streak);
      if (target != active) slot->server->scale_to(target);
    }
  }
}

}  // namespace dstee::serve
