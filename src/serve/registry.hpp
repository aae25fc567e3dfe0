// ModelRegistry: multi-tenant serving over the shared runtime pool.
//
// One process serves N named models, each behind its own InferenceServer
// (M shard worker groups, micro-batching queues) while every compiled
// net's intra-op work lands on the one process-wide runtime::Pool — the
// paper's deployment story scaled from "a model" to "a fleet".
//
// The registry owns, per model: the module + SparseModel (the mutable
// source of truth deltas apply to), the Compiler that compiles and binds
// it under its CompileOptions, the version its server serves on every
// shard (whose plan() names the very CsrMatrix instances its ops run —
// the seam delta patches start from), and the server.
//
// INFERENCE-ONLY: a registered model holds no training state. add_model
// releases every parameter's gradient and every layer's DST counter, and
// swap_model releases the counters load_checkpoint restores, whether the
// load succeeds or throws. What a slot keeps is exactly what hashing,
// delta application, plan patching and lowering read: parameter values,
// state buffers (batch-norm running statistics), masks (one bit per
// weight), and the served plan. The dstee_model_state_bytes{model=...}
// gauge in the registry's metrics counts those bytes (any gradient or
// counter too, were one there); add_model, apply_delta and swap_model
// set it, remove_model zeroes it. Training a registered model, or
// checkpointing its state, throws CheckError.
//
// ZERO-DOWNTIME UPDATES
//   apply_delta(name, delta)  checks the delta's base hash against the
//       state hash the registry last verified for the model (computed
//       by add_model/swap_model, or confirmed as the previous delta's
//       result), applies it all-or-nothing (a rejected delta leaves the
//       model as it was), hashes the result once to verify it, patches
//       ONLY the touched plan nodes (apply_delta_to_plan), binds the
//       patched plan and RCU-publishes it into the model's server. The
//       patched plan shares every untouched matrix with the version it
//       replaces — a patch swap reads the dense model once (the result
//       hash) and otherwise does O(touched weights) work. A cached hash
//       that drifted from its model fails the next delta's result check;
//       the registry then re-hashes the restored model and names the
//       drift. Builds without NDEBUG also re-hash the base before every
//       delta and throw CheckError when it differs from the cached hash.
//   swap_model(name, checkpoint)  the full-recompile path for when no
//       delta is available (or a delta declared needs_full_recompile).
// Both run under the slot's swap lock; serving never pauses (workers
// capture a version per micro-batch, see server.hpp).
//
// A SWAP, VISIBLE: apply_delta records, under the model's label in the
// registry's metrics, dstee_swap_ms (the whole swap) and the four phases
// that tile it, read from one set of clock stamps:
// dstee_swap_apply_ms (model patch + result hash), dstee_swap_patch_ms
// (apply_delta_to_plan, or the recompile), dstee_swap_bind_ms and
// dstee_swap_publish_ms (the server swap + the state-bytes gauge). It
// counts dstee_deltas_rejected_total and dstee_swap_full_recompiles_total.
// While tracing is on (obs::trace().enabled(), no request sampling), it
// also records a `swap` span with one `swap_phase` child per phase on
// the calling thread's lane.
//
// AUTOSCALING: an optional background thread polls each model's queue
// depth and grows/shrinks the server's active shard count between
// min/max bounds (autoscale_target is the pure, unit-testable policy).
// Scaling only moves the routing bound — shard slots are pre-built and
// serve the published version, so reaction time is one poll interval.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "nn/sequential.hpp"
#include "obs/metrics.hpp"
#include "serve/delta.hpp"
#include "serve/passes.hpp"
#include "serve/server.hpp"
#include "sparse/sparse_model.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace dstee::serve {

/// Queue-depth-driven shard scaling policy knobs.
struct AutoscalerConfig {
  bool enabled = false;
  double interval_ms = 50.0;  ///< poll period
  std::size_t min_shards = 1;
  std::size_t max_shards = 0;  ///< 0 = the server's max_shards
  /// Grow when mean queued requests per active shard reaches this.
  double queue_high = 8.0;
  /// Shrink candidate when mean queue per shard is at or below this.
  double queue_low = 1.0;
  /// Consecutive cold polls required before shrinking by one — scaling
  /// down is cheap to undo but thrashing wastes warm queues.
  std::size_t shrink_patience = 3;
};

/// The pure scaling decision: returns the target active shard count for
/// one poll. `low_streak` is the caller-kept consecutive-cold counter
/// (reset on any hot or neutral poll). Grows by one on a hot signal,
/// shrinks by one after `shrink_patience` cold polls, else holds.
/// `max_shards` must already be resolved (non-zero).
std::size_t autoscale_target(const AutoscalerConfig& config,
                             std::size_t active, double mean_queue_per_shard,
                             std::size_t& low_streak);

/// What a hot swap did, for logs and tests.
struct SwapReport {
  bool full_recompile = false;  ///< delta fell back to a fresh plan()
  std::size_t patched_weight_nodes = 0;
  /// Of the patched nodes, those rebuilt by a dense scan
  /// (PlanPatch::scanned_weight_nodes); 0 for a DST delta.
  std::size_t scanned_weight_nodes = 0;
  std::size_t total_weight_nodes = 0;
  std::size_t patched_scale_shifts = 0;
  std::size_t swap_epoch = 0;  ///< server swap count after this swap
  /// Full-state hashes (model_state_hash) the swap computed: 1, the
  /// result check, on the patch and the full-recompile path alike. The
  /// Debug-only re-check of the cached base hash is not counted.
  std::size_t state_hashes = 0;
};

/// Per-model serving + compilation options for ModelRegistry::add_model.
struct ModelOptions {
  ServerConfig server;
  CompileOptions compile;
  AutoscalerConfig autoscaler;
};

/// Multi-tenant model registry with zero-downtime hot swap.
///
/// Thread-safety: add_model/apply_delta/swap_model/scale_model/
/// remove_model may be called concurrently with each other and with
/// submit/try_submit from any number of threads. Each call holds a
/// shared reference to the slot it looked up, so a slot outlives a
/// concurrent removal and re-add. remove_model() decommissions a slot:
/// its server drains in-flight requests on the version they captured,
/// the version and the model state are released, and later lookups of
/// the name fail until it is re-added. The removed slot's shell (server,
/// options) stays until the name is re-added, which frees it once no
/// call still holds it.
///
/// Accounting: each model's server records into the registry's metrics
/// under the model name (unless its ModelOptions route it elsewhere), and
/// stats() reads those series. A name re-added to one registry therefore
/// continues its series: the new model's counts start from the removed
/// one's.
class ModelRegistry {
 public:
  /// Per-model serving metrics and evictions are counted in a metrics
  /// registry this registry owns, so two default-constructed registries
  /// that serve the same name count apart.
  ModelRegistry();
  /// Counts them in `metrics` instead (obs::metrics() for the
  /// process-wide one), which must be non-null and outlive the registry.
  explicit ModelRegistry(obs::MetricsRegistry* metrics);
  ~ModelRegistry();

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers `name`, taking ownership of the module and its sparse
  /// state (`state` may be null for dense models; when non-null it must
  /// be built over `*module`). Releases their gradients and counters,
  /// compiles, keeps the compiled version, starts the model's server.
  /// Throws on duplicate or empty name.
  void add_model(const std::string& name,
                 std::unique_ptr<nn::Sequential> module,
                 std::unique_ptr<sparse::SparseModel> state,
                 ModelOptions options = {});

  /// Blocking submit to `name`'s server (see InferenceServer::submit).
  std::future<tensor::Tensor> submit(const std::string& name,
                                     tensor::Tensor input);

  /// Admission-controlled submit: nullopt when the model sheds the
  /// request (per-model queue quota, counted in its shed_total).
  std::optional<std::future<tensor::Tensor>> try_submit(
      const std::string& name, tensor::Tensor input);

  /// Applies a sparse delta to `name` in place and hot-swaps the served
  /// version, rebuilding only the delta-touched plan nodes. Fails (and
  /// changes nothing) when the delta's base hash does not match the
  /// state hash the registry last verified for the model, when an entry
  /// is invalid, or when the result does not hash to the delta's
  /// result_hash; each failure counts in dstee_deltas_rejected_total.
  SwapReport apply_delta(const std::string& name,
                         const CheckpointDelta& delta);

  /// Full-recompile hot swap from a full (v1/v2) checkpoint file.
  /// All-or-nothing: throws util::CheckError, leaving the model, its hash
  /// and the served version as they were, when the file is rejected.
  void swap_model(const std::string& name,
                  const std::string& checkpoint_path);

  /// Manual scaling (also what the autoscaler calls); returns the new
  /// active count.
  std::size_t scale_model(const std::string& name, std::size_t shards);

  /// Evicts `name`: in-flight and already-queued requests finish on the
  /// version they captured, then the served version and the slot's
  /// module/state are released. Later submits (and every other by-name
  /// operation, a second remove_model included) throw a "removed"
  /// error; of two concurrent calls exactly one evicts. The name may be
  /// re-added. Counted in the `dstee_model_evictions_total` obs metric.
  void remove_model(const std::string& name);

  StatsSnapshot stats(const std::string& name) const;
  std::size_t num_active_shards(const std::string& name) const;
  std::size_t queue_depth(const std::string& name) const;
  /// The model's current state hash (what a delta's base_hash must be):
  /// the hash the registry last verified, not a fresh hash of the model.
  std::uint64_t state_hash(const std::string& name) const;

  /// Live (not removed) model names, in name order.
  std::vector<std::string> model_names() const;
  std::size_t num_models() const;
  bool has_model(const std::string& name) const;

  /// Stops the autoscaler and shuts every model's server down.
  /// Idempotent; also run by the destructor.
  void shutdown();

 private:
  struct Slot {
    explicit Slot(ModelOptions opts)
        : options(std::move(opts)), compiler(options.compile) {}

    const ModelOptions options;
    std::unique_ptr<nn::Sequential> module;
    std::unique_ptr<sparse::SparseModel> state;
    Compiler compiler;  ///< (re)compiles and binds under options.compile

    /// Guards the mutable model state + published version + hash during
    /// swaps; submits never take it.
    mutable util::Mutex mu;
    /// The version the server serves; deltas patch its plan().
    std::shared_ptr<const CompiledNet> current DSTEE_GUARDED_BY(mu);
    /// model_state_hash of `module`/`state` as last verified: computed
    /// by add_model/swap_model, or a delta's checked result_hash.
    std::uint64_t hash DSTEE_GUARDED_BY(mu) = 0;

    std::unique_ptr<InferenceServer> server;  ///< set once in add_model
    /// dstee_model_state_bytes{model=name}; set once in add_model.
    obs::Gauge* state_bytes = nullptr;
    /// dstee_swap_*{model=name}; set once in add_model.
    struct SwapSeries {
      obs::Histogram* total = nullptr;  ///< dstee_swap_ms
      /// dstee_swap_{apply,patch,bind,publish}_ms, in swap order.
      obs::Histogram* phases[4] = {};
      obs::Counter* rejected = nullptr;         ///< deltas rejected
      obs::Counter* full_recompiles = nullptr;  ///< deltas recompiled
    } swaps;
    std::size_t low_streak = 0;  ///< autoscaler thread only

    /// Set by remove_model's exchange before it decommissions the slot:
    /// the one call that flips it evicts, a concurrent one throws.
    /// find() refuses removed slots, so no new work reaches a slot whose
    /// version is being released.
    std::atomic<bool> removed{false};
  };

  /// Name lookup, one map probe; throws CheckError on unknown and on
  /// removed names. The caller's reference keeps the slot alive across a
  /// concurrent remove and re-add of the name.
  std::shared_ptr<Slot> find(const std::string& name) const;

  /// Compiles the slot's current model state, records it as the
  /// slot's published version under slot.mu and returns it. Does not
  /// hash: the caller sets slot.hash.
  std::shared_ptr<const CompiledNet> recompile(Slot& slot)
      DSTEE_REQUIRES(slot.mu);

  /// Re-hashes the slot's model; throws CheckError naming the drift
  /// when it no longer hashes to slot.hash.
  static void check_cached_hash(const std::string& name, Slot& slot)
      DSTEE_REQUIRES(slot.mu);

  /// Sets `name`'s dstee_model_state_bytes gauge to `bytes` while `slot`
  /// is still the name's newest slot.
  void record_state_bytes(const std::string& name, const Slot& slot,
                          double bytes) DSTEE_EXCLUDES(mu_);

  void autoscale_loop();
  void start_autoscaler();

  /// Set by the default constructor; metrics_ points into it.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;       ///< never null
  obs::Counter* evictions_;             ///< dstee_model_evictions_total

  mutable util::Mutex mu_;  ///< guards the name map
  /// Each name's newest slot, removed or not: lookups cost one probe, and
  /// re-adding a name drops its retired slot.
  std::map<std::string, std::shared_ptr<Slot>> by_name_ DSTEE_GUARDED_BY(mu_);

  util::Mutex as_mu_;
  bool as_stop_ DSTEE_GUARDED_BY(as_mu_) = false;
  util::CondVar as_cv_;  ///< wakes the autoscaler for prompt shutdown
  // The autoscaler is a long-lived poller owned by the registry,
  // started at most once and joined in shutdown().
  // dstee-lint: allow(raw-thread) -- registry-owned poller, joined in shutdown
  std::thread autoscaler_;
};

}  // namespace dstee::serve
