// Checkpoint delta format v4 + the Plan-level ApplyDelta patch path.
//
// The source paper's DST loop only moves a small fraction of mask
// positions and values between grow/prune steps, so a freshly-trained
// topology is naturally expressible as a SPARSE DELTA against the
// checkpoint currently being served: per layer, the mask positions that
// were pruned (removed), the positions that were grown (added, with
// their values), and the surviving positions whose values changed —
// plus full replacements for the small dense tensors (biases, BN
// affine/running stats) that drift every step. A delta is keyed by a
// hash of the base model state, so applying it to the wrong base fails
// loudly instead of serving silently-corrupt weights.
//
// On disk a delta is version 4 of the dstee checkpoint family (same
// magic); train::load_checkpoint rejects delta files with a pointer
// here, and load_delta() rejects full checkpoints symmetrically. Version
// 3 was keyed by an older state hash, so load_delta() rejects it with a
// pointer at make_delta().
//
// The serving half starts from the compiler's Plan: the one a CompiledNet
// keeps (CompiledNet::plan()) shares its CsrMatrix instances with the
// bound ops, so apply_delta_to_plan() can copy that plan, rebuild ONLY
// the nodes whose provenance ordinals (PlanOp::sparse_ordinal /
// bn_ordinal) the delta touched — through the same lowering and folding
// helpers a full recompile runs — and leave every untouched
// node pointing at the very matrices the outgoing version serves.
// A touched masked node is rebuilt in O(nnz + edits): the base node's
// positions are the base mask's, so CsrMatrix::from_masked_edit merges
// the section's removed and added lists into them instead of walking
// the whole mask. That is why the base plan must be the plan of the
// delta's base state. Binding the patched plan then yields a new version
// that is bit-identical to a full recompile (pinned by serve_test) at a
// fraction of the work.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nn/module.hpp"
#include "nn/sequential.hpp"
#include "serve/plan.hpp"
#include "sparse/sparse_model.hpp"

namespace dstee::serve {

/// One sparse layer's incremental update. `layer` indexes the
/// SparseModel's masked layers; positions are flat indices into the
/// weight tensor.
struct SparseLayerDelta {
  std::size_t layer = 0;
  std::vector<std::size_t> removed;  ///< pruned: mask 1 → 0
  /// grown: mask 0 → 1, with the new value.
  std::vector<std::pair<std::size_t, float>> added;
  /// still active, value changed.
  std::vector<std::pair<std::size_t, float>> changed;
};

/// Full replacement for one small dense tensor, addressed by its
/// position in Module::parameters() / state_buffers().
struct DenseTensorDelta {
  std::size_t index = 0;
  std::vector<float> values;
};

/// An incremental checkpoint: everything that moved between a base
/// model state and its successor.
struct CheckpointDelta {
  static constexpr std::uint32_t kVersion = 4;

  std::uint64_t base_hash = 0;    ///< model_state_hash of the base
  std::uint64_t result_hash = 0;  ///< ... of the state after application
  std::vector<SparseLayerDelta> sparse_layers;
  std::vector<DenseTensorDelta> dense_params;   ///< non-sparse parameters
  std::vector<DenseTensorDelta> state_buffers;  ///< BN running stats etc.

  bool empty() const {
    return sparse_layers.empty() && dense_params.empty() &&
           state_buffers.empty();
  }
};

/// The identity a delta is keyed by: a word-at-a-time hash (four
/// xxh64-style lanes) over the raw bytes of every parameter value and
/// state buffer, and over each mask's 0.0f / 1.0f float form (the words a
/// float mask would hold, generated from the bits), each tensor's element
/// count first. DST step counters are deliberately excluded: they never
/// influence serving.
std::uint64_t model_state_hash(nn::Module& model,
                               const sparse::SparseModel* state);

/// Diffs `next` against `base` (identical architectures; both walked in
/// parameters()/state_buffers() order). Masked layers diff incrementally;
/// everything else becomes a full dense replacement when any value moved.
CheckpointDelta make_delta(nn::Module& base,
                           const sparse::SparseModel* base_state,
                           nn::Module& next,
                           const sparse::SparseModel* next_state);

void save_delta(const std::string& path, const CheckpointDelta& delta);

/// Rejects full checkpoints (v1/v2) with a pointer to load_checkpoint,
/// and v3 deltas with a pointer to make_delta. Parses through a fixed
/// 64 KiB window, checking every count against the bytes left.
CheckpointDelta load_delta(const std::string& path);

/// Applies `delta` to `model`/`state` in place. Fails with a clear
/// base-hash message when `model` is not the delta's base, and verifies
/// the resulting state hashes to `result_hash`. All or nothing: when an
/// entry is invalid or the result hash differs, every value already
/// written is restored before the CheckError propagates. Hashes the full
/// state twice: the base, then the result. It is the overload below
/// called with model_state_hash(model, state).
void apply_delta(const CheckpointDelta& delta, nn::Module& model,
                 sparse::SparseModel* state);

/// apply_delta for a caller that already knows the model's state hash:
/// `verified_hash` stands in for model_state_hash(model, state) in the
/// base check, so only the result is hashed. "Verified" means the caller
/// computed it from this very state, or had it confirmed as the
/// result_hash of the last delta applied, and nothing has written the
/// model since (ModelRegistry keeps one per model). A stale
/// `verified_hash` cannot pass silently: the model does not reproduce
/// `result_hash`, the delta is rejected and the model restored. On a
/// base mismatch the message names `verified_hash` as what the model
/// hashes to, and nothing is written.
void apply_delta(const CheckpointDelta& delta, nn::Module& model,
                 sparse::SparseModel* state, std::uint64_t verified_hash);

/// How many times model_state_hash has run on the calling thread. A
/// caller reads it before and after a call to count the full-state
/// hashes the call computed (SwapReport::state_hashes).
std::uint64_t state_hashes_on_this_thread();

/// Result of the plan-level patch.
struct PlanPatch {
  Plan plan;                     ///< base plan with touched nodes rebuilt
  std::size_t patched_weight_nodes = 0;  ///< CSR units rebuilt
  /// Of those, the units rebuilt by a scan of the whole layer
  /// (from_masked when the delta's lists do not fit the base node, or
  /// from_dense for a weight without a mask) instead of from the base
  /// node's positions. 0 for a delta from make_delta on a masked model.
  std::size_t scanned_weight_nodes = 0;
  std::size_t total_weight_nodes = 0;    ///< CSR units in the plan
  std::size_t patched_scale_shifts = 0;  ///< standalone BN nodes updated
  /// Set when a touched tensor could not be attributed to a plan node
  /// (missing provenance, unsupported layout): the returned plan is the
  /// unpatched base and the caller must recompile from scratch.
  bool needs_full_recompile = false;
};

/// Rebuilds only the delta-touched nodes of `base_plan` from
/// `model`/`state`, which must ALREADY have the delta applied.
/// `base_plan` must be the plan of the delta's base state (the served
/// version's plan(), or the plan the previous patch returned): a masked
/// node is rebuilt from its base node's positions plus the delta's
/// lists. When the lists do not fit the base node (not ascending, two
/// sections for one layer, a position the base does not agree with) the
/// node is lowered from the model by a dense scan instead, and counted
/// in scanned_weight_nodes. A CSR unit is one kSpmm/kConv node; folded
/// BN re-folds through the node's bn_ordinal. Untouched nodes keep their
/// CsrMatrix pointers — the zero-copy seam that lets the patched version
/// share every untouched matrix with the outgoing one.
PlanPatch apply_delta_to_plan(const Plan& base_plan,
                              const CheckpointDelta& delta,
                              nn::Sequential& model,
                              const sparse::SparseModel* state,
                              float dense_eps = 0.0f);

}  // namespace dstee::serve
