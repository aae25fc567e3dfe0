// Plan IR: the typed, inspectable middle stage of the serve compiler.
//
// The serve stack used to lower, optimize and bind in one monolithic
// CompiledNet::compile(): BN folding, dropout elision and the
// free-after-last-use policy were hard-coded into the module walk, so
// none of them could be inspected or tested on its own. Compilation is
// three explicit stages:
//
//   Lowering (this file)  nn::Sequential + SparseModel → Plan, one PlanOp
//                         per module, weights converted to CSR, no
//                         optimization decisions at all
//   Passes (passes.hpp)   one fixed sequence of rewrites over the Plan —
//                         elide_dropout, fold_batch_norm,
//                         free_after_last_use — run by serve::Compiler
//   Executor              binds a finished Plan to EvalOps + a
//   (executor.hpp)        runtime::IntraOp policy; CompiledNet stays the
//                         thin serving facade over the bound program
//
// A PlanOp is a plain tagged struct, not a virtual hierarchy: rewrites
// pattern-match on `kind` and edit vectors in place, the way graph IRs
// do it (compare the MXNet executor's node-attribute graph). Each node
// names its producers by id; Plan::annotate() propagates a sample shape
// through the DAG to attach per-node shapes, executed FLOPs, weight
// bytes and cost shares — what `dstee_serve --dump-plan` prints.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "kernels/epilogue.hpp"
#include "nn/sequential.hpp"
#include "obs/profile.hpp"
#include "sparse/csr.hpp"
#include "sparse/sparse_model.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

namespace dstee::nn {
class BatchNorm;
}  // namespace dstee::nn

namespace dstee::serve {

/// Node kinds a Plan can hold, one per lowered module kind.
enum class PlanOpKind {
  kSpmm,           ///< CSR Linear: Y = X·Wᵀ + b
  kConv,           ///< CSR conv: direct sparse conv per packed image
  kScaleShift,     ///< eval-mode batch-norm as per-channel affine
  kActivation,     ///< ReLU / LeakyReLU / Sigmoid / Tanh
  kDropout,        ///< identity at eval; removed by elide_dropout
  kFlatten,        ///< [N, ...] → [N, features]
  kMaxPool,        ///< 2-d max pooling
  kAvgPool,        ///< 2-d average pooling
  kGlobalAvgPool,  ///< [N, C, H, W] → [N, C]
  kAdd,            ///< residual join: a + b, optionally through ReLU
};

/// Short lowercase name for dumps ("spmm", "spconv", ...).
const char* to_string(PlanOpKind kind);

/// Activation kinds are the kernel layer's: a kActivation node and the
/// kernels::Epilogue its bound op builds can never disagree.
using ActKind = kernels::ActKind;

/// One plan node. Which fields are meaningful depends on `kind` (see the
/// member comments); everything else stays at its default. Weights are
/// held through shared_ptr so plan copies, the bound executor and delta
/// patches share one matrix per node instead of duplicating nonzeros.
struct PlanOp {
  PlanOpKind kind = PlanOpKind::kSpmm;
  /// Producer node ids (Plan::kInputId = the network input). Unary ops
  /// have one entry, kAdd has two.
  std::vector<std::size_t> inputs;

  // kSpmm / kConv ------------------------------------------------------
  std::shared_ptr<sparse::CsrMatrix> csr;  ///< weights, never null here
  tensor::Tensor bias;                     ///< per output row/channel
  bool has_bias = false;
  bool folded_bn = false;  ///< fold_batch_norm absorbed a BN into this node

  // kConv --------------------------------------------------------------
  std::size_t in_channels = 0;
  std::size_t kernel = 0;
  std::size_t stride = 1;
  std::size_t padding = 0;

  // kScaleShift --------------------------------------------------------
  std::vector<float> scale;
  std::vector<float> shift;
  bool rank4 = false;  ///< BatchNorm2d ([N,C,H,W]) vs BatchNorm1d ([N,C])

  // kActivation --------------------------------------------------------
  ActKind act = ActKind::kRelu;
  float slope = 0.0f;  ///< LeakyReLU negative slope

  // kDropout -----------------------------------------------------------
  double rate = 0.0;  ///< training-time drop probability (dump only)

  // kMaxPool / kAvgPool ------------------------------------------------
  std::size_t pool_kernel = 0;
  std::size_t pool_stride = 0;

  // kAdd ---------------------------------------------------------------
  bool relu_after_add = false;

  // Provenance (delta patching) ----------------------------------------
  static constexpr std::size_t kNoOrdinal = static_cast<std::size_t>(-1);
  /// For kSpmm/kConv: index of the originating Linear/Conv2d in lowering
  /// order — the key serve::ApplyDelta uses to rebuild only the nodes a
  /// checkpoint delta touched. Matches collect_lowered_modules().
  std::size_t sparse_ordinal = kNoOrdinal;
  /// For kScaleShift (and, after fold_batch_norm, the CSR node that
  /// absorbed it): index of the originating BatchNorm in lowering order.
  std::size_t bn_ordinal = kNoOrdinal;
};

/// The compile-time program: a DAG of PlanOps in topological (emission)
/// order, plus the model-wide counters lowering gathered and the
/// annotations rewrites attach. Value-semantic: tests copy plans freely
/// to compare before/after a rewrite.
struct Plan {
  /// Producer id meaning "the network input".
  static constexpr std::size_t kInputId = static_cast<std::size_t>(-1);

  std::vector<PlanOp> ops;

  /// release_after[i] lists node ids whose intermediate may be freed once
  /// op i has run — the free_after_last_use annotation. Empty (not run)
  /// means the executor keeps every intermediate until the forward ends.
  std::vector<std::vector<std::size_t>> release_after;

  // Model-wide counters (lowering fills them; elide_dropout updates
  // elided).
  std::size_t sparse_ops = 0;
  std::size_t elided = 0;
  std::size_t residual_joins = 0;
  std::size_t total_nnz = 0;
  std::size_t total_weights = 0;

  /// Weight bytes a replica streams, summed over the CSR nodes (each
  /// owns its own matrix): fp32 values + uint32 col_idx + row_ptr.
  std::size_t total_weight_bytes() const;

  std::size_t size() const { return ops.size(); }

  /// Consumer count per node (the network output has none).
  std::vector<std::size_t> use_counts() const;

  /// Per-node cost annotation for a batch-1 sample of the given shape
  /// (no batch axis): output shape, executed FLOPs, dense-equivalent
  /// FLOPs, and this node's share of the plan's total executed FLOPs.
  struct NodeCost {
    tensor::Shape out_shape;
    double flops = 0.0;
    double dense_flops = 0.0;
    double share = 0.0;
    /// Weight bytes THIS node streams. 0 for non-weight ops.
    std::size_t weight_bytes = 0;
    /// Measured wall milliseconds per node (summed over the profile's
    /// forwards), 0 when annotate ran without a measured profile.
    double measured_ms = 0.0;
  };
  /// `measured` (optional) replaces the analytic FLOPs-based `share` with
  /// the profile's observed wall-time shares — an OpProfile recorded off
  /// an executor bound from THIS plan (node indices must line up; a
  /// size-mismatched or all-zero profile is ignored and the analytic
  /// shares stand). Shapes/flops columns are analytic either way.
  std::vector<NodeCost> annotate(const tensor::Shape& sample_shape,
                                 const obs::OpProfile* measured =
                                     nullptr) const;

  /// Human-readable plan listing: one line per node with kind, config,
  /// nnz, and — when `sample_shape` is given — output shape, FLOPs and
  /// cost share.
  std::string dump(const tensor::Shape* sample_shape = nullptr) const;

  /// Structural invariants: producer ids precede consumers, arities match
  /// kinds, release lists (when present) reference valid ids. Throws
  /// util::CheckError on violation; each rewrite calls this after it.
  void validate() const;
};

/// Lowering: walks the module tree (recursing through nested Sequentials
/// and residual blocks) and emits one PlanOp per module — including
/// dropout and standalone batch-norm nodes; folding and elision are
/// rewrites (passes.hpp), not lowering decisions. When `state` is
/// non-null, weights with a mask deploy via CsrMatrix::from_masked
/// (faithful topology); others fall back to from_dense(dense_eps).
Plan lower(nn::Sequential& model, const sparse::SparseModel* state = nullptr,
           float dense_eps = 0.0f);

/// The modules lowering draws serve-relevant state from, in lowering
/// order: `sparse[i]` is the Linear/Conv2d whose weights became the
/// PlanOp(s) with sparse_ordinal i, `bns[i]` the BatchNorm behind
/// bn_ordinal i. Delta patching (serve/delta.*) re-reads weights through
/// this index instead of re-walking the whole tree.
struct LoweredModules {
  std::vector<nn::Module*> sparse;  ///< nn::Linear or nn::Conv2d
  std::vector<nn::BatchNorm*> bns;
};

/// Walks `model` in exactly lower()'s order (nested Sequentials in
/// child order; residual blocks main path, then shortcut) and collects
/// the ordinal-indexed modules.
LoweredModules collect_lowered_modules(nn::Sequential& model);

/// Eval-mode batch-norm as a per-channel affine: scale = γ/√(σ²+ε),
/// shift = β − μ·scale (double-precision intermediates). Shared by
/// lowering, fold_batch_norm and the delta re-fold path.
void bn_scale_shift(const nn::BatchNorm& bn, std::vector<float>& scale,
                    std::vector<float>& shift);

// One implementation of a weight node (kSpmm / kConv), shared by
// lowering, folding and delta patching, so a patched node is
// bit-identical to a full recompile by construction.

/// Sets `op`'s fp32 CSR matrix (fresh) and bias from a Linear/Conv2d's
/// parameters, as lowering does: from_masked(*masked) when the weight has
/// a mask, else from_dense(weight, dense_eps); `bias` may be null. Both
/// are scans of every dense slot. Delta patching builds a masked node's
/// matrix from the base node instead (CsrMatrix::from_masked_edit, the
/// same entries) and sets its bias through lower_bias.
void lower_weights(PlanOp& op, const nn::Parameter& weight,
                   const nn::Parameter* bias,
                   const sparse::MaskedParameter* masked, float dense_eps);

/// lower_weights' bias half: `op`'s bias from `bias` (null: no bias).
void lower_bias(PlanOp& op, const nn::Parameter* bias);

/// fold_batch_norm's arithmetic: y·scale + shift folded into `op`, whose
/// CSR rows are scaled IN PLACE (the caller must own *op.csr) and whose
/// bias becomes bias·scale + shift.
void fold_scale_shift(PlanOp& op, const std::vector<float>& scale,
                      const std::vector<float>& shift);

}  // namespace dstee::serve
