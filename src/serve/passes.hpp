// The serve compiler: lowering, one fixed sequence of plan rewrites, and
// binding.
//
// Every optimization the old monolithic CompiledNet::compile() hard-coded
// is a rewrite over the Plan IR, a free function tests run on their own:
//
//   elide_dropout        removes kDropout nodes (inverted dropout is the
//                        identity at eval time)
//   fold_batch_norm      absorbs a kScaleShift into the CSR values/bias of
//                        the single CSR producer feeding it
//   free_after_last_use  annotates each node with the intermediates that
//                        die after it, so the executor releases tensors
//                        eagerly
//
// Compiler::plan runs lower() and then these three, in this order, and
// nothing else: activations and residual joins stay plan nodes of their
// own, which the executor runs through kernels::apply_epilogue.
//
//   serve::Compiler compiler(options);
//   serve::Plan plan = compiler.plan(model, &smodel);   // inspect / dump
//   serve::CompiledNet net = compiler.bind(std::move(plan));
#pragma once

#include "nn/sequential.hpp"
#include "serve/compiled_net.hpp"
#include "serve/plan.hpp"
#include "sparse/sparse_model.hpp"

namespace dstee::serve {

/// Removes kDropout nodes (identity at eval) and counts them as elided.
/// Erases nodes, so it runs before free_after_last_use.
void elide_dropout(Plan& plan);

/// Folds a kScaleShift whose single-consumer producer is a matching CSR
/// node into that node's values/bias. A producer shared with a residual
/// skip path has two consumers and is never mutated — the same guard the
/// monolithic compiler enforced through its emission cursor. Erases
/// nodes, so it runs before free_after_last_use.
void fold_batch_norm(Plan& plan);

/// Computes Plan::release_after: each intermediate is freed right after
/// its last consumer, so forward-pass peak memory tracks the graph's
/// width (2 live tensors on a residual chain), not its depth.
void free_after_last_use(Plan& plan);

/// Lowering + the fixed rewrite sequence + binding, under one set of
/// CompileOptions. Reproduces the pre-redesign compiler exactly.
class Compiler {
 public:
  explicit Compiler(CompileOptions options = {});

  const CompileOptions& options() const { return options_; }

  /// Lowers `model`, then runs elide_dropout, fold_batch_norm and
  /// free_after_last_use; the returned plan is final and inspectable
  /// (Plan::dump) and can be handed to bind().
  Plan plan(nn::Sequential& model,
            const sparse::SparseModel* state = nullptr) const;

  /// plan() + bind(): the one-call compile.
  CompiledNet compile(nn::Sequential& model,
                      const sparse::SparseModel* state = nullptr) const;

  /// Binds an already-finished plan under this compiler's options.
  CompiledNet bind(Plan&& plan) const;

 private:
  CompileOptions options_;
};

}  // namespace dstee::serve
