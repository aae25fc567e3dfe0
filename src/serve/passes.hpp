// Plan passes + the pass-manager Compiler.
//
// Every optimization the old monolithic CompiledNet::compile() hard-coded
// is now a named, individually-testable rewrite over the Plan IR:
//
//   ElideDropout      removes kDropout nodes (inverted dropout is the
//                     identity at eval time)
//   FoldBatchNorm     absorbs a kScaleShift into the CSR values/bias of
//                     the single CSR producer feeding it
//   FreeAfterLastUse  annotates each node with the intermediates that die
//                     after it, so the executor releases tensors eagerly
//
//   FuseEpilogue      absorbs activation / residual-add consumers into
//                     the producing CSR node as a fused kernel epilogue
//                     (serve/fusion.hpp)
//
// Compiler runs the default pipeline (the first three, preserving the
// monolith's behavior bit-for-bit) and lets callers append passes — or
// build the whole pipeline from a named spec string:
//
//   serve::Compiler compiler(options);
//   compiler.add_pass(std::make_unique<serve::FuseEpilogue>());
//   serve::Plan plan = compiler.plan(model, &smodel);   // inspect / dump
//   serve::CompiledNet net = compiler.bind(std::move(plan));
//
//   compiler.pipeline_from_spec("elide-dropout,fold-bn,fuse-epilogue");
//
// Every built-in pass is in the registry under its name() (plus the
// spec aliases "fold-bn"/"fold_bn"); Compiler::register_pass adds custom
// passes to the same namespace. Structural passes keep the
// FreeAfterLastUse annotation fresh: any pass that inserts or erases
// nodes recomputes existing release lists.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/compiled_net.hpp"
#include "serve/plan.hpp"

namespace dstee::serve {

/// One named rewrite over a Plan. Passes are stateless beyond their
/// construction-time options; run() may assume and must preserve
/// Plan::validate().
class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string name() const = 0;
  virtual void run(Plan& plan) const = 0;
};

/// Removes kDropout nodes (identity at eval) and counts them as elided.
class ElideDropout final : public Pass {
 public:
  std::string name() const override { return "elide_dropout"; }
  void run(Plan& plan) const override;
};

/// Folds a kScaleShift whose single-consumer producer is a matching CSR
/// node into that node's values/bias. A producer shared with a residual
/// skip path has two consumers and is never mutated — the same guard the
/// monolithic compiler enforced through its emission cursor.
class FoldBatchNorm final : public Pass {
 public:
  std::string name() const override { return "fold_batch_norm"; }
  void run(Plan& plan) const override;
};

/// Computes Plan::release_after: each intermediate is freed right after
/// its last consumer, so forward-pass peak memory tracks the graph's
/// width (2 live tensors on a residual chain), not its depth.
class FreeAfterLastUse final : public Pass {
 public:
  std::string name() const override { return "free_after_last_use"; }
  void run(Plan& plan) const override;
};

/// The serve pass manager: lowering + an ordered pass pipeline + binding.
/// Default-constructed pipelines reproduce the pre-redesign compiler
/// exactly (elide_dropout, fold_batch_norm, free_after_last_use).
class Compiler {
 public:
  /// Builds a fresh instance of a registered pass.
  using PassFactory = std::function<std::unique_ptr<Pass>()>;

  explicit Compiler(CompileOptions options = {});

  /// Registers `factory` under `name` in the process-wide pass registry
  /// (names are normalized: lowercased, '-' → '_'). Re-registering a name
  /// replaces it. NOT thread-safe: register passes during start-up,
  /// before compilers run concurrently — the registry is read-only after
  /// that, like every other bind-then-serve structure here.
  static void register_pass(const std::string& name, PassFactory factory);

  /// Replaces the pipeline with the passes named in `spec`: a
  /// comma-separated list of registry names — e.g.
  /// "elide-dropout,fold-bn,fuse-epilogue". Unknown names fail loudly.
  /// Returns *this for chaining.
  Compiler& pipeline_from_spec(const std::string& spec);

  /// The active pipeline as a comma-separated list of pass names (what
  /// `dstee_serve --dump-plan` prints).
  std::string pipeline_spec() const;

  /// Appends a pass; returns *this for chaining.
  Compiler& add_pass(std::unique_ptr<Pass> pass);

  /// Drops every pass (a raw lowering pipeline, for tests/debugging).
  Compiler& clear_passes();

  const std::vector<std::unique_ptr<Pass>>& passes() const {
    return passes_;
  }

  const CompileOptions& options() const { return options_; }

  /// Lowers `model` and runs the pipeline; the returned plan is final and
  /// inspectable (Plan::dump) and can be handed to bind().
  Plan plan(nn::Sequential& model,
            const sparse::SparseModel* state = nullptr) const;

  /// plan() + bind(): the one-call compile.
  CompiledNet compile(nn::Sequential& model,
                      const sparse::SparseModel* state = nullptr) const;

  /// Binds an already-finished plan under this compiler's options.
  CompiledNet bind(Plan&& plan) const;

 private:
  CompileOptions options_;
  std::vector<std::unique_ptr<Pass>> passes_;
};

}  // namespace dstee::serve
