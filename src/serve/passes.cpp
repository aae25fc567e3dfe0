#include "serve/passes.hpp"

#include <cctype>
#include <unordered_map>
#include <utility>

#include "serve/fusion.hpp"
#include "serve/pass_util.hpp"
#include "util/check.hpp"

namespace dstee::serve {

using detail::refresh_release_if_present;
using detail::rewire_after_erase;

void ElideDropout::run(Plan& plan) const {
  std::size_t i = 0;
  while (i < plan.ops.size()) {
    if (plan.ops[i].kind != PlanOpKind::kDropout) {
      ++i;
      continue;
    }
    const std::size_t target = plan.ops[i].inputs.front();
    util::check(i + 1 < plan.ops.size() || target != Plan::kInputId,
                "cannot elide a dropout that is the whole plan");
    plan.ops.erase(plan.ops.begin() + static_cast<std::ptrdiff_t>(i));
    rewire_after_erase(plan, i, target);
    ++plan.elided;
  }
  refresh_release_if_present(plan);
  plan.validate();
}

void FoldBatchNorm::run(Plan& plan) const {
  std::size_t i = 0;
  while (i < plan.ops.size()) {
    PlanOp& bn = plan.ops[i];
    if (bn.kind != PlanOpKind::kScaleShift) {
      ++i;
      continue;
    }
    const std::size_t src = bn.inputs.front();
    bool fold = src != Plan::kInputId;
    if (fold) {
      const PlanOp& producer = plan.ops[src];
      const bool conv_like = producer.kind == PlanOpKind::kConv;
      fold = (producer.kind == PlanOpKind::kSpmm || conv_like) &&
             producer.csr->rows() == bn.scale.size() &&
             conv_like == bn.rank4 && plan.use_counts()[src] == 1;
    }
    if (!fold) {
      ++i;
      continue;
    }
    // Absorb y ← y·scale + shift (per output row/channel) into the CSR
    // values and bias, removing the batch-norm node entirely. The fold
    // mutates a fresh copy of the matrix, never the shared original:
    // plans are value types (tests copy them to compare before/after a
    // pass), and an in-place scale through the shared_ptr would corrupt
    // every copy while only this plan gets the matching bias.
    PlanOp& producer = plan.ops[src];
    producer.csr = std::make_shared<sparse::CsrMatrix>(*producer.csr);
    fold_scale_shift(producer, bn.scale, bn.shift);
    producer.folded_bn = true;
    producer.bn_ordinal = bn.bn_ordinal;  // provenance for delta re-fold
    plan.ops.erase(plan.ops.begin() + static_cast<std::ptrdiff_t>(i));
    rewire_after_erase(plan, i, src);
  }
  refresh_release_if_present(plan);
  plan.validate();
}

void FreeAfterLastUse::run(Plan& plan) const {
  detail::recompute_release(plan);
  plan.validate();
}

namespace {

/// Registry names are lowercased with '-' folded to '_', so spec authors
/// may write either "fold-bn" or "fold_bn".
std::string normalize_pass_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    out.push_back(c == '-' ? '_'
                           : static_cast<char>(std::tolower(
                                 static_cast<unsigned char>(c))));
  }
  return out;
}

/// The process-wide pass registry, seeded with every built-in pass.
/// Unsynchronized by design: registration happens at start-up (or from
/// the static initializer below), after which the map is only read —
/// the same publish-then-read-only discipline as the bound Executor.
std::unordered_map<std::string, Compiler::PassFactory>& pass_registry() {
  static std::unordered_map<std::string, Compiler::PassFactory> registry =
      [] {
        std::unordered_map<std::string, Compiler::PassFactory> reg;
        reg["elide_dropout"] = [] { return std::make_unique<ElideDropout>(); };
        const auto fold_bn = [] { return std::make_unique<FoldBatchNorm>(); };
        reg["fold_batch_norm"] = fold_bn;
        reg["fold_bn"] = fold_bn;  // spec alias
        reg["free_after_last_use"] = [] {
          return std::make_unique<FreeAfterLastUse>();
        };
        reg["fuse_epilogue"] = [] { return std::make_unique<FuseEpilogue>(); };
        return reg;
      }();
  return registry;
}

}  // namespace

Compiler::Compiler(CompileOptions options) : options_(std::move(options)) {
  // The default pipeline reproduces the pre-redesign monolithic compiler
  // exactly; appended passes run after it.
  passes_.push_back(std::make_unique<ElideDropout>());
  passes_.push_back(std::make_unique<FoldBatchNorm>());
  passes_.push_back(std::make_unique<FreeAfterLastUse>());
}

void Compiler::register_pass(const std::string& name, PassFactory factory) {
  util::check(!name.empty(), "register_pass requires a name");
  util::check(factory != nullptr, "register_pass requires a factory");
  pass_registry()[normalize_pass_name(name)] = std::move(factory);
}

Compiler& Compiler::pipeline_from_spec(const std::string& spec) {
  std::vector<std::unique_ptr<Pass>> pipeline;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string token = spec.substr(start, end - start);
    start = end + 1;
    util::check(!token.empty(), "empty pass name in pipeline spec '" +
                                    spec + "'");
    const std::string name = normalize_pass_name(token);
    const auto& registry = pass_registry();
    const auto it = registry.find(name);
    util::check(it != registry.end(),
                "unknown pass '" + token + "' in pipeline spec");
    std::unique_ptr<Pass> pass = it->second();
    util::check(pass != nullptr,
                "pass factory for '" + name + "' returned null");
    pipeline.push_back(std::move(pass));
  }
  passes_ = std::move(pipeline);
  return *this;
}

std::string Compiler::pipeline_spec() const {
  std::string out;
  for (const std::unique_ptr<Pass>& pass : passes_) {
    if (!out.empty()) out += ",";
    out += pass->name();
  }
  return out;
}

Compiler& Compiler::add_pass(std::unique_ptr<Pass> pass) {
  util::check(pass != nullptr, "add_pass requires a pass");
  passes_.push_back(std::move(pass));
  return *this;
}

Compiler& Compiler::clear_passes() {
  passes_.clear();
  return *this;
}

Plan Compiler::plan(nn::Sequential& model,
                    const sparse::SparseModel* state) const {
  Plan p = lower(model, state, options_.dense_eps);
  for (const std::unique_ptr<Pass>& pass : passes_) pass->run(p);
  return p;
}

CompiledNet Compiler::compile(nn::Sequential& model,
                              const sparse::SparseModel* state) const {
  Plan p = plan(model, state);
  return bind(std::move(p));
}

CompiledNet Compiler::bind(Plan&& plan) const {
  return CompiledNet::bind(std::move(plan), options_);
}

}  // namespace dstee::serve
