#include "serve/passes.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "serve/fusion.hpp"
#include "serve/pass_util.hpp"
#include "sparse/qcsr.hpp"
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
      // Quantized producers (csr == nullptr) are skipped: folding scales
      // into int8 values would re-round them, and re-quantizing here
      // would hide a precision change inside an unrelated pass. Run
      // fold_bn before quantize:int8 — the standalone kScaleShift stays
      // correct either way.
      fold = (producer.kind == PlanOpKind::kSpmm || conv_like) &&
             producer.csr != nullptr &&
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
    producer.csr->scale_rows(bn.scale);
    tensor::Tensor folded({producer.csr->rows()});
    for (std::size_t r = 0; r < producer.csr->rows(); ++r) {
      folded[r] =
          (producer.has_bias ? producer.bias[r] * bn.scale[r] : 0.0f) +
          bn.shift[r];
    }
    producer.bias = std::move(folded);
    producer.has_bias = true;
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

PartitionRows::PartitionRows(PartitionRowsOptions options)
    : options_(std::move(options)) {
  util::check(options_.ways >= 2, "partition_rows requires ways >= 2");
  util::check(options_.min_cost_share >= 0.0 &&
                  options_.min_cost_share <= 1.0,
              "partition_rows cost share must be in [0, 1]");
  if (options_.auto_mode) {
    util::check(options_.probe_batch >= 1 && options_.probe_iters >= 1,
                "partition_rows auto probe needs batch and iters >= 1");
  }
}

namespace {

/// The partition-rows:auto probe: bind the plan (the probe's ops share
/// its weights, so this copies nothing), run a few profiled forwards on a
/// deterministic input, and return each node's measured nanoseconds.
/// All-zero result (clock too coarse for a tiny model) tells the caller
/// to keep the analytic cost.
std::vector<double> probe_measured_cost(const Plan& plan,
                                        const PartitionRowsOptions& o) {
  auto profile = std::make_shared<obs::OpProfile>(plan.ops.size());
  // Inline intra-op policy: the probe measures per-node cost RATIOS, and
  // sharing the runtime pool with concurrent work would skew them.
  const Executor exec = Executor::bind(plan, runtime::IntraOp{}, nullptr,
                                       std::move(profile));
  std::vector<std::size_t> dims;
  dims.reserve(o.sample_shape.rank() + 1);
  dims.push_back(o.probe_batch);
  for (std::size_t i = 0; i < o.sample_shape.rank(); ++i) {
    dims.push_back(o.sample_shape.dim(i));
  }
  tensor::Tensor x{tensor::Shape(dims)};
  // Deterministic, sign-mixed fill — the probe must not depend on RNG
  // state, and an all-zero input would let value-dependent epilogues
  // (ReLU) short-circuit differently than real traffic.
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = 0.0625f * static_cast<float>(i % 33) - 1.0f;
  }
  for (std::size_t it = 0; it < o.probe_iters; ++it) exec.forward(x);
  const obs::OpProfile* prof = exec.op_profile();
  std::vector<double> cost(plan.ops.size(), 0.0);
  for (std::size_t i = 0; i < cost.size(); ++i) {
    cost[i] = static_cast<double>(prof->node_ns(i));
  }
  return cost;
}

}  // namespace

void PartitionRows::run(Plan& plan) const {
  // Per-node cost: executed FLOPs for the configured sample shape, else
  // stored-nonzero count (exact for Linear; a faithful proxy for conv,
  // whose per-position cost also scales with nnz).
  std::vector<double> cost(plan.ops.size(), 0.0);
  if (options_.sample_shape.rank() > 0) {
    const std::vector<Plan::NodeCost> costs =
        plan.annotate(options_.sample_shape);
    for (std::size_t i = 0; i < costs.size(); ++i) cost[i] = costs[i].flops;
  } else {
    for (std::size_t i = 0; i < plan.ops.size(); ++i) {
      const PlanOp& op = plan.ops[i];
      if (op.kind == PlanOpKind::kSpmm || op.kind == PlanOpKind::kConv) {
        cost[i] = static_cast<double>(op.csr != nullptr ? op.csr->nnz()
                                                        : op.qcsr->nnz());
      }
    }
  }
  // Auto mode: replace the analytic cost with measured per-node wall
  // time from a short profiled probe run. A probe that measured nothing
  // (sub-tick model) silently keeps the analytic cost above.
  if (options_.auto_mode) {
    util::check(options_.sample_shape.rank() > 0,
                "partition-rows:auto requires a sample shape "
                "(CompileOptions::sample_shape / dstee_serve --sample)");
    std::vector<double> measured = probe_measured_cost(plan, options_);
    double measured_total = 0.0;
    for (const double c : measured) measured_total += c;
    if (measured_total > 0.0) cost = std::move(measured);
  }

  double total = 0.0;
  for (const double c : cost) total += c;

  std::size_t next_group = 0;
  for (const PlanOp& op : plan.ops) {
    if (op.partition_group != PlanOp::kNoGroup) {
      next_group = std::max(next_group, op.partition_group + 1);
    }
  }

  // Descending ids: splitting node i inserts nodes after i, so every
  // not-yet-visited candidate (id < i) and its cost stay valid.
  for (std::size_t i = plan.ops.size(); i-- > 0;) {
    const PlanOp& op = plan.ops[i];
    const bool csr_node =
        op.kind == PlanOpKind::kSpmm || op.kind == PlanOpKind::kConv;
    if (!csr_node || total <= 0.0) continue;
    if (cost[i] / total < options_.min_cost_share) continue;
    const std::size_t node_rows =
        op.csr != nullptr ? op.csr->rows() : op.qcsr->rows();
    if (node_rows < options_.ways) continue;

    PlanOp original = std::move(plan.ops[i]);
    const bool is_conv = original.kind == PlanOpKind::kConv;
    const std::vector<std::size_t> bounds =
        original.csr != nullptr
            ? original.csr->balanced_row_splits(options_.ways)
            : original.qcsr->balanced_row_splits(options_.ways);

    std::vector<PlanOp> repl;
    repl.reserve(options_.ways + 2);
    if (is_conv) {
      // Hoist im2col out of the slices: patches are computed once into a
      // shared buffer every slice streams. Only the primary input feeds
      // the patch buffer — a fused residual edge belongs to the slices.
      PlanOp im;
      im.kind = PlanOpKind::kIm2col;
      im.inputs = {original.inputs.front()};
      im.in_channels = original.in_channels;
      im.kernel = original.kernel;
      im.stride = original.stride;
      im.padding = original.padding;
      repl.push_back(std::move(im));
    }
    const std::size_t patches_id = i;  // new id of the im2col node
    for (std::size_t j = 0; j < options_.ways; ++j) {
      PlanOp slice;
      slice.kind = PlanOpKind::kRowSlice;
      slice.conv_slice = is_conv;
      slice.inputs = is_conv
                         ? std::vector<std::size_t>{patches_id}
                         : std::vector<std::size_t>{original.inputs.front()};
      // A fused epilogue splits with the node: every slice applies the
      // annotation to its own row range, consuming the shared residual
      // edge (its id precedes i, so it survives the remap untouched).
      slice.epilogue = original.epilogue;
      if (original.epilogue.add_residual) {
        slice.inputs.push_back(original.inputs[1]);
      }
      slice.csr = original.csr;  // zero-copy: all slices view one matrix
      slice.qcsr = original.qcsr;
      slice.row_begin = bounds[j];
      slice.row_end = bounds[j + 1];
      if (original.has_bias) {
        tensor::Tensor b({bounds[j + 1] - bounds[j]});
        for (std::size_t r = bounds[j]; r < bounds[j + 1]; ++r) {
          b[r - bounds[j]] = original.bias[r];
        }
        slice.bias = std::move(b);
      }
      slice.has_bias = original.has_bias;
      slice.folded_bn = original.folded_bn;
      slice.sparse_ordinal = original.sparse_ordinal;
      slice.bn_ordinal = original.bn_ordinal;
      if (is_conv) {
        slice.in_channels = original.in_channels;
        slice.kernel = original.kernel;
        slice.stride = original.stride;
        slice.padding = original.padding;
      }
      slice.partition_group = next_group;
      repl.push_back(std::move(slice));
    }
    PlanOp concat;
    concat.kind = PlanOpKind::kConcatChannels;
    const std::size_t first_slice = i + (is_conv ? 1 : 0);
    for (std::size_t j = 0; j < options_.ways; ++j) {
      concat.inputs.push_back(first_slice + j);
    }
    repl.push_back(std::move(concat));
    ++next_group;

    const std::size_t inserted = repl.size();
    const std::size_t concat_id = i + inserted - 1;
    // Splice the replacement sequence in place of node i and remap every
    // later node: the old node's value is now the concat's.
    plan.ops.erase(plan.ops.begin() + static_cast<std::ptrdiff_t>(i));
    plan.ops.insert(plan.ops.begin() + static_cast<std::ptrdiff_t>(i),
                    std::make_move_iterator(repl.begin()),
                    std::make_move_iterator(repl.end()));
    for (std::size_t j = concat_id + 1; j < plan.ops.size(); ++j) {
      for (std::size_t& in : plan.ops[j].inputs) {
        if (in == Plan::kInputId || in < i) continue;
        in = in == i ? concat_id : in + inserted - 1;
      }
    }
    ++plan.partitioned_ops;
  }
  refresh_release_if_present(plan);
  plan.validate();
}

void QuantizeWeights::run(Plan& plan) const {
  // Memoized per source matrix: when PartitionRows already split a node,
  // every slice's shared_ptr resolves to the SAME quantized parent, so
  // the zero-copy slice-sharing invariant survives quantization (and the
  // pass composes identically on either side of partition_rows).
  std::unordered_map<const sparse::CsrMatrix*,
                     std::shared_ptr<sparse::QCsrMatrix>>
      memo;
  for (PlanOp& op : plan.ops) {
    const bool csr_kind = op.kind == PlanOpKind::kSpmm ||
                          op.kind == PlanOpKind::kConv ||
                          op.kind == PlanOpKind::kRowSlice;
    if (!csr_kind || op.csr == nullptr) continue;
    std::shared_ptr<sparse::QCsrMatrix>& q = memo[op.csr.get()];
    if (q == nullptr) {
      q = std::make_shared<sparse::QCsrMatrix>(
          sparse::QCsrMatrix::quantize(*op.csr));
    }
    op.qcsr = q;
    op.csr.reset();
    ++plan.quantized_ops;
  }
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

std::size_t parse_pass_size(const std::string& pass,
                            const std::string& token) {
  try {
    return std::stoul(token);
  } catch (const std::exception&) {
    util::fail("pass '" + pass + "': bad integer argument '" + token + "'");
  }
}

double parse_pass_double(const std::string& pass, const std::string& token) {
  try {
    return std::stod(token);
  } catch (const std::exception&) {
    util::fail("pass '" + pass + "': bad numeric argument '" + token + "'");
  }
}

void check_no_args(const std::string& pass,
                   const std::vector<std::string>& args) {
  util::check(args.empty(), "pass '" + pass + "' takes no arguments");
}

/// The process-wide pass registry, seeded with every built-in pass.
/// Unsynchronized by design: registration happens at start-up (or from
/// the static initializer below), after which the map is only read —
/// the same publish-then-read-only discipline as the bound Executor.
std::unordered_map<std::string, Compiler::PassFactory>& pass_registry() {
  static std::unordered_map<std::string, Compiler::PassFactory> registry =
      [] {
        std::unordered_map<std::string, Compiler::PassFactory> reg;
        reg["elide_dropout"] = [](const std::vector<std::string>& args,
                                  const CompileOptions&) {
          check_no_args("elide_dropout", args);
          return std::make_unique<ElideDropout>();
        };
        const auto fold_bn = [](const std::vector<std::string>& args,
                                const CompileOptions&) {
          check_no_args("fold_batch_norm", args);
          return std::make_unique<FoldBatchNorm>();
        };
        reg["fold_batch_norm"] = fold_bn;
        reg["fold_bn"] = fold_bn;  // spec alias
        reg["free_after_last_use"] = [](const std::vector<std::string>& args,
                                        const CompileOptions&) {
          check_no_args("free_after_last_use", args);
          return std::make_unique<FreeAfterLastUse>();
        };
        reg["fuse_epilogue"] = [](const std::vector<std::string>& args,
                                  const CompileOptions&) {
          check_no_args("fuse_epilogue", args);
          return std::make_unique<FuseEpilogue>();
        };
        const auto quantize = [](const std::vector<std::string>& args,
                                 const CompileOptions&) {
          util::check(args.empty() || (args.size() == 1 && args[0] == "int8"),
                      "quantize spec is quantize[:int8] — int8 is the only "
                      "supported mode");
          return std::make_unique<QuantizeWeights>();
        };
        reg["quantize_weights"] = quantize;
        reg["quantize"] = quantize;  // spec alias
        reg["partition_rows"] = [](const std::vector<std::string>& args,
                                   const CompileOptions& options) {
          PartitionRowsOptions popts;
          std::size_t a = 0;
          if (!args.empty() && args[0] == "auto") {
            popts.auto_mode = true;
            a = 1;
          }
          util::check(args.size() - a <= 2,
                      "partition_rows spec is [auto:]ways[:min_cost_share]");
          if (args.size() > a) {
            popts.ways = parse_pass_size("partition_rows", args[a]);
          }
          if (args.size() > a + 1) {
            popts.min_cost_share =
                parse_pass_double("partition_rows", args[a + 1]);
          }
          popts.sample_shape = options.sample_shape;
          return std::make_unique<PartitionRows>(popts);
        };
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
    // name[:arg[:arg...]]
    std::vector<std::string> parts;
    std::size_t p = 0;
    while (p <= token.size()) {
      std::size_t q = token.find(':', p);
      if (q == std::string::npos) q = token.size();
      parts.push_back(token.substr(p, q - p));
      p = q + 1;
    }
    const std::string name = normalize_pass_name(parts.front());
    const std::vector<std::string> args(parts.begin() + 1, parts.end());
    const auto& registry = pass_registry();
    const auto it = registry.find(name);
    util::check(it != registry.end(),
                "unknown pass '" + parts.front() + "' in pipeline spec");
    std::unique_ptr<Pass> pass = it->second(args, options_);
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
