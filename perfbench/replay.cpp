#include "replay.hpp"

#include <optional>

#include "kernels/epilogue.hpp"
#include "serve/passes.hpp"
#include "tensor/im2col.hpp"
#include "tensor/init.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace dstee;

namespace {

struct ConvNode {
  const serve::PlanOp* op = nullptr;
  tensor::ConvGeometry geometry;
  double flops = 0.0;
  double weight_bytes = 0.0;
  tensor::Tensor image;
};

}  // namespace

ExecutorReplay replay_executor(nn::Sequential& model,
                               const sparse::SparseModel* state,
                               const std::vector<tensor::Tensor>& payloads,
                               std::size_t passes, SpanLog& log,
                               std::uint32_t lane) {
  ExecutorReplay r;
  const tensor::Shape sample = payloads.at(0).shape();
  const tensor::Shape batch1 = sample.prepended(1);

  // Compile the way the registry does (default options and pipeline),
  // keeping a copy of the finished plan: it shares its weight matrices
  // with the bound net and carries the conv geometry for the replays.
  serve::Compiler compiler;
  serve::Plan kept;
  std::vector<double> compile_ms;
  std::optional<serve::CompiledNet> net;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const std::int64_t t0 = now_ns();
    serve::Plan plan = compiler.plan(model, state);
    const std::int64_t t1 = now_ns();
    kept = plan;
    net.emplace(compiler.bind(std::move(plan)));
    const std::int64_t t2 = now_ns();
    const std::uint64_t id = log.reserve(lane);
    log.add(lane, "plan", t0, t1, id, i);
    log.add(lane, "bind", t1, t2, id, i);
    log.add(Span{id, 0, "compile", t0, t2, i, lane});
    compile_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
  }
  r.compile_ms = median(compile_ms);

  std::vector<double> fwd;
  for (std::size_t i = 0; i < passes; ++i) {
    const tensor::Tensor x = payloads[i % payloads.size()].reshaped(batch1);
    const std::int64_t t0 = now_ns();
    const tensor::Tensor y = net->forward(x);
    const std::int64_t t1 = now_ns();
    log.add(lane, "forward_b1", t0, t1, 0, i);
    fwd.push_back(static_cast<double>(t1 - t0) / 1e6);
  }
  r.forward_b1_ms = median(fwd);

  // The same program with CompileOptions::profile_ops: per-node wall time
  // summed per op family, per forward.
  {
    serve::CompileOptions popts;
    popts.profile_ops = true;
    serve::Compiler pc(popts);
    serve::Plan plan = pc.plan(model, state);
    std::vector<serve::PlanOpKind> kinds;
    for (const serve::PlanOp& op : plan.ops) kinds.push_back(op.kind);
    const serve::CompiledNet prof_net = pc.bind(std::move(plan));
    for (std::size_t i = 0; i < passes; ++i) {
      const std::int64_t t0 = now_ns();
      prof_net.forward(payloads[i % payloads.size()].reshaped(batch1));
      log.add(lane, "profiled_forward", t0, now_ns(), 0, i);
    }
    const obs::OpProfile& prof = *prof_net.op_profile();
    const double per = 1e6 * static_cast<double>(passes);
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      const double ms = static_cast<double>(prof.node_ns(i)) / per;
      switch (kinds[i]) {
        case serve::PlanOpKind::kConv:
          r.conv_ms += ms;
          break;
        case serve::PlanOpKind::kAdd:
          r.add_ms += ms;
          break;
        case serve::PlanOpKind::kMaxPool:
        case serve::PlanOpKind::kAvgPool:
        case serve::PlanOpKind::kGlobalAvgPool:
          r.pool_ms += ms;
          break;
        default:
          r.other_ms += ms;
      }
    }
    const double total = r.conv_ms + r.add_ms + r.pool_ms + r.other_ms;
    r.conv_share = total > 0.0 ? r.conv_ms / total : 0.0;
  }

  // Every kConv node at its batch-1 geometry: im2col of a seeded image,
  // the CSR kernel over those patches (bias in its epilogue, as the bound
  // op runs it), then the ReLU epilogue the next node applies.
  const std::vector<serve::Plan::NodeCost> costs = kept.annotate(sample);
  std::vector<ConvNode> convs;
  util::Rng rng(0x5eed);
  for (std::size_t i = 0; i < kept.ops.size(); ++i) {
    const serve::PlanOp& op = kept.ops[i];
    if (op.kind != serve::PlanOpKind::kConv || op.csr == nullptr) continue;
    const tensor::Shape in = op.inputs[0] == serve::Plan::kInputId
                                 ? batch1
                                 : costs[op.inputs[0]].out_shape;
    ConvNode c;
    c.op = &op;
    c.geometry.in_channels = op.in_channels;
    c.geometry.in_h = in.dim(2);
    c.geometry.in_w = in.dim(3);
    c.geometry.kernel_h = op.kernel;
    c.geometry.kernel_w = op.kernel;
    c.geometry.stride = op.stride;
    c.geometry.padding = op.padding;
    c.flops = costs[i].flops;
    c.weight_bytes = static_cast<double>(costs[i].weight_bytes);
    c.image = tensor::Tensor(tensor::Shape({in.dim(1), in.dim(2), in.dim(3)}));
    tensor::fill_normal(c.image, rng, 0.0f, 1.0f);
    convs.push_back(std::move(c));
  }
  if (convs.empty()) return r;

  double flops = 0.0, weight_bytes = 0.0, patch_bytes = 0.0;
  for (const ConvNode& c : convs) {
    flops += c.flops;
    weight_bytes += c.weight_bytes;
    patch_bytes += 4.0 * static_cast<double>(c.geometry.patch_size() *
                                             c.geometry.out_h() *
                                             c.geometry.out_w());
  }
  std::vector<double> im2col_ms, spmm_ms, epi_ms;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    double t_im2col = 0.0, t_spmm = 0.0, t_epi = 0.0;
    const std::int64_t p0 = now_ns();
    const std::uint64_t pid = log.reserve(lane);
    for (const ConvNode& c : convs) {
      const tensor::ConvGeometry& g = c.geometry;
      const std::size_t positions = g.out_h() * g.out_w();
      tensor::Tensor cols(tensor::Shape({g.patch_size(), positions}));
      std::vector<float> out(c.op->csr->rows() * positions);
      std::vector<float> act(out.size());
      kernels::Epilogue bias_ep;
      if (c.op->has_bias) bias_ep.bias = c.op->bias.raw();
      kernels::Epilogue relu;
      relu.has_act = true;

      const std::int64_t t0 = now_ns();
      tensor::im2col(c.image.raw(), g, cols);
      const std::int64_t t1 = now_ns();
      c.op->csr->spmm_cols_into(cols, out.data(), bias_ep);
      const std::int64_t t2 = now_ns();
      kernels::apply_epilogue(out.data(), act.data(), out.size(), relu);
      const std::int64_t t3 = now_ns();
      log.add(lane, "im2col", t0, t1, pid, pass);
      log.add(lane, "spmm_cols", t1, t2, pid, pass);
      log.add(lane, "epilogue", t2, t3, pid, pass);
      t_im2col += static_cast<double>(t1 - t0) / 1e6;
      t_spmm += static_cast<double>(t2 - t1) / 1e6;
      t_epi += static_cast<double>(t3 - t2) / 1e6;
    }
    log.add(Span{pid, 0, "conv_replay", p0, now_ns(), pass, lane});
    im2col_ms.push_back(t_im2col);
    spmm_ms.push_back(t_spmm);
    epi_ms.push_back(t_epi);
  }
  r.im2col_ms = median(im2col_ms);
  r.spmm_cols_ms = median(spmm_ms);
  r.epilogue_ms = median(epi_ms);
  r.im2col_gbps = patch_bytes / (r.im2col_ms * 1e6);
  r.spconv_gflops = flops / (r.spmm_cols_ms * 1e6);
  r.spconv_weight_gbps = weight_bytes / (r.spmm_cols_ms * 1e6);
  return r;
}

void add_executor_metrics(const ExecutorReplay& r, Result& out) {
  out.add("executor.forward_b1_ms", r.forward_b1_ms, "ms");
  out.add("executor.conv_ms", r.conv_ms, "ms");
  out.add("executor.add_ms", r.add_ms, "ms");
  out.add("executor.pool_ms", r.pool_ms, "ms");
  out.add("executor.other_ms", r.other_ms, "ms");
  out.add("executor.conv_share", r.conv_share, "ratio");
  out.add("tensor.im2col_ms", r.im2col_ms, "ms");
  out.add("tensor.im2col_gbps", r.im2col_gbps, "GB/s");
  out.add("kernels.spmm_cols_ms", r.spmm_cols_ms, "ms");
  out.add("kernels.epilogue_ms", r.epilogue_ms, "ms");
  out.add("kernels.spconv_gflops", r.spconv_gflops, "GFLOP/s");
  out.add("kernels.spconv_weight_gbps", r.spconv_weight_gbps, "GB/s");
  out.add("setup.compile_ms", r.compile_ms, "ms");
}

}  // namespace perfbench
