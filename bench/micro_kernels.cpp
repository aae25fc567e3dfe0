// google-benchmark microbenchmarks for the kernels on the sparse-training
// hot path: matmul, im2col convolution, top-k selection, the DST-EE
// acquisition score, mask application, and a full engine update round —
// and for the serve kernels: the CSR SpMM per backend and the direct
// sparse conv against im2col + spmm_cols_into.
//
// Exit status: 1 when any hard gate or equals-check failed, else 0. Such a
// failure sets a flag beside its SkipWithError (fail_gate) that main()
// returns; a cell skipped because the host lacks a backend does not count.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "kernels/activations.hpp"
#include "kernels/direct_conv.hpp"
#include "kernels/epilogue.hpp"
#include "kernels/simd/backend.hpp"
#include "methods/drop_policy.hpp"
#include "methods/dst_engine.hpp"
#include "methods/grow_policy.hpp"
#include "models/mlp.hpp"
#include "nn/conv2d.hpp"
#include "optim/optimizer.hpp"
#include "sparse/csr.hpp"
#include "sparse/qcsr.hpp"
#include "sparse/sparse_model.hpp"
#include "tensor/im2col.hpp"
#include "tensor/init.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/topk.hpp"
#include "util/rng.hpp"

namespace dstee {
namespace {

/// Set by fail_gate; main() exits 1 when it is set.
std::atomic<bool> g_gate_failed{false};

/// Fails a hard gate or equals-check: the cell reports `what` and the
/// bench's exit status becomes 1.
void fail_gate(benchmark::State& state, const std::string& what) {
  g_gate_failed.store(true);
  state.SkipWithError(what.c_str());
}

/// The failure message of a speedup gate, with the measured value.
std::string below_gate(const char* what, double speedup) {
  return std::string(what) + " at " + std::to_string(speedup) + "x";
}

/// Best wall seconds of 5 trials of `reps` calls of `fn` — the statistic
/// every speedup gate compares, so one preempted trial cannot fail it.
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < 5; ++trial) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < reps; ++rep) fn();
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  return best;
}

tensor::Tensor random_tensor(tensor::Shape shape, std::uint64_t seed) {
  tensor::Tensor t(std::move(shape));
  util::Rng rng(seed);
  tensor::fill_normal(t, rng, 0.0f, 1.0f);
  return t;
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_tensor(tensor::Shape({n, n}), 1);
  const auto b = random_tensor(tensor::Shape({n, n}), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulNt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_tensor(tensor::Shape({n, n}), 3);
  const auto b = random_tensor(tensor::Shape({n, n}), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul_nt(a, b));
  }
}
BENCHMARK(BM_MatmulNt)->Arg(128);

void BM_ConvForward(benchmark::State& state) {
  util::Rng rng(5);
  nn::Conv2d conv(16, 32, 3, 1, 1, rng);
  const auto x = random_tensor(tensor::Shape({8, 16, 16, 16}), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x));
  }
}
BENCHMARK(BM_ConvForward);

void BM_ConvBackward(benchmark::State& state) {
  util::Rng rng(7);
  nn::Conv2d conv(16, 32, 3, 1, 1, rng);
  const auto x = random_tensor(tensor::Shape({8, 16, 16, 16}), 8);
  const auto y = conv.forward(x);
  const auto g = random_tensor(y.shape(), 9);
  for (auto _ : state) {
    conv.zero_grad();
    benchmark::DoNotOptimize(conv.backward(g));
  }
}
BENCHMARK(BM_ConvBackward);

void BM_TopK(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto values = random_tensor(tensor::Shape({n}), 10);
  const std::size_t k = n / 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::topk_indices(values, k));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TopK)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_DstEeScore(benchmark::State& state) {
  // Scoring one 512x512 layer (the acquisition function itself).
  util::Rng rng(11);
  models::MlpConfig cfg;
  cfg.in_features = 512;
  cfg.hidden = {};
  cfg.out_features = 512;
  models::Mlp model(cfg, rng);
  sparse::SparseModel smodel(model, 0.9, sparse::DistributionKind::kErk,
                             rng);
  auto& layer = smodel.layer(0);
  tensor::fill_normal(layer.param().grad, rng, 0.0f, 1.0f);
  methods::DstEeGrow::Config ee;
  methods::DstEeGrow grow(ee);
  util::Rng grow_rng(12);
  for (auto _ : state) {
    methods::GrowContext ctx{layer, 0, layer.param().grad, 1000, grow_rng};
    benchmark::DoNotOptimize(grow.scores(ctx));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(layer.numel()));
}
BENCHMARK(BM_DstEeScore);

void BM_MaskApply(benchmark::State& state) {
  util::Rng rng(13);
  const auto mask = sparse::Mask::random(tensor::Shape({1024, 1024}),
                                         1024 * 102, rng);
  auto values = random_tensor(tensor::Shape({1024, 1024}), 14);
  for (auto _ : state) {
    mask.apply_to(values);
    benchmark::DoNotOptimize(values.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.numel()));
}
BENCHMARK(BM_MaskApply);

// Dense vs CSR matvec across densities — the deployment crossover that
// makes the paper's inference-FLOPs column real.
void BM_DenseMatvec(benchmark::State& state) {
  const std::size_t n = 1024;
  const auto w = random_tensor(tensor::Shape({n, n}), 21);
  const auto x = random_tensor(tensor::Shape({1, n}), 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul_nt(x, w));
  }
}
BENCHMARK(BM_DenseMatvec);

void BM_CsrMatvec(benchmark::State& state) {
  const std::size_t n = 1024;
  const double density = static_cast<double>(state.range(0)) / 100.0;
  auto w = random_tensor(tensor::Shape({n, n}), 23);
  util::Rng rng(24);
  for (std::size_t i = 0; i < w.numel(); ++i) {
    if (!rng.bernoulli(density)) w[i] = 0.0f;
  }
  const auto csr = sparse::CsrMatrix::from_dense(w);
  const auto x = random_tensor(tensor::Shape({n}), 25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(csr.matvec(x));
  }
  state.counters["density"] = csr.density();
}
BENCHMARK(BM_CsrMatvec)->Arg(2)->Arg(5)->Arg(10)->Arg(20)->Arg(50);

// Fused epilogue vs separate activation pass: the kernel-level half of
// the serve::FuseEpilogue story. Same SpMM, same float op order — the
// fused variant applies ReLU in-register in the output loop, the
// unfused one pays a second full pass over the output tensor.
void BM_SpmmFusedRelu(benchmark::State& state) {
  const std::size_t n = 1024;
  auto w = random_tensor(tensor::Shape({n, n}), 31);
  util::Rng rng(32);
  for (std::size_t i = 0; i < w.numel(); ++i) {
    if (!rng.bernoulli(0.1)) w[i] = 0.0f;
  }
  const auto csr = sparse::CsrMatrix::from_dense(w);
  const auto x = random_tensor(tensor::Shape({1, n}), 33);
  kernels::Epilogue ep;
  ep.has_act = true;
  ep.act = kernels::ActKind::kRelu;
  for (auto _ : state) {
    benchmark::DoNotOptimize(csr.spmm(x, {}, ep));
  }
  state.counters["density"] = csr.density();
}
BENCHMARK(BM_SpmmFusedRelu);

void BM_SpmmThenRelu(benchmark::State& state) {
  const std::size_t n = 1024;
  auto w = random_tensor(tensor::Shape({n, n}), 31);
  util::Rng rng(32);
  for (std::size_t i = 0; i < w.numel(); ++i) {
    if (!rng.bernoulli(0.1)) w[i] = 0.0f;
  }
  const auto csr = sparse::CsrMatrix::from_dense(w);
  const auto x = random_tensor(tensor::Shape({1, n}), 33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::relu(csr.spmm(x)));
  }
  state.counters["density"] = csr.density();
}
BENCHMARK(BM_SpmmThenRelu);

// CSR-over-im2col conv kernel (serve::CompiledNet's ConvOp hot loop):
// one image's patch matrix against a masked [Cout, Cin·K·K] weight.
void BM_CsrSpmmCols(benchmark::State& state) {
  const std::size_t in_ch = 64, out_ch = 128, k = 3, res = 16;
  const double density = static_cast<double>(state.range(0)) / 100.0;
  auto w = random_tensor(tensor::Shape({out_ch, in_ch * k * k}), 26);
  util::Rng rng(27);
  for (std::size_t i = 0; i < w.numel(); ++i) {
    if (!rng.bernoulli(density)) w[i] = 0.0f;
  }
  const auto csr = sparse::CsrMatrix::from_dense(w);
  const auto cols =
      random_tensor(tensor::Shape({in_ch * k * k, res * res}), 28);
  tensor::Tensor out({out_ch, res * res});
  for (auto _ : state) {
    csr.spmm_cols_into(cols, out.raw());
    benchmark::DoNotOptimize(out.raw());
  }
  state.counters["density"] = csr.density();
}
BENCHMARK(BM_CsrSpmmCols)->Arg(5)->Arg(10)->Arg(50)->Arg(100);

// Kernel-backend dispatch: the same batched SpMM under the scalar
// reference and the AVX2 backend (and the int8-quantized variant).
// Args are {batch, fused}: fused == 1 runs the bias+ReLU epilogue in the
// kernel's output loop, the shape every hidden serve layer has after
// FuseEpilogue. AVX2 cells are equals-gated against scalar before timing
// — the backends are bit-identical by contract, so any mismatch is a
// kernel bug, not noise — and skip cleanly on non-AVX2 hosts.
sparse::CsrMatrix backend_bench_csr(std::size_t n, double density,
                                    std::uint64_t seed) {
  auto w = random_tensor(tensor::Shape({n, n}), seed);
  util::Rng rng(seed + 1);
  for (std::size_t i = 0; i < w.numel(); ++i) {
    if (!rng.bernoulli(density)) w[i] = 0.0f;
  }
  return sparse::CsrMatrix::from_dense(w);
}

void run_backend_spmm(benchmark::State& state,
                      const kernels::simd::KernelBackend* backend) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const bool fused = state.range(1) != 0;
  const std::size_t n = 1024;
  const auto csr = backend_bench_csr(n, 0.1, 41);
  const auto x = random_tensor(tensor::Shape({batch, n}), 42);
  const auto bias = random_tensor(tensor::Shape({n}), 43);
  kernels::Epilogue ep;
  if (fused) {
    ep.bias = bias.raw();
    ep.has_act = true;
    ep.act = kernels::ActKind::kRelu;
  }
  if (backend->is_simd) {
    const auto& scalar = kernels::simd::scalar_backend();
    if (!csr.spmm(x, {}, ep, backend).equals(csr.spmm(x, {}, ep, &scalar))) {
      fail_gate(state, "SIMD spmm diverged from scalar reference");
      return;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(csr.spmm(x, {}, ep, backend));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch * csr.nnz() * 2));
  state.counters["density"] = csr.density();
}

void BM_SpmmScalar(benchmark::State& state) {
  run_backend_spmm(state, &kernels::simd::scalar_backend());
}
BENCHMARK(BM_SpmmScalar)
    ->Args({1, 0})->Args({8, 0})->Args({32, 0})->Args({8, 1});

void BM_SpmmAvx2(benchmark::State& state) {
  const auto* avx2 = kernels::simd::avx2_backend();
  if (avx2 == nullptr) {
    state.SkipWithError("AVX2 backend unavailable on this host");
    return;
  }
  run_backend_spmm(state, avx2);
}
BENCHMARK(BM_SpmmAvx2)
    ->Args({1, 0})->Args({8, 0})->Args({32, 0})->Args({8, 1});

void BM_QSpmmInt8(benchmark::State& state) {
  // The int8 path under the process-active backend (CPUID pick or the
  // DSTEE_KERNEL_BACKEND override) — what a quantized serve replica runs.
  const auto batch = static_cast<std::size_t>(state.range(0));
  const bool fused = state.range(1) != 0;
  const std::size_t n = 1024;
  const auto q =
      sparse::QCsrMatrix::quantize(backend_bench_csr(n, 0.1, 41));
  const auto x = random_tensor(tensor::Shape({batch, n}), 42);
  const auto bias = random_tensor(tensor::Shape({n}), 43);
  kernels::Epilogue ep;
  if (fused) {
    ep.bias = bias.raw();
    ep.has_act = true;
    ep.act = kernels::ActKind::kRelu;
  }
  const auto& scalar = kernels::simd::scalar_backend();
  if (!q.spmm(x, {}, ep).equals(q.spmm(x, {}, ep, &scalar))) {
    fail_gate(state, "active-backend qspmm diverged from scalar");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.spmm(x, {}, ep));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch * q.nnz() * 2));
  state.counters["density"] = q.density();
}
BENCHMARK(BM_QSpmmInt8)
    ->Args({1, 0})->Args({8, 0})->Args({32, 0})->Args({8, 1});

// Hard gate: AVX2 must beat scalar by >= 1.5x on the batch-8 fp32 SpMM
// (the vector width's bread-and-butter shape), best of 5. Reported as the
// `speedup_b8` counter; a shortfall fails the bench's exit status. Skips
// cleanly where AVX2 does not exist.
void BM_SpmmAvx2SpeedupGate(benchmark::State& state) {
  const auto* avx2 = kernels::simd::avx2_backend();
  if (avx2 == nullptr) {
    state.SkipWithError("AVX2 backend unavailable on this host");
    return;
  }
  const std::size_t n = 1024;
  const auto csr = backend_bench_csr(n, 0.1, 41);
  const auto x = random_tensor(tensor::Shape({8, n}), 42);
  const auto spmm_on = [&](const kernels::simd::KernelBackend* be) {
    return [&csr, &x, be] {
      benchmark::DoNotOptimize(csr.spmm(x, {}, {}, be));
    };
  };
  (void)best_seconds(20, spmm_on(avx2));  // warm both code paths + caches
  const double scalar_s =
      best_seconds(20, spmm_on(&kernels::simd::scalar_backend()));
  const double avx2_s = best_seconds(20, spmm_on(avx2));
  const double speedup = scalar_s / avx2_s;
  for (auto _ : state) {
    benchmark::DoNotOptimize(csr.spmm(x, {}, {}, avx2));
  }
  state.counters["speedup_b8"] = speedup;
  if (speedup < 1.5) {
    fail_gate(state, below_gate("AVX2 spmm below the 1.5x batch-8 gate "
                                "vs scalar",
                                speedup));
  }
}
BENCHMARK(BM_SpmmAvx2SpeedupGate);

// Direct sparse conv (pack the image once, one contiguous multiply-add per
// nonzero over the output grid — serve's conv op) against the im2col +
// spmm_cols_into path it replaced, at batch 1 on the process-active
// backend. Two ResNet-18 width-0.25 geometries at 90% sparsity, indexed
// by the first arg: 16->16 3x3 s1 p1 and 16->32 3x3 s2 p1, both at 32x32.
// Every cell is equals-gated against im2col + the scalar backend before
// timing; the gate row fails the bench unless direct is >= 1.5x faster,
// best of 5. The gate is armed when the active backend is a SIMD one (the
// CPUID pick on any AVX2 host): forced to the scalar reference, whose
// per-element finish costs both paths alike, the stride-2 cell measured
// about 1.4x on the bench host.
struct ConvBench {
  tensor::ConvGeometry g;
  sparse::CsrMatrix w;
  tensor::Tensor image;
  tensor::Tensor bias;
  kernels::Epilogue ep;  ///< bias + ReLU, the fused serve shape

  static ConvBench make(std::int64_t which) {
    tensor::ConvGeometry g;
    g.in_channels = 16;
    g.in_h = g.in_w = 32;
    g.kernel_h = g.kernel_w = 3;
    g.stride = which == 0 ? 1 : 2;
    g.padding = 1;
    const std::size_t cout = which == 0 ? 16 : 32;
    auto dense = random_tensor(tensor::Shape({cout, g.patch_size()}), 51);
    util::Rng rng(52);
    for (std::size_t i = 0; i < dense.numel(); ++i) {
      if (!rng.bernoulli(0.1)) dense[i] = 0.0f;
    }
    ConvBench b{g, sparse::CsrMatrix::from_dense(dense),
                random_tensor(tensor::Shape({16, 32, 32}), 53),
                random_tensor(tensor::Shape({cout}), 54), {}};
    b.ep.bias = b.bias.raw();
    b.ep.has_act = true;
    b.ep.act = kernels::ActKind::kRelu;
    return b;
  }

  std::size_t out_size() const {
    return w.rows() * g.out_h() * g.out_w();
  }

  /// im2col + spmm_cols_into on `be` (nullptr = active).
  void im2col_path(std::vector<float>& cols, float* out,
                   const kernels::simd::KernelBackend* be) const {
    tensor::im2col(image.raw(), g, cols.data());
    w.spmm_cols_into(cols.data(), g.out_h() * g.out_w(), out, ep, be);
  }

  /// Offsets, pack and spconv_into on the active backend — per call, as
  /// the serve op does.
  void direct_path(std::vector<float>& packed, float* out) const {
    const kernels::DirectConv dc(g);
    std::vector<std::uint32_t> offsets(w.nnz());
    dc.offsets(w.col_idx(), offsets.data());
    dc.pack(image.raw(), packed.data());
    w.spconv_into(packed.data(), offsets, dc.grid(), out, ep);
  }

  std::vector<float> reference() const {
    std::vector<float> cols(g.patch_size() * g.out_h() * g.out_w());
    std::vector<float> out(out_size());
    im2col_path(cols, out.data(), &kernels::simd::scalar_backend());
    return out;
  }
};

void BM_ConvIm2col(benchmark::State& state) {
  const ConvBench b = ConvBench::make(state.range(0));
  std::vector<float> cols(b.g.patch_size() * b.g.out_h() * b.g.out_w());
  std::vector<float> out(b.out_size());
  b.im2col_path(cols, out.data(), nullptr);
  if (out != b.reference()) {
    fail_gate(state, "im2col conv diverged from im2col + scalar");
    return;
  }
  for (auto _ : state) {
    b.im2col_path(cols, out.data(), nullptr);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              2 * b.w.nnz() * b.g.out_h() * b.g.out_w()));
}
BENCHMARK(BM_ConvIm2col)->Arg(0)->Arg(1);

void BM_ConvDirect(benchmark::State& state) {
  const ConvBench b = ConvBench::make(state.range(0));
  std::vector<float> packed(kernels::DirectConv(b.g).packed_size);
  std::vector<float> out(b.out_size());
  b.direct_path(packed, out.data());
  if (out != b.reference()) {
    fail_gate(state, "direct conv diverged from im2col + scalar");
    return;
  }
  for (auto _ : state) {
    b.direct_path(packed, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              2 * b.w.nnz() * b.g.out_h() * b.g.out_w()));
}
BENCHMARK(BM_ConvDirect)->Arg(0)->Arg(1);

void BM_ConvDirectSpeedupGate(benchmark::State& state) {
  if (!kernels::simd::active_backend().is_simd) {
    state.SkipWithError("direct conv gate is armed on SIMD backends only");
    return;
  }
  const ConvBench b = ConvBench::make(state.range(0));
  std::vector<float> cols(b.g.patch_size() * b.g.out_h() * b.g.out_w());
  std::vector<float> packed(kernels::DirectConv(b.g).packed_size);
  std::vector<float> out(b.out_size());
  const auto im2col = [&] {
    b.im2col_path(cols, out.data(), nullptr);
    benchmark::DoNotOptimize(out.data());
  };
  const auto direct = [&] {
    b.direct_path(packed, out.data());
    benchmark::DoNotOptimize(out.data());
  };
  (void)best_seconds(50, direct);  // warm both paths + caches
  (void)best_seconds(50, im2col);
  const double im2col_s = best_seconds(50, im2col);
  const double direct_s = best_seconds(50, direct);
  const double speedup = im2col_s / direct_s;
  for (auto _ : state) direct();
  state.counters["speedup"] = speedup;
  if (speedup < 1.5) {
    fail_gate(state,
              below_gate("direct conv below the 1.5x gate vs im2col",
                         speedup));
  }
}
BENCHMARK(BM_ConvDirectSpeedupGate)->Arg(0)->Arg(1);

// Fan-out mechanism overhead of the persistent runtime pool, on a body
// small enough that dispatch dominates — the regime every batch<=8
// serving SpMM lives in.
void BM_FanoutPool(benchmark::State& state) {
  const auto chunks = static_cast<std::size_t>(state.range(0));
  std::vector<float> data(4096, 1.0f);
  std::vector<float> sums(chunks + 1, 0.0f);
  for (auto _ : state) {
    runtime::default_pool().run_chunks(
        data.size(), chunks, [&](std::size_t b0, std::size_t b1) {
          float acc = 0.0f;
          for (std::size_t i = b0; i < b1; ++i) acc += data[i];
          sums[b0 / ((data.size() + chunks - 1) / chunks)] = acc;
        });
    benchmark::DoNotOptimize(sums.data());
  }
}
BENCHMARK(BM_FanoutPool)->Arg(2)->Arg(4);

void BM_EngineUpdateRound(benchmark::State& state) {
  util::Rng rng(15);
  models::MlpConfig cfg;
  cfg.in_features = 256;
  cfg.hidden = {512, 512};
  cfg.out_features = 64;
  models::Mlp model(cfg, rng);
  sparse::SparseModel smodel(model, 0.9, sparse::DistributionKind::kErk,
                             rng);
  optim::Sgd::Config sgd_cfg;
  optim::Sgd optimizer(model.parameters(), sgd_cfg);
  methods::DstEngineConfig engine_cfg;
  engine_cfg.schedule.delta_t = 1;
  engine_cfg.schedule.total_iterations = 1u << 30;
  engine_cfg.schedule.stop_fraction = 1.0;
  engine_cfg.schedule.initial_drop_fraction = 0.3;
  engine_cfg.drop = std::make_unique<methods::MagnitudeDrop>();
  methods::DstEeGrow::Config ee;
  engine_cfg.grow = std::make_unique<methods::DstEeGrow>(ee);
  methods::DstEngine engine(smodel, optimizer, std::move(engine_cfg),
                            rng.fork("engine"));
  for (auto& layer : smodel.layers()) {
    tensor::fill_normal(layer.param().grad, rng, 0.0f, 1.0f);
  }
  std::size_t iteration = 1;
  for (auto _ : state) {
    engine.force_update(iteration++, 0.1);
  }
}
BENCHMARK(BM_EngineUpdateRound);

}  // namespace
}  // namespace dstee

// BENCHMARK_MAIN() returns 0 whatever a cell reports; this main also
// returns 1 when a gate or equals-check failed.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return dstee::g_gate_failed.load() ? 1 : 0;
}
