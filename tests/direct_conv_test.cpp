// Direct sparse convolution: every kernel backend must reproduce im2col +
// the scalar spmm_cols_into BIT FOR BIT (memcmp, not allclose), over
// kernel sizes, strides and paddings, odd and non-square extents, output
// grids shorter than and not a multiple of the 8/16-lane vector widths,
// empty weight rows, every activation epilogue with bias and residual,
// and fp32 and int8 weights. The serve level then pins whole networks —
// VGG-19 and ResNet-18 through a checkpoint — to each backend against the
// scalar-pinned net.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "kernels/direct_conv.hpp"
#include "kernels/epilogue.hpp"
#include "kernels/simd/backend.hpp"
#include "models/resnet.hpp"
#include "models/vgg.hpp"
#include "serve/compiled_net.hpp"
#include "serve/passes.hpp"
#include "sparse/csr.hpp"
#include "sparse/qcsr.hpp"
#include "sparse/sparse_model.hpp"
#include "tensor/im2col.hpp"
#include "test_helpers.hpp"
#include "train/checkpoint.hpp"
#include "util/check.hpp"

namespace dstee {
namespace {

using kernels::Epilogue;
using kernels::simd::KernelBackend;
using testing::activation_epilogues;
using testing::random_tensor;

/// Every backend this host and build can run, scalar first.
std::vector<const KernelBackend*> all_backends() {
  std::vector<const KernelBackend*> out;
  for (const std::string& name : kernels::simd::available_backends()) {
    out.push_back(kernels::simd::find_backend(name));
  }
  return out;
}

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// A conv weight [cout, cin·k·k] at ~40% density whose row 1 stores
/// nothing, so every sweep covers an empty row.
sparse::CsrMatrix conv_csr(std::size_t cout, std::size_t patch,
                           std::uint64_t seed) {
  tensor::Tensor w = random_tensor(tensor::Shape({cout, patch}), seed);
  for (std::size_t c = 0; c < patch; ++c) w[patch + c] = 0.0f;
  return sparse::CsrMatrix::from_dense(w, 0.8f);
}

tensor::ConvGeometry geometry(std::size_t cin, std::size_t h, std::size_t w,
                              std::size_t k, std::size_t s, std::size_t p) {
  tensor::ConvGeometry g;
  g.in_channels = cin;
  g.in_h = h;
  g.in_w = w;
  g.kernel_h = k;
  g.kernel_w = k;
  g.stride = s;
  g.padding = p;
  return g;
}

/// The reference: im2col + the scalar spmm_cols_into.
template <typename M>
std::vector<float> im2col_reference(const M& m, const tensor::Tensor& image,
                                    const tensor::ConvGeometry& g,
                                    const Epilogue& ep) {
  tensor::Tensor cols({g.patch_size(), g.out_h() * g.out_w()});
  tensor::im2col(image.raw(), g, cols);
  std::vector<float> out(m.rows() * g.out_h() * g.out_w());
  m.spmm_cols_into(cols, out.data(), ep, &kernels::simd::scalar_backend());
  return out;
}

/// The direct path on `be`. The zeroed packing buffer first holds
/// another image, as per-chunk scratch does for every image after the
/// first: pack() must overwrite every image element and leave the pads.
template <typename M>
std::vector<float> direct(const M& m, const tensor::Tensor& image,
                          const tensor::ConvGeometry& g, const Epilogue& ep,
                          const KernelBackend* be) {
  const kernels::DirectConv dc(g);
  std::vector<float> packed(dc.packed_size);
  dc.pack(random_tensor(image.shape(), 99).raw(), packed.data());
  dc.pack(image.raw(), packed.data());
  std::vector<std::uint32_t> offsets(m.nnz());
  dc.offsets(m.col_idx(), offsets.data());
  std::vector<float> out(m.rows() * g.out_h() * g.out_w(), -1234.5f);
  m.spconv_into(packed.data(), offsets, dc.grid(), out.data(), ep, be);
  return out;
}

/// Checks every backend, fp32 and int8, every activation epilogue with
/// and without bias + residual, against the reference on one geometry.
void expect_direct_matches(const tensor::ConvGeometry& g, std::size_t cout,
                           std::uint64_t seed) {
  const auto csr = conv_csr(cout, g.patch_size(), seed);
  const auto q = sparse::QCsrMatrix::quantize(csr);
  const auto image = random_tensor(
      tensor::Shape({g.in_channels, g.in_h, g.in_w}), seed + 1);
  const auto bias = random_tensor(tensor::Shape({cout}), seed + 2);
  const auto residual = random_tensor(
      tensor::Shape({cout, g.out_h() * g.out_w()}), seed + 3);
  for (const bool operands : {false, true}) {
    for (Epilogue ep : activation_epilogues()) {
      if (operands) {
        ep.bias = bias.raw();
        ep.residual = residual.raw();
      }
      const auto ref = im2col_reference(csr, image, g, ep);
      const auto qref = im2col_reference(q, image, g, ep);
      for (const KernelBackend* be : all_backends()) {
        const std::string where =
            std::string(be->name) + " k" + std::to_string(g.kernel_h) +
            " s" + std::to_string(g.stride) + " p" +
            std::to_string(g.padding) + " " + std::to_string(g.in_h) + "x" +
            std::to_string(g.in_w) + " act " +
            std::to_string(ep.has_act ? static_cast<int>(ep.act) : -1) +
            (operands ? " +bias+residual" : "");
        EXPECT_TRUE(bits_equal(direct(csr, image, g, ep, be), ref))
            << "fp32 " << where;
        EXPECT_TRUE(bits_equal(direct(q, image, g, ep, be), qref))
            << "int8 " << where;
      }
    }
  }
}

TEST(DirectConv, KernelStridePaddingSweepMatchesIm2col) {
  // Odd, non-square extents; every K in {1, 3, 5} x stride {1, 2, 3} x
  // padding {0, 1, 2}, including strides wider than the kernel.
  std::uint64_t seed = 1000;
  for (const std::size_t k : {1u, 3u, 5u}) {
    for (const std::size_t s : {1u, 2u, 3u}) {
      for (const std::size_t p : {0u, 1u, 2u}) {
        expect_direct_matches(geometry(3, 7, 10, k, s, p), 5, seed += 10);
        expect_direct_matches(geometry(2, 9, 5, k, s, p), 4, seed += 10);
      }
    }
  }
}

TEST(DirectConv, GridLengthsAroundVectorWidths) {
  // The swept grid length (OH−1)·Wq + OW of each 3x3/s1/p1 case is in
  // the comment: below 8, between 8 and 16, not a multiple of either,
  // exactly one 64-position tile, and several tiles plus a remainder.
  const std::size_t extents[][2] = {
      {1, 1},    // 1
      {1, 5},    // 5
      {2, 3},    // 8
      {2, 5},    // 12
      {3, 7},    // 25
      {5, 6},    // 38
      {6, 9},    // 64
      {7, 9},    // 75
      {16, 16},  // 286
      {32, 32},  // 1086
  };
  std::uint64_t seed = 2000;
  for (const auto& e : extents) {
    expect_direct_matches(geometry(4, e[0], e[1], 3, 1, 1), 6, seed += 10);
  }
  // A 1x1 output map (grid length 1 without padding), and the 2x-strided
  // ResNet-style downsample shapes at small extents.
  expect_direct_matches(geometry(4, 3, 3, 3, 1, 0), 6, seed += 10);
  expect_direct_matches(geometry(4, 5, 5, 5, 2, 0), 6, seed += 10);
  expect_direct_matches(geometry(8, 8, 8, 1, 2, 0), 6, seed += 10);
  expect_direct_matches(geometry(8, 8, 8, 3, 2, 1), 6, seed += 10);
}

TEST(DirectConv, RejectsBadArguments) {
  const auto g = geometry(2, 5, 5, 3, 1, 1);
  const kernels::DirectConv dc(g);
  const auto csr = conv_csr(3, g.patch_size(), 3000);
  std::vector<float> packed(dc.packed_size, 0.0f);
  std::vector<float> out(3 * 25);
  std::vector<std::uint32_t> short_offsets(csr.nnz() - 1, 0);
  EXPECT_THROW(csr.spconv_into(packed.data(), short_offsets, dc.grid(),
                               out.data()),
               util::CheckError);
  std::vector<std::uint32_t> offsets(csr.nnz());
  dc.offsets(csr.col_idx(), offsets.data());
  EXPECT_THROW(csr.spconv_into(packed.data(), offsets, {5, 5, 4}, out.data()),
               util::CheckError);

  // A weight wider than the Cin·K·K patch cannot address this layout.
  const auto wide = conv_csr(3, g.patch_size() + 4, 3001);
  std::vector<std::uint32_t> wide_offsets(wide.nnz());
  EXPECT_THROW(dc.offsets(wide.col_idx(), wide_offsets.data()),
               util::CheckError);

  // 2^20 channels of 62x62, padded to 64x64: 2^32 floats, one past the
  // 32-bit offsets.
  EXPECT_THROW(kernels::DirectConv(geometry(std::size_t{1} << 20, 62, 62,
                                            3, 1, 1)),
               util::CheckError);
  EXPECT_THROW(kernels::DirectConv(geometry(2, 2, 2, 5, 1, 1)),
               util::CheckError);
}

// --- serve level: whole networks pinned to each backend -----------------

std::vector<float> values_of(const tensor::Tensor& t) {
  return std::vector<float>(t.raw(), t.raw() + t.numel());
}

/// Compiles `model` under `spec` (empty = the default pipeline) on every
/// backend at intra-op chunks {1, 2}, and checks batch 1 and batch 3
/// forwards against the scalar-pinned net bit for bit.
void expect_backends_match_scalar(nn::Sequential& model,
                                  const sparse::SparseModel& state,
                                  const std::string& spec,
                                  std::size_t image) {
  const auto compile = [&](const std::string& backend, std::size_t intra) {
    serve::CompileOptions opts;
    opts.kernel_backend = backend;
    opts.intra_op_threads = intra;
    serve::Compiler compiler(opts);
    if (!spec.empty()) compiler.pipeline_from_spec(spec);
    return compiler.compile(model, &state);
  };
  const serve::CompiledNet reference = compile("scalar", 1);
  for (const std::size_t batch : {1u, 3u}) {
    const auto x =
        random_tensor(tensor::Shape({batch, 3, image, image}), 4000 + batch);
    const auto expected = values_of(reference.forward(x));
    for (const std::string& backend : kernels::simd::available_backends()) {
      for (const std::size_t intra : {1u, 2u}) {
        const serve::CompiledNet net = compile(backend, intra);
        EXPECT_TRUE(bits_equal(values_of(net.forward(x)), expected))
            << backend << " intra " << intra << " batch " << batch
            << " pipeline '" << spec << "'";
      }
    }
  }
}

const char* const kPipelines[] = {
    "",  // the default pipeline: separate activation and add nodes
    "elide-dropout,fold-bn,fuse-epilogue,free-after-last-use",
    "elide-dropout,fold-bn,fuse-epilogue,quantize:int8,free-after-last-use",
};

TEST(DirectConvServe, Vgg19BitIdenticalToScalarThroughCheckpoint) {
  const std::string path = "serve_ckpt/direct_conv_vgg19.bin";
  models::VggConfig cfg;
  cfg.depth = 19;
  cfg.image_size = 16;
  cfg.num_classes = 5;
  cfg.width_multiplier = 0.1;
  util::Rng rng(4101);
  models::Vgg vgg(cfg, rng);
  sparse::SparseModel smodel(vgg, 0.9, sparse::DistributionKind::kErk, rng);
  vgg.forward(random_tensor(tensor::Shape({4, 3, 16, 16}), 4102));
  vgg.set_training(false);
  train::save_checkpoint(path, vgg, &smodel);

  util::Rng rng2(4103);
  models::Vgg loaded(cfg, rng2);
  sparse::SparseModel loaded_state(loaded, 0.9,
                                   sparse::DistributionKind::kErk, rng2);
  train::load_checkpoint(path, loaded, &loaded_state);
  loaded.set_training(false);
  for (const char* spec : kPipelines) {
    expect_backends_match_scalar(loaded, loaded_state, spec, 16);
  }
}

TEST(DirectConvServe, ResNet18BitIdenticalToScalarThroughCheckpoint) {
  const std::string path = "serve_ckpt/direct_conv_resnet18.bin";
  models::ResNetConfig cfg;
  cfg.depth = 18;
  cfg.image_size = 16;
  cfg.num_classes = 4;
  cfg.width_multiplier = 0.1;
  util::Rng rng(4201);
  models::ResNet resnet(cfg, rng);
  sparse::SparseModel smodel(resnet, 0.9, sparse::DistributionKind::kErk,
                             rng);
  resnet.forward(random_tensor(tensor::Shape({4, 3, 16, 16}), 4202));
  resnet.set_training(false);
  train::save_checkpoint(path, resnet, &smodel);

  util::Rng rng2(4203);
  models::ResNet loaded(cfg, rng2);
  sparse::SparseModel loaded_state(loaded, 0.9,
                                   sparse::DistributionKind::kErk, rng2);
  train::load_checkpoint(path, loaded, &loaded_state);
  loaded.set_training(false);
  for (const char* spec : kPipelines) {
    expect_backends_match_scalar(loaded, loaded_state, spec, 16);
  }
}

}  // namespace
}  // namespace dstee
