#include "models/gnn.hpp"

#include "tensor/init.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace dstee::models {

GcnLayer::GcnLayer(const graph::Graph& g, std::size_t in_features,
                   std::size_t out_features, util::Rng& rng)
    : graph_(&g),
      in_features_(in_features),
      out_features_(out_features),
      weight_("gcn.weight", tensor::Shape({out_features, in_features}),
              /*can_sparsify=*/true) {
  util::check(in_features > 0 && out_features > 0,
              "gcn layer dimensions must be positive");
  tensor::fill_xavier_uniform(weight_.value, rng);
}

tensor::Tensor GcnLayer::forward(const tensor::Tensor& x) {
  util::check(x.rank() == 2 && x.dim(0) == graph_->num_nodes() &&
                  x.dim(1) == in_features_,
              "gcn forward expects [num_nodes, in_features]");
  cached_input_ = x;
  const tensor::Tensor xw = tensor::matmul_nt(x, weight_.value);
  return graph_->propagate(xw);
}

tensor::Tensor GcnLayer::backward(const tensor::Tensor& grad_out) {
  util::check(grad_out.rank() == 2 && grad_out.dim(0) == graph_->num_nodes() &&
                  grad_out.dim(1) == out_features_,
              "gcn backward gradient shape mismatch");
  // Y = Â(XWᵀ); Â symmetric ⇒ d(XWᵀ) = Â·grad_out.
  const tensor::Tensor grad_xw = graph_->propagate(grad_out);
  tensor::Tensor grad_w = tensor::matmul_tn(grad_xw, cached_input_);
  tensor::add_inplace(weight_.grad(), grad_w);
  return tensor::matmul(grad_xw, weight_.value);
}

void GcnLayer::collect_parameters(std::vector<nn::Parameter*>& out) {
  out.push_back(&weight_);
}

std::string GcnLayer::name() const {
  return "gcn(" + std::to_string(in_features_) + "->" +
         std::to_string(out_features_) + ")";
}

GnnLinkPredictor::GnnLinkPredictor(const graph::Graph& g,
                                   const GnnConfig& config, util::Rng& rng)
    : config_(config),
      layer1_(g, config.in_features, config.hidden, rng),
      layer2_(g, config.hidden, config.embedding, rng),
      decoder_bias_("gnn.decoder_bias", tensor::Shape({1}),
                    /*can_sparsify=*/false) {}

tensor::Tensor GnnLinkPredictor::forward(const tensor::Tensor& features) {
  tensor::Tensor h = layer1_.forward(features);
  h = relu_.forward(h);
  cached_embeddings_ = layer2_.forward(h);
  return cached_embeddings_;
}

tensor::Tensor GnnLinkPredictor::backward(const tensor::Tensor& grad_out) {
  tensor::Tensor g = layer2_.backward(grad_out);
  g = relu_.backward(g);
  return layer1_.backward(g);
}

tensor::Tensor GnnLinkPredictor::score_pairs(
    const std::vector<graph::LabeledPair>& pairs) const {
  util::check(cached_embeddings_.rank() == 2,
              "score_pairs requires forward() first");
  const std::size_t d = cached_embeddings_.dim(1);
  tensor::Tensor logits({pairs.size()});
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const float* zu = cached_embeddings_.raw() + pairs[i].u * d;
    const float* zv = cached_embeddings_.raw() + pairs[i].v * d;
    float acc = decoder_bias_.value[0];
    for (std::size_t j = 0; j < d; ++j) acc += zu[j] * zv[j];
    logits[i] = acc;
  }
  return logits;
}

tensor::Tensor GnnLinkPredictor::pair_grad_to_embedding_grad(
    const tensor::Tensor& grad_logits,
    const std::vector<graph::LabeledPair>& pairs) {
  util::check(grad_logits.numel() == pairs.size(),
              "one logit gradient per pair required");
  const std::size_t d = cached_embeddings_.dim(1);
  tensor::Tensor grad_z(cached_embeddings_.shape());
  tensor::Tensor& grad_bias = decoder_bias_.grad();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const float g = grad_logits[i];
    grad_bias[0] += g;
    const float* zu = cached_embeddings_.raw() + pairs[i].u * d;
    const float* zv = cached_embeddings_.raw() + pairs[i].v * d;
    float* gu = grad_z.raw() + pairs[i].u * d;
    float* gv = grad_z.raw() + pairs[i].v * d;
    for (std::size_t j = 0; j < d; ++j) {
      gu[j] += g * zv[j];
      gv[j] += g * zu[j];
    }
  }
  return grad_z;
}

void GnnLinkPredictor::collect_parameters(std::vector<nn::Parameter*>& out) {
  layer1_.collect_parameters(out);
  layer2_.collect_parameters(out);
  out.push_back(&decoder_bias_);
}

void GnnLinkPredictor::collect_state_buffers(
    std::vector<tensor::Tensor*>& out) {
  layer1_.collect_state_buffers(out);
  layer2_.collect_state_buffers(out);
}

void GnnLinkPredictor::set_training(bool training) {
  Module::set_training(training);
  layer1_.set_training(training);
  relu_.set_training(training);
  layer2_.set_training(training);
}

}  // namespace dstee::models
