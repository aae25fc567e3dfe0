#include "sparse/mask.hpp"

#include "util/check.hpp"

namespace dstee::sparse {

Mask::Mask(tensor::Shape shape) : values_(std::move(shape)) {
  values_.fill(1.0f);
}

Mask Mask::random(tensor::Shape shape, std::size_t active, util::Rng& rng) {
  Mask m(shape);  // starts dense
  m.values_.fill(0.0f);
  util::check(active <= m.numel(),
              "cannot activate more elements than the mask holds");
  for (const std::size_t idx :
       rng.sample_without_replacement(m.numel(), active)) {
    m.values_[idx] = 1.0f;
  }
  return m;
}

Mask Mask::from_indices(tensor::Shape shape,
                        const std::vector<std::size_t>& indices) {
  Mask m(std::move(shape));
  m.values_.fill(0.0f);
  for (const std::size_t idx : indices) {
    util::check(idx < m.numel(), "mask index out of range");
    m.values_[idx] = 1.0f;
  }
  return m;
}

std::size_t Mask::num_active() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < values_.numel(); ++i) {
    if (values_[i] != 0.0f) ++n;
  }
  return n;
}

double Mask::density() const {
  util::check(numel() > 0, "density of an empty mask");
  return static_cast<double>(num_active()) / static_cast<double>(numel());
}

std::vector<std::size_t> Mask::active_indices() const {
  std::vector<std::size_t> idx;
  idx.reserve(num_active());
  for (std::size_t i = 0; i < values_.numel(); ++i) {
    if (values_[i] != 0.0f) idx.push_back(i);
  }
  return idx;
}

std::vector<std::size_t> Mask::inactive_indices() const {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < values_.numel(); ++i) {
    if (values_[i] == 0.0f) idx.push_back(i);
  }
  return idx;
}

void Mask::apply_to(tensor::Tensor& t) const {
  util::check(t.shape() == values_.shape(),
              "mask shape does not match target tensor");
  for (std::size_t i = 0; i < t.numel(); ++i) {
    if (values_[i] == 0.0f) t[i] = 0.0f;
  }
}

void Mask::check_binary() {
  bool binary = true;
  for (float& v : values_.data()) {
    binary = binary && (v == 0.0f || v == 1.0f);
    v = v == 1.0f ? 1.0f : 0.0f;
  }
  util::check(binary, "mask is not binary");
}

std::size_t Mask::hamming_distance(const Mask& other) const {
  util::check(shape() == other.shape(),
              "hamming distance requires equal shapes");
  std::size_t d = 0;
  for (std::size_t i = 0; i < values_.numel(); ++i) {
    if ((values_[i] != 0.0f) != (other.values_[i] != 0.0f)) ++d;
  }
  return d;
}

}  // namespace dstee::sparse
