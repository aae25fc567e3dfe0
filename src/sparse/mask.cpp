#include "sparse/mask.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "util/check.hpp"

namespace dstee::sparse {

namespace {

constexpr std::size_t kWordBits = 64;

std::size_t words_for(std::size_t numel) {
  return (numel + kWordBits - 1) / kWordBits;
}

/// The bits of the last word that hold positions (all of them when
/// numel is a multiple of 64).
std::uint64_t tail_keep(std::size_t numel) {
  const std::size_t used = numel % kWordBits;
  return used == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << used) - 1;
}

/// kOctets[b] is the 0.0f / 1.0f form of the 8 positions a byte b of the
/// words holds (bit k at [k]), so a float loop over a mask reads 8 floats
/// per byte instead of shifting out each bit, and vectorizes.
constexpr auto kOctets = [] {
  std::array<std::array<float, 8>, 256> table{};
  for (std::size_t b = 0; b < 256; ++b) {
    for (std::size_t k = 0; k < 8; ++k) {
      table[b][k] = ((b >> k) & 1u) != 0 ? 1.0f : 0.0f;
    }
  }
  return table;
}();

/// Calls `body(i, row, n)` over positions [first, first + count) in runs
/// of up to 8: `row[k]` is position i + k as 0.0f / 1.0f, for k < n.
template <typename Body>
void for_each_octet(std::span<const std::uint64_t> words, std::size_t first,
                    std::size_t count, Body&& body) {
  const std::size_t end = first + count;
  for (std::size_t i = first; i < end; i += 8) {
    const std::size_t w = i / kWordBits;
    const std::size_t shift = i % kWordBits;
    std::uint64_t bits = words[w] >> shift;
    if (shift > kWordBits - 8 && w + 1 < words.size()) {
      bits |= words[w + 1] << (kWordBits - shift);
    }
    body(i, kOctets[bits & 0xFFu].data(), std::min<std::size_t>(8, end - i));
  }
}

}  // namespace

Mask Mask::zeros(tensor::Shape shape) {
  Mask m;
  m.numel_ = shape.numel();
  m.shape_ = std::move(shape);
  m.words_.assign(words_for(m.numel_), 0);
  return m;
}

Mask::Mask(tensor::Shape shape) : Mask(zeros(std::move(shape))) {
  std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
  if (!words_.empty()) words_.back() &= tail_keep(numel_);
}

Mask Mask::random(tensor::Shape shape, std::size_t active, util::Rng& rng) {
  Mask m = zeros(std::move(shape));
  util::check(active <= m.numel(),
              "cannot activate more elements than the mask holds");
  for (const std::size_t idx :
       rng.sample_without_replacement(m.numel(), active)) {
    m.activate(idx);
  }
  return m;
}

Mask Mask::from_indices(tensor::Shape shape,
                        const std::vector<std::size_t>& indices) {
  Mask m = zeros(std::move(shape));
  for (const std::size_t idx : indices) {
    util::check(idx < m.numel(), "mask index out of range");
    m.activate(idx);
  }
  return m;
}

std::size_t Mask::num_active() const {
  std::size_t n = 0;
  for (const std::uint64_t w : words_) n += std::popcount(w);
  return n;
}

double Mask::density() const {
  util::check(numel() > 0, "density of an empty mask");
  return static_cast<double>(num_active()) / static_cast<double>(numel());
}

std::vector<std::size_t> Mask::active_indices() const {
  std::vector<std::size_t> idx;
  idx.reserve(num_active());
  for_each_active(0, numel_, [&](std::size_t i) { idx.push_back(i); });
  return idx;
}

std::vector<std::size_t> Mask::inactive_indices() const {
  std::vector<std::size_t> idx;
  idx.reserve(numel_ - num_active());
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t bits = ~words_[w];
    if (w + 1 == words_.size()) bits &= tail_keep(numel_);
    for (; bits != 0; bits &= bits - 1) {
      idx.push_back(w * kWordBits +
                    static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
  return idx;
}

void Mask::apply_to(tensor::Tensor& t) const {
  util::check(t.shape() == shape_, "mask shape does not match target tensor");
  float* out = t.raw();
  for_each_octet(words_, 0, numel_,
                 [out](std::size_t i, const float* row, std::size_t n) {
                   for (std::size_t k = 0; k < n; ++k) {
                     out[i + k] = row[k] != 0.0f ? out[i + k] : 0.0f;
                   }
                 });
}

void Mask::add_to(tensor::Tensor& t) const {
  util::check(t.shape() == shape_, "mask shape does not match target tensor");
  float* out = t.raw();
  for_each_octet(words_, 0, numel_,
                 [out](std::size_t i, const float* row, std::size_t n) {
                   for (std::size_t k = 0; k < n; ++k) out[i + k] += row[k];
                 });
}

void Mask::to_floats(std::size_t first, std::span<float> out) const {
  util::check(first <= numel_ && out.size() <= numel_ - first,
              "mask range out of bounds");
  for_each_octet(words_, first, out.size(),
                 [&](std::size_t i, const float* row, std::size_t n) {
                   std::copy_n(row, n, out.data() + (i - first));
                 });
}

void Mask::from_floats(std::size_t first, std::span<const float> in) {
  util::check(first <= numel_ && in.size() <= numel_ - first,
              "mask range out of bounds");
  bool binary = true;
  for (std::size_t j = 0; j < in.size(); ++j) {
    const float v = in[j];
    binary = binary && (v == 0.0f || v == 1.0f);
    const std::size_t i = first + j;
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    std::uint64_t& word = words_[i >> 6];
    word = v == 1.0f ? word | bit : word & ~bit;
  }
  util::check(binary, "mask is not binary");
}

Mask& Mask::operator|=(const Mask& other) {
  util::check(shape_ == other.shape_, "mask union requires equal shapes");
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
  return *this;
}

std::size_t Mask::hamming_distance(const Mask& other) const {
  util::check(shape() == other.shape(),
              "hamming distance requires equal shapes");
  std::size_t d = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    d += std::popcount(words_[w] ^ other.words_[w]);
  }
  return d;
}

}  // namespace dstee::sparse
