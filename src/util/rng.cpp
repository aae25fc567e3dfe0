#include "util/rng.hpp"

#include <cmath>
#include <cstdint>
#include <numbers>

#include "util/check.hpp"

namespace dstee::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// FNV-1a over the stream name, to derive independent child seeds.
std::uint64_t hash_name(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng Rng::fork(std::string_view name) const {
  // Mix current state words with the name hash — forking does not advance
  // the parent stream, so fork order is irrelevant to the parent.
  const std::uint64_t h = hash_name(name);
  return Rng(s_[0] ^ rotl(s_[1], 17) ^ rotl(h, 29) ^ (s_[2] + 3 * h));
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // Top 53 bits → double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  check(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  check(n > 0, "uniform_index requires n > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = n * (UINT64_MAX / n);
  std::uint64_t value = next_u64();
  while (value >= limit) value = next_u64();
  return value % n;
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 is kept away from exactly zero.
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  shuffle(perm);
  return perm;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  check(k <= n, "cannot sample more distinct items than the population size");
  // Floyd's algorithm, with the chosen set as an n-bit bitmap. j is new
  // at step j (earlier steps draw below it), so it needs no test.
  std::vector<std::uint64_t> chosen(k == 0 ? 0 : (n + 63) / 64, 0);
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    std::size_t t = static_cast<std::size_t>(uniform_index(j + 1));
    if ((chosen[t / 64] >> (t % 64)) & 1U) t = j;
    chosen[t / 64] |= std::uint64_t{1} << (t % 64);
    out.push_back(t);
  }
  return out;
}

}  // namespace dstee::util
