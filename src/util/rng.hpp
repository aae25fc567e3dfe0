// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component (weight init, data synthesis, SET's random
// growth, DeepR's sign flips, minibatch shuffling, negative sampling) draws
// from its own named Rng stream derived from the experiment seed, so adding
// randomness to one component never perturbs another — table cells stay
// bit-reproducible across runs and across methods.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace dstee::util {

/// xoshiro256** PRNG. Fast, high quality, and fully deterministic across
/// platforms (unlike std::normal_distribution, whose output is
/// implementation-defined; we implement our own transforms).
class Rng {
 public:
  /// Seeds via splitmix64 expansion of `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Derives an independent stream for a named component, e.g.
  /// `Rng child = base.fork("grow/random")`. Deterministic in (state, name).
  Rng fork(std::string_view name) const;

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box–Muller (deterministic across platforms).
  double normal();

  /// Normal with the given mean / standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli draw with probability `p` of true.
  bool bernoulli(double p);

  /// Returns a uniformly random permutation of {0, ..., n-1}.
  std::vector<std::size_t> permutation(std::size_t n);

  /// Samples `k` distinct indices uniformly from {0, ..., n-1} (k <= n).
  /// Uses Floyd's algorithm (k draws, no full permutation), marking the
  /// chosen items in an n-bit bitmap.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Fisher–Yates shuffles `items` in place.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_index(i));
      std::swap(items[i - 1], items[j]);
    }
  }

 private:
  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace dstee::util
