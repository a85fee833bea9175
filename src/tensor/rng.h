// Deterministic random number generation.
//
// All randomness in the library flows through rng::Generator so that every
// experiment is reproducible bit-for-bit from its seed. The generator is
// xoshiro256** seeded via SplitMix64, which gives high-quality streams from
// arbitrary 64-bit seeds and lets us derive independent sub-streams (one per
// client, one per dataset, ...) with Generator::fork().
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace calibre::rng {

class Generator {
 public:
  // Seeds the four xoshiro256** state words from `seed` via SplitMix64.
  explicit Generator(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Next raw 64-bit value.
  std::uint64_t next_u64();

  // Uniform double in [0, 1).
  double uniform();

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  // Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  // Standard normal via Box–Muller: each pair of uniforms gives two draws
  // from one sincos, the cosine half first; the sine half is cached for the
  // next call.
  double normal();

  // Writes exactly the next n normal() values to out[0, n): the cached half
  // first if there is one, then whole pairs, and a trailing odd draw caches
  // its sine half just as normal() would.
  void fill_normal(double* out, std::size_t n);

  // Normal with the given mean / standard deviation.
  double normal(double mean, double stddev);

  // Fisher–Yates shuffle of `values`.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_index(i));
      std::swap(values[i - 1], values[j]);
    }
  }

  // Samples `k` distinct indices from [0, n) (k <= n), in random order.
  std::vector<int> sample_without_replacement(int n, int k);

  // Samples from a categorical distribution given (unnormalised) weights.
  int categorical(const std::vector<double>& weights);

  // Samples a Dirichlet vector with concentration `alpha` for each of `k`
  // components (via Gamma(alpha, 1) draws, Marsaglia–Tsang).
  std::vector<double> dirichlet(double alpha, int k);

  // Derives an independent generator; deterministic given this generator's
  // current state. Useful for giving each client its own stream.
  Generator fork();

 private:
  double gamma(double shape);
  // One Box–Muller pair: the cosine half and the sine half.
  void normal_pair(double& cos_half, double& sin_half);

  std::uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace calibre::rng
