// Deterministic random number generation for all stochastic components.
//
// Every experiment in this repository flows its randomness from a single
// 64-bit seed through Rng instances, so datasets, initializations and
// sampling are bit-reproducible across runs. The generator is
// xoshiro256** seeded via SplitMix64 (the initialization recommended by
// the xoshiro authors).
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <cmath>
#include <stdexcept>
#include <span>
#include <vector>

namespace ckat::util {

/// SplitMix64 step; used to expand a single seed into generator state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** pseudo-random generator with convenience distributions.
///
/// Not thread-safe; create one Rng per thread (see `fork()`), or guard
/// externally. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5EEDC0FFEEULL) noexcept { reseed(seed); }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
    gauss_cached_ = false;
  }

  /// Raw generator state for checkpointing; restoring it with
  /// set_state() resumes the exact same sequence. (The Gaussian pair
  /// cache is dropped on restore, which only matters to callers mixing
  /// gaussian() draws across a checkpoint boundary.)
  [[nodiscard]] std::array<std::uint64_t, 4> state() const noexcept {
    return {state_[0], state_[1], state_[2], state_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& state) noexcept {
    for (std::size_t i = 0; i < 4; ++i) state_[i] = state[i];
    gauss_cached_ = false;
  }

  /// Derive an independent child generator (for per-thread or per-module
  /// streams) without disturbing this generator's sequence.
  [[nodiscard]] Rng fork(std::uint64_t stream_id) noexcept {
    std::uint64_t sm = state_[0] ^ (0xA5A5A5A5A5A5A5A5ULL + stream_id);
    return Rng(splitmix64(sm));
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [0, 1).
  float uniform_float() noexcept { return static_cast<float>(uniform()); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t uniform_index(std::size_t n) noexcept {
    // Bounded rejection-free multiply-shift (Lemire); bias is negligible
    // for the n (< 2^32) used in this project.
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(operator()()) * n) >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    uniform_index(static_cast<std::size_t>(hi - lo + 1)));
  }

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Standard normal via Marsaglia polar method (cached pair).
  double gaussian() noexcept {
    if (gauss_cached_) {
      gauss_cached_ = false;
      return gauss_cache_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    gauss_cache_ = v * mul;
    gauss_cached_ = true;
    return u * mul;
  }

  double gaussian(double mean, double stddev) noexcept {
    return mean + stddev * gaussian();
  }

  /// Sample an index according to unnormalized non-negative weights.
  /// Throws std::invalid_argument if the total weight is not positive.
  std::size_t weighted_index(std::span<const double> weights);

  /// Exponential deviate with the given rate.
  double exponential(double rate) noexcept {
    return -std::log1p(-uniform()) / rate;
  }

  /// Zipf-like rank sample over [0, n) with exponent s >= 0 (s = 0 is
  /// uniform). Uses an inverse-CDF over precomputed weights for small n;
  /// callers needing many draws should use ZipfSampler below.
  std::size_t zipf(std::size_t n, double s);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = uniform_index(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct indices from [0, n) (Floyd's algorithm order is
  /// not needed here; simple selection-tracking is fine for k << n).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
  double gauss_cache_ = 0.0;
  bool gauss_cached_ = false;
};

/// Walker alias method for O(1) sampling from a fixed discrete
/// distribution; used by the trace generator for item popularity.
class AliasSampler {
 public:
  AliasSampler() = default;
  explicit AliasSampler(std::span<const double> weights) { build(weights); }

  /// Replaces the table with one for `weights` (empty weights leave an
  /// empty sampler). Throws std::invalid_argument on a negative weight
  /// or a non-positive total, and then leaves the sampler as it was.
  void build(std::span<const double> weights);
  /// Same, but builds the table in the weights' own storage.
  void build(std::vector<double>&& weights);

  [[nodiscard]] std::size_t sample(Rng& rng) const;
  [[nodiscard]] std::size_t size() const noexcept { return prob_.size(); }
  [[nodiscard]] bool empty() const noexcept { return prob_.empty(); }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

/// Precomputed Zipf(s) sampler over ranks [0, n).
class ZipfSampler {
 public:
  ZipfSampler() = default;
  ZipfSampler(std::size_t n, double s);

  [[nodiscard]] std::size_t sample(Rng& rng) const { return alias_.sample(rng); }
  [[nodiscard]] std::size_t size() const noexcept { return alias_.size(); }

 private:
  AliasSampler alias_;
};

}  // namespace ckat::util
