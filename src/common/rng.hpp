// Deterministic random number generation for simulations.
//
// Everything random in this repository flows from an explicitly seeded
// xoshiro256++ generator, so experiments are reproducible bit-for-bit.
// Includes the heavy-tailed distributions needed to model datacenter flow
// sizes (Pareto, lognormal, Zipf) alongside the usual uniform/exponential.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace swallow::common {

/// splitmix64-style avalanche of (seed, a, b, c) into one 64-bit stream
/// seed: a fresh Rng per decision, so a seeded decision is a pure function
/// of its coordinates (fabric degradation episodes per (port, epoch), runtime
/// fault decisions per (kind, block, attempt)). The multiplicative constants
/// are splitmix64's; c = 0 mixes nothing in.
inline std::uint64_t mix64(std::uint64_t seed, std::uint64_t a,
                           std::uint64_t b, std::uint64_t c = 0) {
  std::uint64_t x = seed;
  x ^= a * 0x9e3779b97f4a7c15ULL;
  x ^= b * 0xbf58476d1ce4e5b9ULL;
  x ^= c * 0x94d049bb133111ebULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// One splitmix64 step: advances `x` by the golden-ratio increment and
/// returns the avalanche of the new value. Seeds Rng's state and
/// sim::batch_seed's per-run seeds.
inline std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ by Blackman & Vigna: fast, high-quality, 2^256-1 period.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// Exponential with given rate (mean 1/rate); used for Poisson arrivals.
  double exponential(double rate);

  /// Bounded Pareto on [lo, hi] with shape alpha.
  double bounded_pareto(double lo, double hi, double alpha);

  /// Lognormal via Box-Muller (mu/sigma are of the underlying normal).
  double lognormal(double mu, double sigma);

  /// Standard normal.
  double normal();

  /// True with probability p.
  bool bernoulli(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(0, i - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> s_;
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Zipf(1..n, s) sampler with precomputed CDF; used for word frequencies in
/// synthetic compressible data and for skewed partition sizes.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  /// Sample a rank in [1, n].
  std::size_t sample(Rng& rng) const;
  std::size_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace swallow::common
