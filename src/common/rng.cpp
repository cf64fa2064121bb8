#include "common/rng.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace swallow::common {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& word : s_) word = splitmix64(x);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
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
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  if (lo > hi) throw std::invalid_argument("uniform_int: lo > hi");
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next_u64();  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return lo + v % span;
}

double Rng::exponential(double rate) {
  if (rate <= 0) throw std::invalid_argument("exponential: rate <= 0");
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / rate;
}

double Rng::bounded_pareto(double lo, double hi, double alpha) {
  if (lo <= 0 || hi <= lo || alpha <= 0)
    throw std::invalid_argument("bounded_pareto: bad params");
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  const double u = uniform();
  // Inverse CDF of the bounded Pareto distribution.
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

double Rng::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(mu + sigma * normal());
}

bool Rng::bernoulli(double p) { return uniform() < p; }

Zipf::Zipf(std::size_t n, double s) {
  if (n == 0) throw std::invalid_argument("Zipf: n == 0");
  cdf_.resize(n);
  double sum = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_[k - 1] = sum;
  }
  for (auto& v : cdf_) v /= sum;
  // One merge pass over the slice edges b / G, which are exact because G is
  // a power of two.
  const std::size_t g = std::bit_ceil(n);
  guide_.resize(g + 1);
  std::size_t i = 0;
  for (std::size_t b = 0; b <= g; ++b) {
    const double edge = static_cast<double>(b) / static_cast<double>(g);
    while (i + 1 < n && cdf_[i] < edge) ++i;
    guide_[b] = i;
  }
}

std::size_t Zipf::sample(Rng& rng) const {
  const double u = rng.uniform();
  // u·G is exact, so b / G <= u < (b + 1) / G: no index below guide_[b]
  // reaches u, and guide_[b + 1] does (or is n - 1). The binary search for
  // the first index whose CDF reaches u needs only that bracket.
  const auto b = static_cast<std::size_t>(
      u * static_cast<double>(guide_.size() - 1));
  std::size_t lo = guide_[b], hi = guide_[b + 1];
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo + 1;
}

}  // namespace swallow::common
