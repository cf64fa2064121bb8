#include "common/stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace swallow::common {

double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) throw std::invalid_argument("percentile: empty sample");
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("percentile: p out of range");
  std::sort(sample.begin(), sample.end());
  const double h = (static_cast<double>(sample.size()) - 1.0) * p;
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = h - static_cast<double>(lo);
  return sample[lo] + frac * (sample[hi] - sample[lo]);
}

double mean(const std::vector<double>& sample) {
  if (sample.empty()) return 0.0;
  double sum = 0.0;
  for (double v : sample) sum += v;
  return sum / static_cast<double>(sample.size());
}

}  // namespace swallow::common
