#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/json.hpp"

namespace swallow::obs {

void Histogram::record(double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (samples_.empty()) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  sum_ += v;
  samples_.push_back(v);
}

std::size_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_.size();
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return min_;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_;
}

double Histogram::percentile(double p) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (samples_.empty()) return 0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  // Nearest rank: ceil(p/100 * N), 1-based.
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

namespace {

template <class T>
T& find_or_add(std::map<std::string, std::unique_ptr<T>, std::less<>>& map,
               std::string_view name) {
  auto it = map.find(name);
  if (it == map.end())
    it = map.emplace(std::string(name), std::make_unique<T>()).first;
  return *it->second;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_add(counters_, name);
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_add(gauges_, name);
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_add(histograms_, name);
}

Histogram& Registry::profile_histogram(const char* name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Histogram*& h = profile_histograms_[name];
  if (h == nullptr) h = &find_or_add(histograms_, std::string("prof.") + name);
  return *h;
}

void Registry::write_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out << ',';
    first = false;
    out << json_quote(name) << ':'
        << json_number(static_cast<double>(c->value()));
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out << ',';
    first = false;
    out << json_quote(name) << ':' << json_number(g->value());
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out << ',';
    first = false;
    out << json_quote(name) << ":{\"count\":"
        << json_number(static_cast<double>(h->count()))
        << ",\"sum\":" << json_number(h->sum())
        << ",\"min\":" << json_number(h->min())
        << ",\"max\":" << json_number(h->max())
        << ",\"p50\":" << json_number(h->percentile(50))
        << ",\"p95\":" << json_number(h->percentile(95))
        << ",\"p99\":" << json_number(h->percentile(99)) << '}';
  }
  out << "}}";
}

std::string Registry::to_json() const {
  std::ostringstream oss;
  write_json(oss);
  return oss.str();
}

}  // namespace swallow::obs
