#include "obs/metrics.hpp"

#include "obs/json.hpp"

namespace swallow::obs {

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) it = gauges_.try_emplace(std::string(name)).first;
  return it->second;
}

std::string Registry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"gauges\":{";
  bool first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += json_quote(name) + ':' + json_number(g.value());
  }
  return out + "}}";
}

}  // namespace swallow::obs
