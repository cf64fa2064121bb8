// Named gauges with JSON export: the headline numbers a bench prints as
// one JSON line (bench/bench_common.hpp). A gauge is created on first use
// and lives as long as the registry; references handed out stay valid.
// Lookups take a string_view, so finding an existing gauge builds no
// string.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace swallow::obs {

/// Last-write-wins scalar. set() is lock-free.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Name -> gauge registry. Lookup takes a mutex; the returned reference is
/// stable for the registry's lifetime.
class Registry {
 public:
  Gauge& gauge(std::string_view name);

  /// {"gauges":{...}} — keys sorted, so output is deterministic.
  std::string to_json() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Gauge, std::less<>> gauges_;
};

}  // namespace swallow::obs
