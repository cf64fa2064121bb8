// Thread-safe metrics registry: named counters, gauges and histograms with
// JSON export. Instruments are created on first use and live as long as the
// registry; references handed out stay valid, so hot paths can cache them
// and update lock-free (counters/gauges are single atomics). Lookups take a
// string_view, so finding an existing instrument builds no string.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace swallow::obs {

/// Monotonic event count. add() is lock-free.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar. set() is lock-free.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Value distribution with nearest-rank percentile queries. Stores every
/// sample (8 bytes each); callers recording at very high frequency should
/// pre-aggregate.
class Histogram {
 public:
  void record(double v);
  std::size_t count() const;
  double sum() const;
  double min() const;  ///< 0 when empty
  double max() const;  ///< 0 when empty
  /// Nearest-rank percentile, p in [0, 100]; 0 when empty.
  double percentile(double p) const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> samples_;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Name -> instrument registry. Lookup takes a mutex; the returned reference
/// is stable for the registry's lifetime.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);
  /// Histogram "prof.<name>" of a ProfileScope. `name` must be a static
  /// string: it is resolved once per pointer, so no scope builds a name.
  Histogram& profile_histogram(const char* name);

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,
  /// max,p50,p95,p99}}} — keys sorted, so output is deterministic.
  std::string to_json() const;
  void write_json(std::ostream& out) const;

 private:
  template <class T>
  using Map = std::map<std::string, std::unique_ptr<T>, std::less<>>;

  mutable std::mutex mutex_;
  Map<Counter> counters_;
  Map<Gauge> gauges_;
  Map<Histogram> histograms_;
  std::unordered_map<const char*, Histogram*> profile_histograms_;
};

}  // namespace swallow::obs
