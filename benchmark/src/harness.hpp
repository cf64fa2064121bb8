// Shared pieces of swallow_bench: run options, the metric list a workload
// returns, the in-memory span log of a traced run, and small measurement
// helpers. The benchmark only calls the repository's public functions and
// reads their public outputs; its spans are recorded around those calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace swallow_bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// One completed span. Times are microseconds since the process started
/// measuring (SpanLog construction).
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  double start_us = 0;
  double end_us = 0;
};

/// Spans of a traced run, kept in memory and written once at exit as JSON
/// lines. The log is capped so a long run cannot grow without bound; spans
/// past the cap are counted, not stored.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  std::uint64_t next_id() { return ++last_id_; }
  void record(const char* name, std::uint64_t id, std::uint64_t parent,
              Clock::time_point start, Clock::time_point end);
  std::size_t dropped() const { return dropped_; }
  /// Throws std::runtime_error when the file cannot be written.
  void write_jsonl(const std::string& path) const;

 private:
  static constexpr std::size_t kMaxSpans = 200'000;
  Clock::time_point epoch_;
  std::uint64_t last_id_ = 0;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;   ///< the measured phase runs at least this long
  bool traced = false;   ///< per-layer run: spans + layer metrics
  std::string tmp_dir;   ///< parent of the recovery directories
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `errors` lists failed correctness checks;
/// any entry makes the run incorrect.
struct Outcome {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  /// Multi-line human summary (the traced per-layer budget).
  std::string summary;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Median of a non-empty sample (R-7 interpolation, as common::percentile).
double median(const std::vector<double>& sample);

/// Times a workload's set-up several times in one run. The first set-up
/// builds what the run measures; the repeats redo it and discard the result,
/// spread evenly over the measured window, so one slow stretch of a shared
/// host cannot set the median alone.
class SetupTimer {
 public:
  SetupTimer(std::size_t repeats, double window_s,
             std::function<void()> repeat)
      : repeats_(repeats), window_s_(window_s), repeat_(std::move(repeat)) {}

  /// Times the set-up whose result is measured; the window starts after it.
  template <typename F>
  void first(F&& setup) {
    time(setup);
    window_start_ = Clock::now();
  }
  /// Called between operations: runs the next repeat once it is due.
  void poll() {
    const double due_s = window_s_ * static_cast<double>(samples_.size()) /
                         static_cast<double>(repeats_);
    if (samples_.size() < repeats_ && seconds_since(window_start_) >= due_s)
      time(repeat_);
  }
  /// After the window: runs the repeats still owed.
  void finish() {
    while (samples_.size() < repeats_) time(repeat_);
  }
  double median_s() const { return median(samples_); }

 private:
  template <typename F>
  void time(F&& setup) {
    const auto t0 = Clock::now();
    setup();
    samples_.push_back(seconds_since(t0));
  }

  std::size_t repeats_;
  double window_s_;
  std::function<void()> repeat_;
  Clock::time_point window_start_;
  std::vector<double> samples_;
};

Outcome run_replay_workload(const Options& options, SpanLog& spans);
Outcome run_shuffle_workload(const Options& options, SpanLog& spans);
bool is_replay_workload(const std::string& name);
bool is_shuffle_workload(const std::string& name);

/// `v` in fixed notation with `precision` decimals, for the stderr budget.
std::string fixed(double v, int precision);

/// Peak resident set size of this process, in MB (2^20 bytes).
double peak_rss_mb();

/// Total bytes and file count of the regular files directly in `dir` whose
/// names start with `prefix`.
struct DirUsage {
  std::uint64_t bytes = 0;
  std::uint64_t files = 0;
};
DirUsage dir_usage(const std::string& dir, const std::string& prefix);

}  // namespace swallow_bench
