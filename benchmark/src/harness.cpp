#include "harness.hpp"

#include <sys/resource.h>

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "common/stats.hpp"
#include "obs/json.hpp"

namespace swallow_bench {

namespace {

double micros_since(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - epoch).count();
}

}  // namespace

void SpanLog::record(const char* name, std::uint64_t id, std::uint64_t parent,
                     Clock::time_point start, Clock::time_point end) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, id, parent, micros_since(epoch_, start),
                    micros_since(epoch_, end)});
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  out << std::fixed << std::setprecision(3);
  for (const Span& s : spans_) {
    out << "{\"name\":" << swallow::obs::json_quote(s.name)
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
        << "}\n";
  }
  out.flush();
  if (!out) throw std::runtime_error("cannot write span file '" + path + "'");
}

double median(const std::vector<double>& sample) {
  return swallow::common::percentile(sample, 0.5);
}

std::string fixed(double v, int precision) {
  std::ostringstream s;
  s << std::fixed << std::setprecision(precision) << v;
  return s.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

DirUsage dir_usage(const std::string& dir, const std::string& prefix) {
  DirUsage usage;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().filename().string().rfind(prefix, 0) != 0) continue;
    usage.bytes += entry.file_size();
    ++usage.files;
  }
  return usage;
}

}  // namespace swallow_bench
