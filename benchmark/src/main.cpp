// swallow_bench: runs one benchmark workload and prints one JSON result
// line on stdout (human notes go to stderr).
//
//   swallow_bench --workload=NAME --seed=N [--seconds=S] [--traced
//       --trace-out=PATH] [--tmp-dir=DIR] [--commit=SHA]
//
// The untraced run reports the end-to-end metrics; --traced reports the
// per-layer metrics of the layers the workload exercises, prints the layer
// budget and writes the spans as JSON lines to --trace-out. Exits 1 when
// any correctness check failed, 2 on a usage error. benchmark/run.py builds
// and drives this binary.
#include <malloc.h>
#include <sys/statfs.h>

#include <charconv>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <thread>

#include "codec/chunk.hpp"
#include "common/flags.hpp"
#include "harness.hpp"
#include "obs/json.hpp"

namespace {

using namespace swallow_bench;

/// Shortest decimal that reads back as the same double.
std::string number(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string hex(unsigned long v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v, 16);
  return "0x" + std::string(buf, res.ptr);
}

}  // namespace

int main(int argc, char** argv) {
  using swallow::obs::json_quote;
  // The runtime starts fresh threads for every shuffle job, and glibc hands
  // each a malloc arena that keeps its freed buffers. Capping the arenas at
  // the core count makes peak_rss_mb track the program's buffers instead of
  // which arenas the threads of a run happened to land on.
  mallopt(M_ARENA_MAX, static_cast<int>(std::thread::hardware_concurrency()));
  Options options;
  std::string trace_out, commit;
  try {
    const swallow::common::Flags flags(argc, argv);
    options.workload = flags.get("workload", "");
    options.seed = std::stoull(flags.get("seed", "1"));
    options.seconds = flags.get_double("seconds", 10);
    options.traced = flags.get_bool("traced", false);
    options.tmp_dir = flags.get(
        "tmp-dir", std::filesystem::temp_directory_path().string());
    trace_out = flags.get("trace-out", "");
    commit = flags.get("commit", "unknown");
  } catch (const std::exception& e) {
    std::cerr << "swallow_bench: " << e.what() << "\n";
    return 2;
  }
  if (!is_replay_workload(options.workload) &&
      !is_shuffle_workload(options.workload)) {
    std::cerr << "swallow_bench: unknown --workload '" << options.workload
              << "' (replay-fvdf, replay-slo-journal, shuffle-wire, "
                 "shuffle-codec)\n";
    return 2;
  }
  std::filesystem::create_directories(options.tmp_dir);

  SpanLog spans;
  Outcome out;
  try {
    out = is_replay_workload(options.workload)
              ? run_replay_workload(options, spans)
              : run_shuffle_workload(options, spans);
  } catch (const std::exception& e) {
    out.errors.push_back(std::string("set-up failed: ") + e.what());
  }
  if (!options.traced && out.errors.empty() && out.failed == 0)
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
  if (options.traced && !trace_out.empty()) {
    try {
      spans.write_jsonl(trace_out);
    } catch (const std::exception& e) {
      out.errors.push_back(e.what());
    }
  }
  for (const Metric& m : out.metrics)
    if (!std::isfinite(m.value))
      out.errors.push_back("metric " + m.name + " is not finite");
  const bool correct = out.errors.empty() && out.failed == 0;
  if (!correct) out.metrics.clear();

  struct statfs fs{};
  const unsigned long fs_type =
      statfs(options.tmp_dir.c_str(), &fs) == 0
          ? static_cast<unsigned long>(fs.f_type)
          : 0;
  const unsigned codec_threads = swallow::codec::ChunkPool(0).size();

  for (const std::string& e : out.errors) std::cerr << "FAILED: " << e << "\n";
  if (!out.summary.empty()) std::cerr << out.summary;
  if (options.traced && spans.dropped() > 0)
    std::cerr << "span log full: " << spans.dropped() << " spans not stored\n";

  std::ostringstream json;
  json << "{\"workload\":" << json_quote(options.workload)
       << ",\"seed\":" << options.seed
       << ",\"seconds\":" << number(options.seconds)
       << ",\"traced\":" << (options.traced ? "true" : "false")
       << ",\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
       << ",\"errors\":[";
  for (std::size_t i = 0; i < out.errors.size(); ++i)
    json << (i ? "," : "") << json_quote(out.errors[i]);
  json << "],\"metrics\":{";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json << (i ? "," : "") << json_quote(m.name)
         << ":{\"value\":" << number(m.value)
         << ",\"unit\":" << json_quote(m.unit) << "}";
  }
  json << "},\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"build_type\":" << json_quote(SWALLOW_BENCH_BUILD_TYPE)
       << ",\"compiler\":" << json_quote(SWALLOW_BENCH_COMPILER)
       << ",\"commit\":" << json_quote(commit)
       << ",\"codec_pool_threads\":" << codec_threads
       << ",\"tmp_dir\":" << json_quote(options.tmp_dir)
       << ",\"tmp_fs\":" << json_quote(hex(fs_type)) << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}
