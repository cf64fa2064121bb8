// Runtime-shuffle workloads: map -> shuffle -> reduce -> result jobs run one
// at a time (a closed loop) through runtime::run_shuffle_job on one
// in-process Cluster, the Table IV API path of the paper's Fig. 7(a).
//
// The measured time of a job is its network stages, shuffle + result:
// the stages Swallow's scheduling and compression govern. The synthetic
// map stage is reported per layer only.
#include <algorithm>
#include <memory>
#include <sstream>

#include "common/stats.hpp"
#include "harness.hpp"
#include "runtime/shuffle.hpp"
#include "sim/run_batch.hpp"

namespace swallow_bench {

namespace {

using namespace swallow;

struct ShuffleSpec {
  const char* name;
  double nic_mib_s;           ///< per-worker NIC limit
  double model_compress_mbs;  ///< codec model R feeding the Eq. 3 gate
  std::size_t partition_bytes;
};

// shuffle-wire is Fig. 7(a)'s configuration: the NIC limiter is the
// bottleneck and the chunked codec hides behind it. shuffle-codec raises
// the NIC 20x, so encode and decode sit on the critical path; its model R
// keeps the Eq. 3 gate open at that NIC rate.
constexpr ShuffleSpec kSpecs[] = {
    {"shuffle-wire", 24, 500, 512 * 1024},
    {"shuffle-codec", 512, 1500, 1024 * 1024},
};

constexpr std::size_t kWorkers = 6;
constexpr std::size_t kMappers = 4;
constexpr std::size_t kReducers = 3;
constexpr std::size_t kResultReplicas = 2;
constexpr std::size_t kWarmupJobs = 4;
constexpr std::size_t kSetupRepeats = 5;
const char* const kApps[] = {"Sort", "Terasort", "Wordcount", "Pagerank"};

const ShuffleSpec* find_spec(const std::string& name) {
  for (const ShuffleSpec& spec : kSpecs)
    if (name == spec.name) return &spec;
  return nullptr;
}

runtime::ClusterConfig cluster_config(const ShuffleSpec& spec) {
  runtime::ClusterConfig config;
  config.num_workers = kWorkers;
  config.nic_rate = spec.nic_mib_s * 1024 * 1024;
  config.codec = codec::CodecKind::kLzBalanced;
  config.codec_model =
      codec::CodecModel{"swlz", spec.model_compress_mbs * common::kMB,
                        1500.0 * common::kMB, 0.45};
  return config;
}

/// Job `j` of a run; its payload seed is batch_seed(seed, j).
runtime::ShuffleJobConfig job_config(const ShuffleSpec& spec,
                                     std::uint64_t seed, std::size_t j) {
  runtime::ShuffleJobConfig job;
  job.app = codec::app_by_name(kApps[j % std::size(kApps)]);
  job.mappers = kMappers;
  job.reducers = kReducers;
  job.bytes_per_partition = spec.partition_bytes;
  job.result_replicas = kResultReplicas;
  job.seed = sim::batch_seed(seed, j);
  return job;
}

std::string check_report(const runtime::ShuffleReport& r) {
  if (!r.verified) return "payload verification failed";
  if (r.retries || r.pull_timeouts || r.corrupt_frames || r.retransmits)
    return "recovery activity on a fault-free cluster (retries " +
           std::to_string(r.retries) + ", timeouts " +
           std::to_string(r.pull_timeouts) + ", corrupt frames " +
           std::to_string(r.corrupt_frames) + ")";
  return {};
}

}  // namespace

bool is_shuffle_workload(const std::string& name) {
  return find_spec(name) != nullptr;
}

Outcome run_shuffle_workload(const Options& options, SpanLog& spans) {
  const ShuffleSpec& spec = *find_spec(options.workload);
  const runtime::ClusterConfig config = cluster_config(spec);
  Outcome out;

  // Set-up: build the cluster and run the warm-up jobs (codec pool threads
  // started, buffers and block stores grown).
  auto build = [&] {
    auto cluster = std::make_unique<runtime::Cluster>(config);
    for (std::size_t j = 0; j < kWarmupJobs; ++j)
      runtime::run_shuffle_job(*cluster, job_config(spec, options.seed, j));
    return cluster;
  };
  std::unique_ptr<runtime::Cluster> cluster;
  SetupTimer setup(kSetupRepeats, options.seconds, [&] { build(); });
  setup.first([&] { cluster = build(); });

  // Jobs rotate through the apps, whose compressibility, and so job time,
  // differs; one operation is a round of one job per app.
  std::vector<double> round_s, rates, ccts;
  double raw = 0, wire = 0, network_s = 0;
  double map_s = 0, shuffle_s = 0, result_s = 0, reduce_s = 0, driver_s = 0,
         wire_floor_s = 0;
  std::size_t chunks = 0, jobs = 0;
  std::vector<std::size_t> wire_before(kWorkers);
  auto wire_sent = [&](std::size_t w) {
    return cluster->worker(static_cast<runtime::WorkerId>(w)).wire_bytes_sent();
  };

  const auto deadline =
      Clock::now() + std::chrono::duration<double>(options.seconds);
  for (std::size_t round = 0; round == 0 || Clock::now() < deadline;
       ++round) {
    setup.poll();
    double round_network = 0, round_raw = 0;
    const std::size_t failed_before = out.failed;
    for (std::size_t a = 0; a < std::size(kApps); ++a) {
      const std::size_t j = kWarmupJobs + round * std::size(kApps) + a;
      ++out.attempted;
      for (std::size_t w = 0; w < kWorkers; ++w) wire_before[w] = wire_sent(w);
      runtime::ShuffleReport r;
      try {
        const std::uint64_t id = spans.next_id();
        const auto t0 = Clock::now();
        r = runtime::run_shuffle_job(*cluster,
                                     job_config(spec, options.seed, j));
        if (options.traced) spans.record("job", id, 0, t0, Clock::now());
      } catch (const std::exception& e) {
        ++out.failed;
        out.errors.push_back("job " + std::to_string(j) + ": " + e.what());
        continue;
      }
      if (const std::string error = check_report(r); !error.empty()) {
        ++out.failed;
        out.errors.push_back("job " + std::to_string(j) + ": " + error);
        continue;
      }
      std::size_t busiest = 0;
      for (std::size_t w = 0; w < kWorkers; ++w)
        busiest = std::max(busiest, wire_sent(w) - wire_before[w]);
      ++jobs;
      const double network = r.shuffle_time + r.result_time;
      round_network += network;
      round_raw += static_cast<double>(r.raw_bytes);
      ccts.push_back(r.shuffle_time);
      ccts.push_back(r.result_time);
      network_s += network;
      raw += static_cast<double>(r.raw_bytes);
      wire += static_cast<double>(r.wire_bytes);
      map_s += r.map_time;
      shuffle_s += r.shuffle_time;
      result_s += r.result_time;
      reduce_s += r.reduce_time;
      driver_s += r.jct - r.map_time - r.shuffle_time - r.result_time;
      wire_floor_s += static_cast<double>(busiest) / config.nic_rate;
      chunks += r.chunks_encoded;
    }
    if (out.failed > failed_before) continue;
    round_s.push_back(round_network);
    rates.push_back(round_raw / 1e6 / round_network);
  }
  setup.finish();
  if (jobs == 0 || out.failed > 0) return out;

  if (!options.traced) {
    out.add("setup_s", setup.median_s(), "s");
    out.add("op_s_p50", median(round_s), "s");
    out.add("goodput_mbps", median(rates), "MB/s");
    out.add("cct_avg_s", common::mean(ccts), "s");
    out.add("cct_p90_s", common::percentile(ccts, 0.9), "s");
    out.add("traffic_reduction", 1.0 - wire / raw, "fraction");
    return out;
  }

  const double n = static_cast<double>(jobs);
  const codec::ThroughputLedger& ledger = cluster->ledger();
  out.add("runtime.map_s", map_s / n, "s");
  out.add("runtime.shuffle_s", shuffle_s / n, "s");
  out.add("runtime.result_s", result_s / n, "s");
  out.add("runtime.reduce_s", reduce_s / n, "s");
  out.add("runtime.driver_s", driver_s / n, "s");
  out.add("runtime.wire_floor_s", wire_floor_s / n, "s");
  out.add("runtime.wire_share", wire_floor_s / network_s, "fraction");
  out.add("codec.encode_mbps", ledger.encode_mbps(), "MB/s");
  out.add("codec.decode_mbps", ledger.decode_mbps(), "MB/s");
  out.add("codec.chunks_encoded", static_cast<double>(chunks) / n, "count");
  out.add("codec.ratio", ledger.ratio(), "fraction");
  out.add("codec.threads", cluster->chunk_pool()->size(), "count");

  std::ostringstream summary;
  summary << "per-layer budget of " << spec.name << ", mean of " << jobs
          << " jobs\n"
          << "  shuffle + result " << fixed(network_s / n, 4) << " s\n"
          << "  wire floor       " << fixed(wire_floor_s / n, 4) << " s  "
          << fixed(100 * wire_floor_s / network_s, 1)
          << "%  (busiest worker's wire bytes / NIC rate)\n"
          << "  map (excluded)   " << fixed(map_s / n, 4) << " s\n"
          << "  driver remainder " << fixed(driver_s / n, 4)
          << " s  (jct - map - shuffle - result)\n";
  out.summary = summary.str();
  return out;
}

}  // namespace swallow_bench
