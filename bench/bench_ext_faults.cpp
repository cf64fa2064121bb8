// Extension — fault tolerance cost: sweeps the per-block fault rate over
// the runtime cluster and measures what recovery costs in JCT inflation
// and retransmitted traffic. The paper's deployment ran on a 100-VM Spark
// cluster where stragglers and lost blocks are routine; this bench answers
// "what does Swallow's recovery machinery charge for surviving them":
// target <= 2x JCT inflation at a 1% per-block fault rate, with zero data
// corruption (every job's payloads still verify).
//
// Each sweep point owns its cluster, so the rates run concurrently on
// sim::run_batch (--threads=N, default hardware) with output identical to
// the serial sweep.
#include "bench_common.hpp"
#include "runtime/shuffle.hpp"
#include "sim/run_batch.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv);
  const auto jobs = static_cast<std::size_t>(flags.get_int("jobs", 6));
  const auto fault_seed =
      static_cast<std::uint64_t>(flags.get_int("fault_seed", 7));
  sim::BatchOptions batch;
  batch.threads = static_cast<std::size_t>(flags.get_int("threads", 0));

  bench::print_header(
      "Extension - fault injection cost (JCT inflation, traffic overhead)",
      "Recovery budget: <= 2x JCT inflation at 1% per-block fault rate, "
      "zero corruption");

  const std::vector<double> rates = {0.0, 0.005, 0.01, 0.02, 0.05};

  auto run_sweep_point = [&](double rate, std::size_t& wire,
                             std::size_t& raw, runtime::FaultStats& stats) {
    runtime::ClusterConfig config;
    config.num_workers = 4;
    config.nic_rate = 64.0 * 1024 * 1024;
    config.codec_model = codec::CodecModel{"test", 4e9, 8e9, 0.5};
    config.fault.enabled = rate > 0;
    config.fault.seed = fault_seed;
    config.fault.set_uniform_rate(rate);
    config.fault.stall_duration = 0.02;
    // Small per-attempt waits keep a lost block cheap next to the job;
    // the budget still bounds every pull.
    config.retry.pull_timeout = 0.1;
    config.retry.max_attempts = 8;
    config.retry.base_backoff = 0.002;
    config.retry.max_backoff = 0.02;
    runtime::Cluster cluster(config);

    double jct = 0;
    for (std::size_t j = 0; j < jobs; ++j) {
      runtime::ShuffleJobConfig job;
      job.app = codec::app_by_name("Sort");
      job.mappers = 4;
      job.reducers = 2;
      job.bytes_per_partition = 256 * 1024;
      job.seed = j + 1;
      // run_shuffle_job throws on any payload mismatch, so a completed
      // sweep is itself the zero-corruption proof.
      const runtime::ShuffleReport report =
          runtime::run_shuffle_job(cluster, job);
      jct += report.jct;
      wire += report.wire_bytes;
      raw += report.raw_bytes;
    }
    stats = cluster.fault_stats();
    return jct / static_cast<double>(jobs);
  };

  struct SweepPoint {
    double jct = 0;
    std::size_t wire = 0;
    std::size_t raw = 0;
    runtime::FaultStats stats;
  };
  const std::vector<SweepPoint> points = sim::run_batch(
      rates.size(),
      [&](std::size_t i) {
        SweepPoint p;
        p.jct = run_sweep_point(rates[i], p.wire, p.raw, p.stats);
        return p;
      },
      batch);

  common::Table table({"fault rate", "mean JCT", "JCT inflation",
                       "traffic overhead", "injected", "retransmits",
                       "degraded flows"});
  bench::Gauges gauges;
  const double baseline_jct = points[0].jct;
  const std::size_t baseline_wire = points[0].wire;
  bool budget_met = true;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double rate = rates[i];
    const double jct = points[i].jct;
    const std::size_t wire = points[i].wire;
    const runtime::FaultStats& stats = points[i].stats;
    const double inflation = baseline_jct > 0 ? jct / baseline_jct : 1.0;
    const double overhead =
        baseline_wire > 0
            ? static_cast<double>(wire) / static_cast<double>(baseline_wire) -
                  1.0
            : 0.0;
    if (rate == 0.01 && inflation > 2.0) budget_met = false;
    table.add_row({common::fmt_percent(rate),
                   common::fmt_double(jct, 3) + " s",
                   common::fmt_speedup(inflation),
                   common::fmt_percent(overhead),
                   std::to_string(stats.total_injected()),
                   std::to_string(stats.retransmits),
                   std::to_string(stats.degraded_flows)});

    const std::string prefix = "rate_" + common::fmt_percent(rate);
    gauges[prefix + ".jct_s"] = jct;
    gauges[prefix + ".jct_inflation"] = inflation;
    gauges[prefix + ".traffic_overhead"] = overhead;
    gauges[prefix + ".retransmits"] = static_cast<double>(stats.retransmits);
  }
  table.print(std::cout);
  std::cout << "all payloads verified (zero corruption); 1% budget "
            << (budget_met ? "met" : "MISSED") << " (<= 2x JCT inflation)\n";

  bench::write_bench_json(bench::current_artifact(), gauges);
  return budget_met ? 0 : 1;
}
