// Extension — fabric degradation cost: sweeps the episode rate of the
// seeded degradation schedule (link failures + brownouts + flaps) over the
// paper-like workload and measures what a non-ideal fabric charges FVDF in
// JCT/CCT inflation, how often Eq. 3 compression decisions flip when
// capacity moves, and how much time flows spend stalled behind failed
// links. The paper evaluates on a static fabric; this bench quantifies how
// the reproduction behaves when that assumption is dropped: the run must
// stay correct (every coflow completes under every rate) and inflation
// should grow smoothly with the rate, not cliff.
//
// The sweep points are independent simulations, so they run on
// sim::run_batch (--threads=N, default hardware); results land in rate
// order regardless of thread count, so the table and JSON output are
// byte-identical to the old serial loop.
#include <stdexcept>

#include "bench_common.hpp"
#include "sim/run_batch.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv);
  const auto coflows = static_cast<std::size_t>(flags.get_int("coflows", 30));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 3));
  const auto degrade_seed =
      static_cast<std::uint64_t>(flags.get_int("degrade_seed", 11));
  const std::string name = flags.get("scheduler", "FVDF");
  try {
    sim::make_scheduler(name);  // an unknown name fails here, not mid-sweep
  } catch (const std::out_of_range& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  sim::BatchOptions batch;
  batch.threads = static_cast<std::size_t>(flags.get_int("threads", 0));

  bench::print_header(
      "Extension - fabric degradation cost (JCT inflation vs episode rate)",
      "Static-fabric baseline vs seeded link failures/brownouts; every "
      "coflow must still complete at every rate");

  const workload::Trace trace = bench::paper_like_trace(seed, coflows);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(100));
  const cpu::ConstantCpu cpu(0.9);

  const std::vector<double> rates = {0.0, 0.01, 0.05, 0.1, 0.25};

  struct SweepPoint {
    double jct = 0;
    double cct = 0;
    bool completed = false;
    sim::DegradationStats stats;
  };
  const std::vector<SweepPoint> points = sim::run_batch(
      rates.size(),
      [&](std::size_t i) {
        sim::SimConfig config;
        config.codec = &codec::default_codec_model();
        config.degradation.rate = rates[i];
        config.degradation.seed = degrade_seed;
        config.degradation.failure_fraction = 0.25;
        config.max_time = 36000.0;

        const auto scheduler = sim::make_scheduler(name);
        const sim::Metrics m =
            sim::run_simulation(trace, fabric, cpu, *scheduler, config);
        SweepPoint p;
        p.jct = m.avg_jct();
        p.cct = m.avg_cct();
        p.completed = m.coflows.size() == trace.coflows.size();
        p.stats = m.degradation;
        return p;
      },
      batch);

  common::Table table({"episode rate", "avg JCT", "JCT inflation", "avg CCT",
                       "CCT inflation", "cap changes", "failures",
                       "stalled slices", "beta flips"});
  bench::Gauges gauges;
  const double baseline_jct = points[0].jct;
  const double baseline_cct = points[0].cct;
  bool all_completed = true;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double rate = rates[i];
    const SweepPoint& p = points[i];
    if (!p.completed) all_completed = false;
    const double jct_inflation =
        baseline_jct > 0 ? p.jct / baseline_jct : 1.0;
    const double cct_inflation =
        baseline_cct > 0 ? p.cct / baseline_cct : 1.0;
    table.add_row({common::fmt_percent(rate),
                   common::fmt_double(p.jct, 3) + " s",
                   common::fmt_speedup(jct_inflation),
                   common::fmt_double(p.cct, 3) + " s",
                   common::fmt_speedup(cct_inflation),
                   std::to_string(p.stats.capacity_changes),
                   std::to_string(p.stats.link_failures),
                   std::to_string(p.stats.stalled_flow_slices),
                   std::to_string(p.stats.compression_flips)});

    const std::string prefix = "rate_" + common::fmt_percent(rate);
    gauges[prefix + ".avg_jct_s"] = p.jct;
    gauges[prefix + ".jct_inflation"] = jct_inflation;
    gauges[prefix + ".avg_cct_s"] = p.cct;
    gauges[prefix + ".cct_inflation"] = cct_inflation;
    gauges[prefix + ".capacity_changes"] =
        static_cast<double>(p.stats.capacity_changes);
    gauges[prefix + ".link_failures"] =
        static_cast<double>(p.stats.link_failures);
    gauges[prefix + ".stalled_flow_slices"] =
        static_cast<double>(p.stats.stalled_flow_slices);
    gauges[prefix + ".compression_flips"] =
        static_cast<double>(p.stats.compression_flips);
  }
  table.print(std::cout);
  std::cout << (all_completed
                    ? "all coflows completed at every degradation rate\n"
                    : "INCOMPLETE runs detected\n");

  bench::write_bench_json(bench::current_artifact(), gauges);
  return all_completed ? 0 : 1;
}
