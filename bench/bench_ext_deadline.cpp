// Extension — deadline/SLO robustness: sweeps offered load (arrival-rate
// multiplier) over a deadline-carrying workload and measures the deadline
// met fraction and goodput of DEADLINE-FVDF (+ admission control and expiry
// shedding, DESIGN.md section 12) against deadline-blind FVDF, SEBF and
// Aalo. The paper schedules for average CCT only; this bench quantifies the
// robustness layer on top: at low load the deadline scheduler must match
// FVDF (nothing to save), and as load grows its EDF banding + deadline
// pacing + overload shedding should hold the met fraction above the blind
// schedulers'.
//
// Also re-checks the zero-deadline identity contract end-to-end: with no
// deadlines in the trace, DEADLINE-FVDF must reproduce FVDF bit for bit.
//
// Sweep points are independent simulations on sim::run_batch; results land
// in (load, scheduler) order regardless of thread count.
#include "bench_common.hpp"
#include "sim/run_batch.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv);
  const auto coflows = static_cast<std::size_t>(flags.get_int("coflows", 60));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2));
  const double fraction = flags.get_double("deadline_fraction", 0.7);
  sim::BatchOptions batch;
  batch.threads = static_cast<std::size_t>(flags.get_int("threads", 0));

  bench::print_header(
      "Extension - deadline SLOs (met fraction and goodput vs offered load)",
      "Deadline-aware FVDF + admission control vs deadline-blind "
      "FVDF/SEBF/Aalo; DEADLINE-FVDF must never trail FVDF on met fraction");

  const common::Bps bandwidth = common::mbps(100);
  auto make_trace = [&](double interarrival, double frac) {
    workload::GeneratorConfig gen;
    gen.num_ports = 16;
    gen.num_coflows = coflows;
    gen.mean_interarrival = interarrival;
    gen.size_lo = 1e5;
    gen.size_hi = 1e9;
    gen.size_alpha = 0.15;
    gen.width_lo = 1;
    gen.width_hi = 6;
    gen.seed = seed;
    gen.deadline_fraction = frac;
    gen.deadline_ref_bandwidth = bandwidth;
    gen.deadline_slack_lo = 1.4;
    gen.deadline_slack_hi = 3.0;
    return workload::generate_trace(gen);
  };
  const fabric::Fabric fabric(16, bandwidth);
  const cpu::ConstantCpu cpu(0.9);

  // Arrival-rate multipliers over the 0.5 s base interarrival. The workload
  // is heavy-tailed, so load must move an order of magnitude to bite.
  const std::vector<std::pair<std::string, double>> loads = {
      {"1x", 0.5}, {"5x", 0.1}, {"10x", 0.05}, {"25x", 0.02}};
  const std::vector<std::string> scheds = {"FVDF", "DEADLINE-FVDF", "SEBF",
                                           "AALO"};

  struct Point {
    double met_fraction = 0;
    double goodput = 0;
    double cct = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
  };
  const std::vector<Point> points = sim::run_batch(
      loads.size() * scheds.size(),
      [&](std::size_t i) {
        const auto& [label, interarrival] = loads[i / scheds.size()];
        const std::string& name = scheds[i % scheds.size()];
        const workload::Trace trace = make_trace(interarrival, fraction);
        sim::SimConfig config;
        config.codec = &codec::default_codec_model();
        config.max_time = 72000.0;
        // The robustness layer under test rides only the deadline scheduler;
        // the blind baselines run the unmodified engine path.
        config.admission.enabled = name == "DEADLINE-FVDF";
        const auto scheduler = sim::make_scheduler(name);
        const sim::Metrics m =
            sim::run_simulation(trace, fabric, cpu, *scheduler, config);
        return Point{m.deadline_met_fraction(), m.goodput_bytes(), m.avg_cct(),
                     m.slo.rejected, m.slo.shed_midflight};
      },
      batch);

  common::Table table({"load", "scheduler", "met fraction", "goodput",
                       "avg CCT", "rejected", "shed"});
  bench::Gauges gauges;
  bool never_worse = true;
  for (std::size_t li = 0; li < loads.size(); ++li) {
    double fvdf_met = 0;
    for (std::size_t si = 0; si < scheds.size(); ++si) {
      const Point& p = points[li * scheds.size() + si];
      if (scheds[si] == "FVDF") fvdf_met = p.met_fraction;
      if (scheds[si] == "DEADLINE-FVDF" && p.met_fraction < fvdf_met)
        never_worse = false;
      table.add_row({loads[li].first, scheds[si],
                     common::fmt_percent(p.met_fraction),
                     common::fmt_bytes(p.goodput),
                     common::fmt_double(p.cct, 3) + " s",
                     std::to_string(p.rejected), std::to_string(p.shed)});
      const std::string prefix = "load_" + loads[li].first + "." + scheds[si];
      gauges[prefix + ".met_fraction"] = p.met_fraction;
      gauges[prefix + ".goodput_bytes"] = p.goodput;
      gauges[prefix + ".avg_cct_s"] = p.cct;
    }
    gauges["load_" + loads[li].first + ".deadline_fvdf_met_gain"] =
        points[li * scheds.size() + 1].met_fraction - fvdf_met;
  }
  table.print(std::cout);
  std::cout << (never_worse
                    ? "DEADLINE-FVDF never trails FVDF on met fraction\n"
                    : "REGRESSION: DEADLINE-FVDF trails FVDF on met "
                      "fraction\n");

  // ---- Degradation-schedule sweep (PR 7 follow-up): met fraction vs
  // fabric degrade rate at fixed (1x) load. Link failures and brownouts
  // shrink the very capacities the deadline machinery priced admission
  // against, so this isolates how gracefully the SLO layer absorbs a
  // degrading fabric. Deterministic, so the gauges gate up-direction in
  // BENCH_deadline.json like the load-sweep ones. ----
  const std::vector<std::pair<std::string, double>> degrade_rates = {
      {"0pct", 0.0}, {"5pct", 0.05}, {"10pct", 0.1}, {"20pct", 0.2}};
  const std::vector<std::string> degrade_scheds = {"FVDF", "DEADLINE-FVDF"};
  const std::vector<Point> degrade_points = sim::run_batch(
      degrade_rates.size() * degrade_scheds.size(),
      [&](std::size_t i) {
        const auto& [label, rate] = degrade_rates[i / degrade_scheds.size()];
        const std::string& name = degrade_scheds[i % degrade_scheds.size()];
        const workload::Trace trace = make_trace(0.5, fraction);
        sim::SimConfig config;
        config.codec = &codec::default_codec_model();
        config.max_time = 72000.0;
        config.admission.enabled = name == "DEADLINE-FVDF";
        config.degradation.rate = rate;
        config.degradation.seed = seed + 17;
        config.degradation.failure_fraction = 0.25;
        const auto scheduler = sim::make_scheduler(name);
        const sim::Metrics m =
            sim::run_simulation(trace, fabric, cpu, *scheduler, config);
        return Point{m.deadline_met_fraction(), m.goodput_bytes(), m.avg_cct(),
                     m.slo.rejected, m.slo.shed_midflight};
      },
      batch);

  common::Table degrade_table({"degrade rate", "scheduler", "met fraction",
                               "goodput", "avg CCT", "rejected", "shed"});
  for (std::size_t di = 0; di < degrade_rates.size(); ++di) {
    double fvdf_met = 0;
    for (std::size_t si = 0; si < degrade_scheds.size(); ++si) {
      const Point& p = degrade_points[di * degrade_scheds.size() + si];
      if (degrade_scheds[si] == "FVDF") fvdf_met = p.met_fraction;
      degrade_table.add_row(
          {degrade_rates[di].first, degrade_scheds[si],
           common::fmt_percent(p.met_fraction), common::fmt_bytes(p.goodput),
           common::fmt_double(p.cct, 3) + " s", std::to_string(p.rejected),
           std::to_string(p.shed)});
      const std::string prefix =
          "degrade_" + degrade_rates[di].first + "." + degrade_scheds[si];
      gauges[prefix + ".met_fraction"] = p.met_fraction;
      gauges[prefix + ".goodput_bytes"] = p.goodput;
    }
    gauges["degrade_" + degrade_rates[di].first + ".deadline_fvdf_met_gain"] =
        degrade_points[di * degrade_scheds.size() + 1].met_fraction -
        fvdf_met;
  }
  degrade_table.print(std::cout);

  // Zero-deadline A/B: on a deadline-free trace the deadline scheduler is
  // contractually bit-identical to FVDF (same records, same bits).
  const workload::Trace plain = make_trace(0.5, 0.0);
  bool identical = true;
  sim::Metrics ab[2];
  for (int k = 0; k < 2; ++k) {
    sim::SimConfig config;
    config.codec = &codec::default_codec_model();
    const auto scheduler = sim::make_scheduler(k ? "DEADLINE-FVDF" : "FVDF");
    ab[k] = sim::run_simulation(plain, fabric, cpu, *scheduler, config);
  }
  for (std::size_t i = 0; i < ab[0].coflows.size(); ++i)
    if (ab[0].coflows[i].completion != ab[1].coflows[i].completion ||
        ab[0].coflows[i].wire_bytes != ab[1].coflows[i].wire_bytes)
      identical = false;
  for (std::size_t i = 0; i < ab[0].flows.size(); ++i)
    if (ab[0].flows[i].completion != ab[1].flows[i].completion)
      identical = false;
  std::cout << (identical
                    ? "zero-deadline A/B: DEADLINE-FVDF == FVDF bit for bit\n"
                    : "REGRESSION: zero-deadline A/B diverged\n");
  gauges["zero_deadline_identity"] = identical ? 1.0 : 0.0;

  bench::write_bench_json(bench::current_artifact(), gauges);
  return never_worse && identical ? 0 : 1;
}
