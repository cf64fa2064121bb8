// Trace-replay workloads: generated coflow traces replayed serially through
// sim::run_simulation, one replay in flight (a closed loop).
//
// The untraced run times whole replays. The traced run replays each trace
// three ways: untraced (the reference), with the schedule() calls timed by
// TimedScheduler, and, when the workload persists, a timed twin with
// persistence off. The three must produce identical coflow records; the
// differences between their wall times give the tracing overhead and the
// recovery layer's cost.
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <tuple>

#include "common/stats.hpp"
#include "cpu/cpu_model.hpp"
#include "harness.hpp"
#include "sim/experiment.hpp"
#include "sim/run_batch.hpp"

namespace swallow_bench {

namespace {

using namespace swallow;

struct ReplaySpec {
  const char* name;
  std::size_t traces;         ///< traces in the set; one pass replays each
  std::size_t coflows;        ///< coflows per trace
  double interarrival;        ///< mean coflow inter-arrival, seconds
  double deadline_fraction;   ///< share of coflows with a deadline
  const char* scheduler;
  bool admission;
  double degrade_rate;        ///< fabric degradation episodes per port-epoch
  std::uint64_t checkpoint_every;  ///< 0: no journal, no snapshots
};

// replay-fvdf is overloaded: hundreds of coflows stay resident, so
// scheduling decisions dominate replay time. replay-slo-journal is lightly
// loaded, so the write-ahead journal and snapshots dominate instead. Many
// short replays, rather than a few long ones, keep the medians steady on a
// shared host whose speed drifts for seconds at a time.
constexpr ReplaySpec kSpecs[] = {
    {"replay-fvdf", 64, 1000, 0.05, 0.0, "FVDF", false, 0.0, 0},
    {"replay-slo-journal", 40, 1000, 0.5, 0.7, "DEADLINE-FVDF", true, 0.05,
     64},
};

constexpr std::size_t kPorts = 64;
constexpr double kBandwidthMbps = 100;
constexpr double kCpuHeadroom = 0.9;
constexpr std::size_t kSetupRepeats = 5;

const ReplaySpec* find_spec(const std::string& name) {
  for (const ReplaySpec& spec : kSpecs)
    if (name == spec.name) return &spec;
  return nullptr;
}

/// The generated inputs of one run: trace i and its degradation seed come
/// from batch_seed(seed, 2i) and batch_seed(seed, 2i + 1).
struct TraceSet {
  std::vector<workload::Trace> traces;
  std::vector<std::uint64_t> degrade_seeds;
};

TraceSet generate_traces(const ReplaySpec& spec, std::uint64_t seed) {
  TraceSet set;
  for (std::size_t i = 0; i < spec.traces; ++i) {
    workload::GeneratorConfig gen;
    gen.num_ports = kPorts;
    gen.num_coflows = spec.coflows;
    gen.mean_interarrival = spec.interarrival;
    gen.size_lo = 1e5;
    gen.size_hi = 1e9;
    gen.size_alpha = 0.15;
    gen.width_lo = 1;
    gen.width_hi = 6;
    gen.deadline_fraction = spec.deadline_fraction;
    gen.deadline_ref_bandwidth = common::mbps(kBandwidthMbps);
    gen.seed = sim::batch_seed(seed, 2 * i);
    set.traces.push_back(workload::generate_trace(gen));
    set.degrade_seeds.push_back(sim::batch_seed(seed, 2 * i + 1));
  }
  return set;
}

/// Forwards every call to the wrapped scheduler and times schedule(), one
/// child span per call under the replay's span.
class TimedScheduler final : public sched::Scheduler {
 public:
  TimedScheduler(sched::Scheduler& inner, SpanLog& spans, std::uint64_t parent,
                 std::vector<double>& round_us)
      : inner_(inner), spans_(spans), parent_(parent), round_us_(round_us) {}

  std::string name() const override { return inner_.name(); }

  fabric::Allocation schedule(const sched::SchedContext& ctx) override {
    const auto t0 = Clock::now();
    fabric::Allocation allocation = inner_.schedule(ctx);
    const auto t1 = Clock::now();
    const double s = seconds_between(t0, t1);
    busy_s_ += s;
    round_us_.push_back(s * 1e6);
    spans_.record("schedule", spans_.next_id(), parent_, t0, t1);
    return allocation;
  }

  void save_state(recovery::StateWriter& w) const override {
    inner_.save_state(w);
  }
  void restore_state(recovery::StateReader& r) override {
    inner_.restore_state(r);
  }

  double busy_s() const { return busy_s_; }

 private:
  sched::Scheduler& inner_;
  SpanLog& spans_;
  std::uint64_t parent_;
  std::vector<double>& round_us_;
  double busy_s_ = 0;
};

/// What one replay produced, plus the persistence files it left.
struct ReplayResult {
  sim::Metrics metrics;
  double wall_s = 0;
  DirUsage journal;
  DirUsage snapshots;
};

class Replayer {
 public:
  Replayer(const ReplaySpec& spec, const Options& options, const TraceSet& set)
      : spec_(spec), options_(options), set_(set) {}

  std::unique_ptr<sched::Scheduler> make_scheduler() const {
    return sim::make_scheduler(spec_.scheduler);
  }

  /// Replays trace `i` under `scheduler` (fresh for each replay), timing
  /// run_simulation only. `persist` turns on the workload's journal and
  /// snapshots, in a fresh directory removed afterwards.
  ReplayResult run(std::size_t i, sched::Scheduler& scheduler, bool persist) {
    const workload::Trace& trace = set_.traces[i];
    const fabric::Fabric fabric(trace.num_ports, common::mbps(kBandwidthMbps));
    const cpu::ConstantCpu cpu(kCpuHeadroom);
    sim::SimConfig config;
    config.codec = &codec::default_codec_model();
    config.admission.enabled = spec_.admission;
    config.degradation.rate = spec_.degrade_rate;
    config.degradation.seed = set_.degrade_seeds[i];
    const bool persistent = persist && spec_.checkpoint_every > 0;
    if (persistent) {
      config.recovery.dir = options_.tmp_dir + "/swallow-bench-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(++dirs_made_);
      std::filesystem::remove_all(config.recovery.dir);
      config.recovery.checkpoint_every = spec_.checkpoint_every;
    }

    ReplayResult result;
    const auto t0 = Clock::now();
    result.metrics = sim::run_simulation(trace, fabric, cpu, scheduler, config);
    result.wall_s = seconds_since(t0);
    if (persistent) {
      result.journal = dir_usage(config.recovery.dir, "journal");
      result.snapshots = dir_usage(config.recovery.dir, "snap-");
      std::filesystem::remove_all(config.recovery.dir);
    }
    return result;
  }

 private:
  const ReplaySpec& spec_;
  const Options& options_;
  const TraceSet& set_;
  std::size_t dirs_made_ = 0;
};

/// Empty when every coflow of the trace either completed or was refused or
/// shed by admission; otherwise the first offender.
std::string check_outcomes(const workload::Trace& trace,
                           const sim::Metrics& m) {
  if (m.coflows.size() != trace.coflows.size())
    return "replay returned " + std::to_string(m.coflows.size()) +
           " coflow records for " + std::to_string(trace.coflows.size()) +
           " coflows";
  for (const auto& c : m.coflows)
    if (!c.completed() && !c.rejected)
      return "coflow " + std::to_string(c.id) +
             " neither completed nor rejected";
  return {};
}

auto record_key(const sim::CoflowRecord& c) {
  return std::tie(c.id, c.job, c.width, c.original_bytes, c.wire_bytes,
                  c.arrival, c.completion, c.isolation_bound, c.deadline,
                  c.rejected);
}

bool same_coflows(const sim::Metrics& a, const sim::Metrics& b) {
  return std::equal(a.coflows.begin(), a.coflows.end(), b.coflows.begin(),
                    b.coflows.end(), [](const auto& x, const auto& y) {
                      return record_key(x) == record_key(y);
                    });
}

/// FNV-1a over the bytes of every coflow record field, so a repeated replay
/// can be checked against the first without keeping its records.
std::uint64_t digest_coflows(const sim::Metrics& m) {
  std::uint64_t h = 14695981039346656037ULL;
  auto feed = [&h](const auto& field) {
    unsigned char bytes[sizeof field];
    std::memcpy(bytes, &field, sizeof field);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& c : m.coflows)
    std::apply([&](const auto&... field) { (feed(field), ...); },
               record_key(c));
  return h;
}

/// End-to-end run: replays cycle through the set, at least one whole pass
/// and until the time is up. The simulated outcomes (CCTs, goodput over
/// simulated time, traffic reduction) cover the first pass, so they are a
/// function of the seed alone; later passes must repeat the first pass's
/// records exactly.
void measure_untraced(const Options& options, const TraceSet& set,
                      Replayer& replayer, SetupTimer& setup, Outcome& out) {
  const std::size_t n = set.traces.size();
  std::vector<std::uint64_t> digests(n);
  std::vector<double> walls, ccts;
  double wire = 0, original = 0, delivered = 0, makespan = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(options.seconds);
  for (std::size_t k = 0; k < n || Clock::now() < deadline; ++k) {
    setup.poll();
    const std::size_t i = k % n;
    ++out.attempted;
    try {
      const auto scheduler = replayer.make_scheduler();
      const ReplayResult r = replayer.run(i, *scheduler, true);
      std::string error = check_outcomes(set.traces[i], r.metrics);
      const std::uint64_t digest = digest_coflows(r.metrics);
      if (error.empty() && k >= n && digest != digests[i])
        error = "repeated replay produced different coflow records";
      if (!error.empty()) {
        ++out.failed;
        out.errors.push_back("trace " + std::to_string(i) + ": " + error);
        continue;
      }
      walls.push_back(r.wall_s);
      if (k < n) {
        digests[i] = digest;
        for (const auto& c : r.metrics.coflows) {
          if (!c.completed()) continue;
          ccts.push_back(c.cct());
          delivered += c.original_bytes;
        }
        wire += r.metrics.total_wire_bytes();
        original += r.metrics.total_original_bytes();
        makespan += r.metrics.makespan();
      }
    } catch (const std::exception& e) {
      ++out.failed;
      out.errors.push_back("trace " + std::to_string(i) + ": " + e.what());
    }
  }
  setup.finish();
  if (out.failed > 0) return;
  out.add("op_s_p50", median(walls), "s");
  out.add("setup_s", setup.median_s(), "s");
  out.add("goodput_mbps", delivered / 1e6 / makespan, "MB/s");
  out.add("cct_avg_s", common::mean(ccts), "s");
  out.add("cct_p90_s", common::percentile(ccts, 0.9), "s");
  out.add("traffic_reduction", 1.0 - wire / original, "fraction");
}

/// Per-layer run: each trace until the time is up, three ways (see the
/// file comment). Layer numbers are means per timed replay.
void measure_traced(const ReplaySpec& spec, const Options& options,
                    const TraceSet& set, Replayer& replayer, SetupTimer& setup,
                    SpanLog& spans, Outcome& out) {
  const bool persistent = spec.checkpoint_every > 0;
  std::size_t replays = 0;
  double wall_timed = 0, wall_twin = 0, busy = 0;
  std::vector<double> round_us, overheads;
  DirUsage journal, snapshots;
  sim::SloStats slo;
  sim::DegradationStats degradation;
  std::size_t deadline_coflows = 0, deadlines_met = 0;

  auto fail = [&](std::size_t i, const std::string& what) {
    ++out.failed;
    out.errors.push_back("trace " + std::to_string(i) + ": " + what);
  };
  // A timed replay of trace i under a root span named `name`.
  auto timed_run = [&](std::size_t i, bool persist, const char* name,
                       std::vector<double>& rounds, double& busy_s) {
    const std::uint64_t root = spans.next_id();
    const auto scheduler = replayer.make_scheduler();
    TimedScheduler timed(*scheduler, spans, root, rounds);
    const auto t0 = Clock::now();
    ReplayResult r = replayer.run(i, timed, persist);
    spans.record(name, root, 0, t0, Clock::now());
    busy_s = timed.busy_s();
    return r;
  };

  const auto deadline =
      Clock::now() + std::chrono::duration<double>(options.seconds);
  for (std::size_t i = 0;
       i < set.traces.size() && (i == 0 || Clock::now() < deadline); ++i) {
    setup.poll();
    ++out.attempted;
    try {
      const auto scheduler = replayer.make_scheduler();
      const ReplayResult plain = replayer.run(i, *scheduler, true);
      if (const std::string e = check_outcomes(set.traces[i], plain.metrics);
          !e.empty()) {
        fail(i, e);
        continue;
      }
      double busy_one = 0;
      const ReplayResult timed =
          timed_run(i, true, "replay", round_us, busy_one);
      if (!same_coflows(timed.metrics, plain.metrics)) {
        fail(i, "traced replay coflow records differ from the untraced ones");
        continue;
      }
      double twin_wall = timed.wall_s;
      if (persistent) {
        std::vector<double> twin_rounds;
        double twin_busy = 0;
        const ReplayResult twin = timed_run(i, false, "replay.persistence_off",
                                            twin_rounds, twin_busy);
        if (!same_coflows(twin.metrics, plain.metrics)) {
          fail(i, "persistence-off twin coflow records differ");
          continue;
        }
        twin_wall = twin.wall_s;
      }
      ++replays;
      wall_timed += timed.wall_s;
      wall_twin += twin_wall;
      busy += busy_one;
      overheads.push_back(timed.wall_s / plain.wall_s - 1.0);
      journal.bytes += timed.journal.bytes;
      snapshots.bytes += timed.snapshots.bytes;
      snapshots.files += timed.snapshots.files;
      const sim::Metrics& m = timed.metrics;
      slo.with_deadline += m.slo.with_deadline;
      slo.admitted += m.slo.admitted;
      slo.degraded += m.slo.degraded;
      slo.deferred += m.slo.deferred;
      slo.rejected += m.slo.rejected;
      slo.shed_midflight += m.slo.shed_midflight;
      degradation.capacity_changes += m.degradation.capacity_changes;
      degradation.stalled_flow_slices += m.degradation.stalled_flow_slices;
      degradation.compression_flips += m.degradation.compression_flips;
      deadline_coflows += m.deadline_coflows();
      deadlines_met += m.deadlines_met();
    } catch (const std::exception& e) {
      fail(i, e.what());
    }
  }
  setup.finish();
  if (out.failed > 0) return;

  // The budget: sched is measured by spans, recovery by the
  // persistence-off twin, and the engine's own time is the remainder.
  const double n = static_cast<double>(replays);
  const double recovery_s = wall_timed - wall_twin;
  const double engine_s = wall_timed - busy - recovery_s;
  const double trace_overhead = median(overheads);
  auto per = [n](double total) { return total / n; };
  auto count = [n](std::uint64_t total) {
    return static_cast<double>(total) / n;
  };
  auto share = [wall_timed](double part) { return part / wall_timed; };
  auto ratio = [](std::size_t part, std::size_t whole) {
    return whole ? static_cast<double>(part) / static_cast<double>(whole)
                 : 0.0;
  };
  out.add("sched.rounds", count(round_us.size()), "count");
  out.add("sched.busy_s", per(busy), "s");
  out.add("sched.round_us_p50", common::percentile(round_us, 0.5), "us");
  out.add("sched.round_us_p99", common::percentile(round_us, 0.99), "us");
  out.add("sched.share", share(busy), "fraction");
  out.add("sim.engine_self_s", per(engine_s), "s");
  out.add("sim.engine_share", share(engine_s), "fraction");
  out.add("sim.trace_overhead", trace_overhead, "fraction");
  out.add("recovery.overhead_s", per(recovery_s), "s");
  out.add("recovery.share", share(recovery_s), "fraction");
  out.add("recovery.journal_bytes", count(journal.bytes), "bytes");
  out.add("recovery.snapshot_bytes", count(snapshots.bytes), "bytes");
  out.add("recovery.snapshots", count(snapshots.files), "count");
  out.add("admission.admitted", count(slo.admitted), "count");
  out.add("admission.degraded", count(slo.degraded), "count");
  out.add("admission.deferred", count(slo.deferred), "count");
  out.add("admission.rejected", count(slo.rejected), "count");
  out.add("admission.shed", count(slo.shed_midflight), "count");
  out.add("admission.admit_ratio", ratio(slo.admitted, slo.with_deadline),
          "fraction");
  out.add("admission.deadline_met_fraction",
          ratio(deadlines_met, deadline_coflows), "fraction");
  out.add("fabric.capacity_changes", count(degradation.capacity_changes),
          "count");
  out.add("fabric.stalled_flow_slices",
          count(degradation.stalled_flow_slices), "count");
  out.add("fabric.compression_flips", count(degradation.compression_flips),
          "count");
  out.add("workload.generate_s", setup.median_s(), "s");

  std::ostringstream summary;
  summary << "per-layer budget of " << spec.name << ", mean of " << replays
          << " timed replays\n"
          << "  replay wall   " << fixed(per(wall_timed), 3) << " s\n"
          << "  sched         " << fixed(per(busy), 3) << " s  "
          << fixed(100 * share(busy), 1) << "%  (schedule() spans)\n"
          << "  recovery      " << fixed(per(recovery_s), 3) << " s  "
          << fixed(100 * share(recovery_s), 1)
          << "%  (minus the persistence-off twin)\n"
          << "  sim engine    " << fixed(per(engine_s), 3) << " s  "
          << fixed(100 * share(engine_s), 1)
          << "%  (remainder: wall - sched - recovery)\n"
          << "  trace overhead " << fixed(100 * trace_overhead, 2)
          << "%  (median of timed / untraced replay - 1)\n";
  out.summary = summary.str();
}

}  // namespace

bool is_replay_workload(const std::string& name) {
  return find_spec(name) != nullptr;
}

Outcome run_replay_workload(const Options& options, SpanLog& spans) {
  const ReplaySpec& spec = *find_spec(options.workload);
  Outcome out;

  // Set-up: generate the trace set.
  TraceSet set;
  SetupTimer setup(kSetupRepeats, options.seconds,
                   [&] { generate_traces(spec, options.seed); });
  setup.first([&] { set = generate_traces(spec, options.seed); });
  Replayer replayer(spec, options, set);
  if (options.traced)
    measure_traced(spec, options, set, replayer, setup, spans, out);
  else
    measure_untraced(options, set, replayer, setup, out);
  return out;
}

}  // namespace swallow_bench
