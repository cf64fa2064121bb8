// bench_engine_scale: per-event scheduling cost at 1e3..1e5 resident
// coflows — the dirty-set path (DESIGN.md section 11) fed by a DirtyTracker
// vs the same schedulers with no tracker, which rebuild their memo from
// scratch on every call (the tracker-less rebuild), in the same binary.
//
// Two parts:
//  (a) Per-event decision cost. For each scheduler (FVDF, SEBF, AALO) and
//      each population size, two identically-constructed worlds take the
//      same event stream — a rotating handful of coflows drain volume, a
//      port multiplier wiggles every 16th event, every 8th event counts as
//      a coflow event (priority aging) — and schedule() is timed with the
//      DirtyTracker feed on (incremental) and off (tracker-less rebuild).
//  (b) Lockstep allocation identity: both worlds advance together and every
//      per-flow rate and compression switch must match bit-for-bit after
//      every event.
//
// Exit status is nonzero if the identity check fails or if the FVDF
// speedup at the largest population falls below --min-speedup (default 10,
// 0 disables the gate).
//
// Flags: --max-n=N (largest population, default 100000), --ports=N
// (default 96), --width=N (flows per coflow, default 2), --inc-iters=N
// (timed incremental events, default 160), --full-iters=N (timed
// tracker-less events, default 5), --min-speedup=X. With SWALLOW_BENCH_JSON
// set, appends gauges scale.<sched>.n<N>.{full_ms,inc_ms,speedup} (full_ms
// is the tracker-less rebuild) consumed by tools/check_bench_regression.py.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sched/dirty.hpp"

using namespace swallow;

namespace {

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

struct WorldKnobs {
  std::size_t coflows = 1000;
  std::size_t width = 2;
  std::size_t ports = 96;
  std::size_t drain_per_event = 64;  ///< coflows that move per event
};

// A fixed population of mid-flight coflows plus the scheduling context the
// engine would hand the scheduler. Flow endpoints and sizes come from a
// deterministic LCG so both A/B worlds are clones; volumes are large enough
// that the synthetic drains never finish a flow (population stays at n).
struct World {
  fabric::Fabric fabric;
  cpu::ConstantCpu cpu{0.9};
  std::vector<fabric::Flow> flows;
  std::vector<fabric::Coflow> coflows;
  sched::SchedContext ctx;
  sched::DirtyTracker tracker;
  std::unique_ptr<sched::Scheduler> sched;

  World(const WorldKnobs& k, const std::string& sched_name, bool tracked)
      : fabric(k.ports, common::mbps(1000)), tracker(k.ports) {
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
    auto next = [&lcg] {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      return lcg >> 33;
    };
    flows.reserve(k.coflows * k.width);
    coflows.reserve(k.coflows);
    for (std::size_t i = 0; i < k.coflows; ++i) {
      fabric::Coflow c;
      c.id = i;
      c.arrival = 0.001 * static_cast<double>(i);
      for (std::size_t w = 0; w < k.width; ++w) {
        fabric::Flow f;
        f.id = flows.size();
        f.coflow = c.id;
        f.src = static_cast<fabric::PortId>(next() % k.ports);
        f.dst = static_cast<fabric::PortId>(next() % k.ports);
        f.original_bytes = 1e9 + static_cast<double>(next() % 1000) * 1e7;
        f.raw_remaining = f.original_bytes;
        f.arrival = c.arrival;
        c.flows.push_back(f.id);
        flows.push_back(f);
      }
      coflows.push_back(std::move(c));
    }
    ctx.fabric = &fabric;
    ctx.cpu = &cpu;
    ctx.codec = &codec::default_codec_model();
    ctx.slice = common::kDefaultSlice;
    ctx.flows.reserve(flows.size());
    ctx.coflows.reserve(coflows.size());
    for (fabric::Coflow& c : coflows) {
      ctx.coflows.push_back(&c);
      for (const fabric::FlowId fid : c.flows)
        ctx.flows.push_back(&flows[fid]);
    }
    if (tracked) {
      tracker.bind_flows(flows.data(), flows.size());
      for (const fabric::Coflow& c : coflows) tracker.coflow_arrived(&c);
      ctx.tracker = &tracker;
    }
    sched = sim::make_scheduler(sched_name);
  }

  // One synthetic preemption event: a rotating window of coflows drains
  // (volume shrinks, wire bytes grow — what a served segment does), the
  // port multipliers wiggle occasionally, and the clock advances one slice.
  void apply_event(std::uint64_t step, const WorldKnobs& k) {
    const std::size_t base = (step * k.drain_per_event) % coflows.size();
    for (std::size_t d = 0; d < k.drain_per_event; ++d) {
      fabric::Coflow& c = coflows[(base + d) % coflows.size()];
      for (const fabric::FlowId fid : c.flows) {
        fabric::Flow& f = flows[fid];
        const double drained = std::min(f.raw_remaining - 1.0, 1e6);
        if (drained <= 0) continue;
        f.raw_remaining -= drained;
        f.sent += drained;
      }
      if (ctx.tracker != nullptr) tracker.flow_progressed(c.id);
    }
    if (step % 16 == 5) {
      const fabric::PortId p =
          static_cast<fabric::PortId>((step / 16) % fabric.num_ports());
      const double m = fabric.port_multiplier(p) == 1.0 ? 0.7 : 1.0;
      fabric.set_port_multiplier(p, m);
      if (ctx.tracker != nullptr) tracker.port_capacity_changed(p);
    }
    ctx.now = static_cast<double>(step + 1) * ctx.slice;
    ctx.coflow_event = step % 8 == 0;
  }
};

bool allocations_identical(const fabric::Allocation& a,
                           const fabric::Allocation& b,
                           const std::vector<fabric::Flow>& flows) {
  for (const fabric::Flow& f : flows)
    if (a.rate(f.id) != b.rate(f.id) || a.compress(f.id) != b.compress(f.id))
      return false;
  return true;
}

struct ScalePoint {
  double full_ms = 0;  ///< per-event, tracker-less rebuild
  double inc_ms = 0;   ///< per-event, incremental
  double speedup = 0;
};

ScalePoint time_scheduler(const std::string& name, const WorldKnobs& knobs,
                          std::size_t inc_iters, std::size_t full_iters) {
  ScalePoint point;
  {
    World inc(knobs, name, /*tracked=*/true);
    inc.sched->schedule(inc.ctx);  // warmup: builds the memoized state
    const double t0 = now_ms();
    for (std::uint64_t i = 0; i < inc_iters; ++i) {
      inc.apply_event(i, knobs);
      inc.sched->schedule(inc.ctx);
    }
    point.inc_ms = (now_ms() - t0) / static_cast<double>(inc_iters);
  }
  {
    World full(knobs, name, /*tracked=*/false);
    full.sched->schedule(full.ctx);
    const double t0 = now_ms();
    for (std::uint64_t i = 0; i < full_iters; ++i) {
      full.apply_event(i, knobs);
      full.sched->schedule(full.ctx);
    }
    point.full_ms = (now_ms() - t0) / static_cast<double>(full_iters);
  }
  point.speedup = point.inc_ms > 0 ? point.full_ms / point.inc_ms : 0;
  return point;
}

// Lockstep identity: same events into both worlds, allocations must match
// bit-for-bit after every one.
bool lockstep_identical(const std::string& name, const WorldKnobs& knobs,
                        std::size_t iters) {
  World inc(knobs, name, /*tracked=*/true);
  World full(knobs, name, /*tracked=*/false);
  for (std::uint64_t i = 0; i < iters; ++i) {
    inc.apply_event(i, knobs);
    full.apply_event(i, knobs);
    const fabric::Allocation a = inc.sched->schedule(inc.ctx);
    const fabric::Allocation b = full.sched->schedule(full.ctx);
    if (!allocations_identical(a, b, inc.flows)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv);
  common::apply_log_level_flag(flags);
  const std::size_t max_n =
      static_cast<std::size_t>(flags.get_int("max-n", 100000));
  const std::size_t ports =
      static_cast<std::size_t>(flags.get_int("ports", 96));
  const std::size_t width =
      static_cast<std::size_t>(flags.get_int("width", 2));
  const std::size_t inc_iters =
      static_cast<std::size_t>(flags.get_int("inc-iters", 160));
  const std::size_t full_iters =
      static_cast<std::size_t>(flags.get_int("full-iters", 5));
  const double min_speedup = flags.get_double("min-speedup", 10.0);

  bench::print_header(
      "bench_engine_scale",
      "Per-event scheduling cost vs resident-coflow count: incremental\n"
      "dirty-set maintenance against the tracker-less rebuild (same\n"
      "binary, same event stream, bit-identical allocations).");

  std::vector<std::size_t> populations = {1000, 10000};
  if (max_n > populations.back()) populations.push_back(max_n);

  const std::vector<std::string> schedulers = {"FVDF", "SEBF", "AALO"};

  bench::Gauges gauges;
  common::Table table({"scheduler", "coflows", "rebuild ms/event",
                       "inc ms/event", "speedup"});
  double fvdf_top_speedup = 0;
  for (const std::string& name : schedulers) {
    for (const std::size_t n : populations) {
      WorldKnobs knobs;
      knobs.coflows = n;
      knobs.width = width;
      knobs.ports = ports;
      // Small populations need more timed events for a stable average.
      const std::size_t scale = max_n / n;
      const ScalePoint p =
          time_scheduler(name, knobs, inc_iters * std::min<std::size_t>(8, scale),
                         full_iters * std::min<std::size_t>(20, scale));
      table.add_row({name, std::to_string(n), common::fmt_double(p.full_ms, 3),
                     common::fmt_double(p.inc_ms, 3),
                     common::fmt_speedup(p.speedup)});
      const std::string prefix =
          "scale." + name + ".n" + std::to_string(n) + ".";
      gauges[prefix + "full_ms"] = p.full_ms;
      gauges[prefix + "inc_ms"] = p.inc_ms;
      gauges[prefix + "speedup"] = p.speedup;
      if (name == "FVDF" && n == populations.back())
        fvdf_top_speedup = p.speedup;
    }
  }
  table.print(std::cout);

  // --- identity checks (the gate that makes the timing claim honest) ---
  bool identity_ok = true;
  for (const std::string& name : schedulers) {
    WorldKnobs knobs;
    knobs.coflows = 1000;
    knobs.width = width;
    knobs.ports = ports;
    if (!lockstep_identical(name, knobs, 48)) {
      std::cout << "lockstep identity FAIL: " << name << "\n";
      identity_ok = false;
    }
  }
  std::cout << "allocation identity: " << (identity_ok ? "OK" : "FAIL")
            << " (per-event, bit-identical)\n";

  const bool speedup_ok =
      min_speedup <= 0 || fvdf_top_speedup >= min_speedup;
  if (!speedup_ok)
    std::cout << "speedup gate FAIL: FVDF at n=" << populations.back()
              << " reached " << common::fmt_speedup(fvdf_top_speedup)
              << ", need >= " << min_speedup << "x\n";

  bench::write_bench_json(bench::current_artifact(), gauges);
  return identity_ok && speedup_ok ? 0 : 1;
}
