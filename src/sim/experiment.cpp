#include "sim/experiment.hpp"

#include <algorithm>
#include <cctype>
#include <functional>
#include <stdexcept>

#include "core/online.hpp"
#include "sched/aalo.hpp"
#include "sched/baselines.hpp"
#include "sched/sebf.hpp"

namespace swallow::sim {

namespace {

/// One row of the scheduler table. Its spelling is the name() of what
/// `make` builds, read once when the table is built, so a row cannot
/// disagree with its scheduler.
struct Entry {
  std::function<std::unique_ptr<sched::Scheduler>()> make;
  /// Enumerated by scheduler_names(); false for a label: another name of a
  /// listed algorithm, or SEBF's backfill ablation.
  bool listed = true;
  /// One more accepted spelling, or nullptr.
  const char* alias = nullptr;
  std::string name{};  ///< name() of what `make` builds
};

std::vector<Entry> build_table() {
  using namespace sched;
  const auto stateless = [](const char* name, Stateless::Policy policy) {
    return [name, policy] { return std::make_unique<Stateless>(name, policy); };
  };
  std::vector<Entry> table = {
      {stateless("FIFO", fifo)},
      {stateless("PFF", pff)},
      // The paper's Spark context calls PFF FAIR and PFP SRTF.
      {stateless("FAIR", pff), false},
      {stateless("WSS", wss)},
      {stateless("PFP", pfp)},
      {stateless("SRTF", pfp), false},
      {[] { return std::make_unique<SebfScheduler>(); }},
      {[] { return std::make_unique<SebfScheduler>(false); }, false},
      {stateless("SCF", scf)},
      {stateless("NCF", ncf)},
      {stateless("LCF", lcf)},
      {[] { return std::make_unique<AaloScheduler>(); }},
      {stateless("SINCRONIA", sincronia), true, "BSSI"},
  };
  for (std::size_t v = 0; v < core::kFvdfVariantCount; ++v) {
    const auto variant = static_cast<core::FvdfVariant>(v);
    table.push_back(
        {[variant] { return std::make_unique<core::FvdfScheduler>(variant); },
         true, variant == core::FvdfVariant::kDeadline ? "DFVDF" : nullptr});
  }
  for (Entry& e : table) e.name = e.make()->name();
  return table;
}

const std::vector<Entry>& table() {
  static const std::vector<Entry> entries = build_table();
  return entries;
}

}  // namespace

std::unique_ptr<sched::Scheduler> make_scheduler(const std::string& name) {
  std::string key = name;
  std::transform(key.begin(), key.end(), key.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  for (const Entry& e : table())
    if (key == e.name || (e.alias != nullptr && key == e.alias))
      return e.make();
  std::string known;
  for (const std::string& n : scheduler_names())
    known += (known.empty() ? "" : ", ") + n;
  throw std::out_of_range("make_scheduler: unknown scheduler " + name +
                          " (known: " + known + ")");
}

std::vector<std::string> scheduler_names() {
  std::vector<std::string> names;
  for (const Entry& e : table())
    if (e.listed) names.push_back(e.name);
  return names;
}

Metrics MotivationSetup::run(const std::string& scheduler_name) const {
  const auto scheduler = make_scheduler(scheduler_name);
  return run_simulation(trace, fabric, *cpu, *scheduler, config);
}

std::unique_ptr<MotivationSetup> motivation_setup() {
  auto setup = std::make_unique<MotivationSetup>(MotivationSetup{
      /*trace=*/{},
      // Three "channels": the egress ports are the unit-capacity resources
      // of the example; ingress links are made non-binding.
      fabric::Fabric(std::vector<common::Bps>(3, 100.0),
                     std::vector<common::Bps>(3, 1.0)),
      std::make_shared<cpu::WindowedCpu>(
          std::vector<cpu::WindowedCpu::Window>{{0.0, 1.0}, {3.0, 3.5}}),
      // "Suppose the compression ratio of 47.59%": the example's codec
      // halves the data and compresses 4 units per time unit.
      codec::CodecModel{"example", 4.0, 16.0, 0.5},
      /*config=*/{}});

  setup->config.slice = 0.01;
  setup->config.codec = &setup->codec;

  workload::Trace& trace = setup->trace;
  trace.num_ports = 3;

  // Port map reverse-engineered from the published averages (DESIGN.md 4.4):
  //   channel A (egress 0): f1 (C1, 4)
  //   channel B (egress 1): f2 (C1, 4), f4 (C2, 2)
  //   channel C (egress 2): f3 (C1, 2), f5 (C2, 3)
  // FIFO registration order: f1, f2, f5, f3, f4 (offsets below).
  auto flow = [](fabric::PortId src, fabric::PortId dst, double bytes,
                 common::Seconds offset) {
    workload::FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.bytes = bytes;
    spec.compressible = true;
    spec.arrival_offset = offset;
    return spec;
  };
  workload::CoflowSpec c1;
  c1.id = 1;
  c1.job = 1;
  c1.arrival = 0;
  c1.flows = {
      flow(0, 0, 4.0, 0e-9),  // f1
      flow(1, 1, 4.0, 1e-9),  // f2
      flow(0, 2, 2.0, 3e-9),  // f3
  };
  workload::CoflowSpec c2;
  c2.id = 2;
  c2.job = 2;
  c2.arrival = 0;
  c2.flows = {
      flow(2, 1, 2.0, 4e-9),  // f4
      flow(1, 2, 3.0, 2e-9),  // f5
  };
  trace.coflows = {c1, c2};
  return setup;
}

}  // namespace swallow::sim
