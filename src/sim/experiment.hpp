// Experiment helpers shared by the benches, examples and integration tests:
// the one scheduler table (every baseline and FVDF variant, looked up by
// name) and the paper's Fig. 3 motivation example.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cpu/cpu_model.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "workload/generator.hpp"

namespace swallow::sim {

/// Builds the scheduler a name selects, in any letter case: an entry of
/// scheduler_names(), a label (FAIR, SRTF, SEBF-NOBACKFILL) or an alias
/// (BSSI, DFVDF). The scheduler's name() is the table's spelling; a label
/// is its own name(), an alias gives its target's. Throws std::out_of_range
/// on an unknown name, listing every scheduler_names() entry.
std::unique_ptr<sched::Scheduler> make_scheduler(const std::string& name);

/// Every distinct scheduler, one name each as its name() spells it:
/// the baselines, then the FVDF family in FvdfVariant order. Labels and
/// aliases are not listed.
std::vector<std::string> scheduler_names();

/// The paper's Fig. 3 motivation example: a 3x3 fabric carrying coflow C1
/// (flows of 4, 4 and 2 data units) and C2 (2 and 3 units) over three
/// contended egress channels, CPU idle during [0,1) and [3,3.5), and a
/// codec with R = 4 units/time and xi = 0.5. run() on this setup with
/// each scheduler reproduces the averages of Fig. 4 (see DESIGN.md 4.4).
struct MotivationSetup {
  workload::Trace trace;
  fabric::Fabric fabric;
  std::shared_ptr<cpu::CpuProvider> cpu;
  codec::CodecModel codec;
  SimConfig config;  ///< codec pointer already wired to `codec`

  Metrics run(const std::string& scheduler_name) const;
};

/// Builds the setup. The returned object owns everything; copy it per test.
std::unique_ptr<MotivationSetup> motivation_setup();

}  // namespace swallow::sim
