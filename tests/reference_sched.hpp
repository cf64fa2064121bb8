// Naive reference schedulers: the byte-identity oracle for the production
// FVDF, SEBF, AALO and DEADLINE-FVDF schedulers (test_incremental, test_slo).
//
// Every round recomputes every coflow's rank from scratch, stable-sorts the
// whole population and allocates in that order — no dirty set, no memo, no
// rank index. The references share with production only the out-of-line
// floating-point kernels (core::evaluate_flow, fabric::coflow_bottleneck_time,
// fabric::madd_into / backfill_into / strict_priority), so both sides round
// identically while a memo or dirty-set bug in production has nowhere to
// hide. They ignore SchedContext::tracker and emit no trace events.
#pragma once

#include <memory>
#include <string>

#include "sched/scheduler.hpp"

namespace swallow::reference {

/// The reference twin of a production scheduler: "FVDF", "FVDF-NC",
/// "FVDF-BLIND", "FVDF-NOUPGRADE", "FVDF-NOBACKFILL", "SEBF",
/// "SEBF-NOBACKFILL", "AALO" or "DEADLINE-FVDF". name() matches the
/// production scheduler's. Throws std::out_of_range for any other name.
std::unique_ptr<sched::Scheduler> make_reference(const std::string& name);

}  // namespace swallow::reference
