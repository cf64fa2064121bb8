// Job grouping for job-level metrics.
//
// Table V of the paper assumes "each job contains 10 flows; a job is marked
// as completed when all associated flows finish". In the simulator a job is
// simply a set of coflows sharing a JobId; JCT = (last flow completion) -
// (job arrival). Multi-stage map->shuffle->reduce pipelines live in the
// runtime, which chains stages for Fig. 7(a).
#pragma once

#include <vector>

#include "workload/trace.hpp"

namespace swallow::workload {

/// Regroups the trace's coflows into jobs of approximately
/// `flows_per_job` flows (consecutive coflows merge into the same job until
/// the quota is reached). Returns the list of distinct job ids.
std::vector<fabric::JobId> group_into_jobs(Trace& trace,
                                           std::size_t flows_per_job);

}  // namespace swallow::workload
