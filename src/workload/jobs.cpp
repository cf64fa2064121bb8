#include "workload/jobs.hpp"

#include <stdexcept>

namespace swallow::workload {

std::vector<fabric::JobId> group_into_jobs(Trace& trace,
                                           std::size_t flows_per_job) {
  if (flows_per_job == 0)
    throw std::invalid_argument("group_into_jobs: zero flows per job");
  trace.sort_by_arrival();
  std::vector<fabric::JobId> jobs;
  fabric::JobId current = 0;
  std::size_t flows_in_current = 0;
  for (auto& coflow : trace.coflows) {
    if (flows_in_current >= flows_per_job) {
      ++current;
      flows_in_current = 0;
    }
    coflow.job = current;
    if (flows_in_current == 0) jobs.push_back(current);
    flows_in_current += coflow.flows.size();
  }
  return jobs;
}

}  // namespace swallow::workload
