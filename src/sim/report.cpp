#include "sim/report.hpp"

#include <initializer_list>
#include <ostream>

#include "common/table.hpp"

namespace swallow::sim {

namespace {

// Writes ",v" for each value, at round-trip precision.
void write_doubles(std::ostream& out, std::initializer_list<double> values) {
  for (const double v : values) out << ',' << common::Shortest(v).view();
}

}  // namespace

void write_flows_csv(std::ostream& out, const Metrics& metrics) {
  out << "flow_id,coflow_id,job_id,original_bytes,wire_bytes,arrival,"
         "completion,fct\n";
  for (const auto& f : metrics.flows) {
    out << f.id << ',' << f.coflow << ',' << f.job;
    write_doubles(out, {f.original_bytes, f.wire_bytes, f.arrival,
                        f.completion, f.fct()});
    out << '\n';
  }
}

void write_coflows_csv(std::ostream& out, const Metrics& metrics) {
  out << "coflow_id,job_id,width,original_bytes,wire_bytes,arrival,"
         "completion,cct,isolation_bound,normalized_cct,deadline,"
         "deadline_met,rejected\n";
  for (const auto& c : metrics.coflows) {
    out << c.id << ',' << c.job << ',' << c.width;
    write_doubles(out, {c.original_bytes, c.wire_bytes, c.arrival,
                        c.completion, c.cct(), c.isolation_bound,
                        c.normalized_cct(), c.deadline});
    out << ',' << (c.deadline_met() ? 1 : 0) << ',' << (c.rejected ? 1 : 0)
        << '\n';
  }
}

void write_utilization_csv(std::ostream& out, const Metrics& metrics) {
  out << "t,egress_utilization\n";
  for (const auto& u : metrics.utilization)
    out << common::Shortest(u.t).view() << ','
        << common::Shortest(u.egress_utilization).view() << '\n';
}

}  // namespace swallow::sim
