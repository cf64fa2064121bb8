// Runs in which a mid-flight shed removes the last active coflow while a
// later coflow is still to arrive, so the engine idles until that arrival.
// Every flow goes from port 0 to port 1 of a two-port 100 Mbps fabric and
// does not compress. test_slo checks the outcomes in both engine modes;
// test_recovery kills the runs at every journaled event.
#pragma once

#include <string>

#include "common/units.hpp"
#include "sim/engine.hpp"
#include "workload/trace.hpp"

namespace swallow::shed_idle {

inline constexpr common::Bps kBandwidth = common::mbps(100);

// One flow carrying `wire_s` seconds of wire time at kBandwidth. The
// deadline is relative to arrival; 0 means best-effort.
inline workload::CoflowSpec coflow(fabric::CoflowId id,
                                   common::Seconds arrival,
                                   common::Seconds wire_s,
                                   common::Seconds deadline = 0) {
  workload::CoflowSpec c;
  c.id = id;
  c.arrival = arrival;
  c.deadline = deadline;
  workload::FlowSpec f;
  f.src = 0;
  f.dst = 1;
  f.bytes = kBandwidth * wire_s;
  f.compressible = false;
  c.flows.push_back(f);
  return c;
}

struct Case {
  std::string scheduler;
  workload::Trace trace;
  sim::SimConfig config;
};

// Coflow 0 needs 0.44 s of wire time against a 0.5 s deadline, so it fits
// alone and is admitted at t = 0. Best-effort coflow 1 (0.42 s) is
// shorter, so FVDF serves it first; coflow 0 misses, and at its deadline
// (itself a slice boundary) it is shed as the last active coflow.
// Best-effort coflow 2 arrives at t = 1.
inline Case expiry_shed() {
  Case c;
  c.scheduler = "FVDF";
  c.trace.num_ports = 2;
  c.trace.coflows = {coflow(0, 0.0, 0.44, 0.5), coflow(1, 0.0, 0.42),
                     coflow(2, 1.0, 1.0)};
  c.config.admission.enabled = true;
  return c;
}

// Coflow 0 (1 s of wire time, deadline 1.2 s) is admitted at t = 0, but
// FVDF serves the shorter best-effort coflow 1 first. From t = 0.2 on,
// coflow 0's remaining bytes need more than its remaining slack even at
// nominal capacity. The first capacity change (a flap on port 1 from
// t = 0.60 to 1.43) comes after coflow 1 completes at t = 0.3, and its
// re-price sheds coflow 0, the last active coflow. Coflow 2 arrives at
// t = 3, after the flap.
inline Case reprice_shed() {
  Case c;
  c.scheduler = "FVDF";
  c.trace.num_ports = 2;
  c.trace.coflows = {coflow(0, 0.0, 1.0, 1.2), coflow(1, 0.0, 0.3),
                     coflow(2, 3.0, 1.0)};
  c.config.admission.enabled = true;
  c.config.degradation.rate = 0.3;
  c.config.degradation.seed = 22;
  return c;
}

}  // namespace swallow::shed_idle
