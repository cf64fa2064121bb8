// Golden-file style validation of the Chrome trace_event export: run a real
// FVDF simulation with a Tracer attached, write the trace, and assert the
// output is well-formed JSON with monotonically ordered timestamps, complete
// 'X' profiling spans on the wall-clock track, the dropped-count record, and
// the scheduler-decision events the observability layer promises (Γ_C
// estimates, β decisions, arrivals, completions) for every coflow a round
// re-evaluates. Also checks that tracing never changes the simulated
// outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "sim/experiment.hpp"

namespace swallow {
namespace {

workload::Trace tiny_trace() {
  workload::GeneratorConfig gen;
  gen.num_ports = 6;
  gen.num_coflows = 10;
  gen.mean_interarrival = 0.5;
  gen.size_lo = 1e6;
  gen.size_hi = 1e8;
  gen.size_alpha = 0.3;
  gen.width_lo = 1;
  gen.width_hi = 3;
  gen.seed = 7;
  return workload::generate_trace(gen);
}

class TraceExport : public ::testing::Test {
 protected:
  TraceExport() : trace_(tiny_trace()), cpu_(0.9) {
    const fabric::Fabric fabric(trace_.num_ports, common::mbps(100));
    auto sched = sim::make_scheduler("FVDF");
    sim::SimConfig config;
    config.codec = &codec::default_codec_model();
    config.sink = &tracer_;
    metrics_ = sim::run_simulation(trace_, fabric, cpu_, *sched, config);

    std::ostringstream oss;
    tracer_.write_chrome_trace(oss);
    doc_ = obs::parse_json(oss.str());
  }

  // Events of a given name, each as a pointer into doc_.
  std::vector<const obs::JsonValue*> events_named(const std::string& name) {
    std::vector<const obs::JsonValue*> out;
    for (const obs::JsonValue& ev : doc_.find("traceEvents")->array)
      if (const obs::JsonValue* n = ev.find("name"); n && n->string == name)
        out.push_back(&ev);
    return out;
  }

  workload::Trace trace_;
  cpu::ConstantCpu cpu_;
  obs::Tracer tracer_;
  sim::Metrics metrics_;
  obs::JsonValue doc_;
};

TEST_F(TraceExport, WellFormedChromeTraceEnvelope) {
  ASSERT_TRUE(doc_.is_object());
  const obs::JsonValue* events = doc_.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_GT(events->array.size(), 10u);
  EXPECT_EQ(tracer_.dropped(), 0u);

  // Every event carries the mandatory trace_event fields.
  for (const obs::JsonValue& ev : events->array) {
    ASSERT_TRUE(ev.is_object());
    EXPECT_NE(ev.find("name"), nullptr);
    EXPECT_NE(ev.find("ph"), nullptr);
    EXPECT_NE(ev.find("ts"), nullptr);
    EXPECT_NE(ev.find("pid"), nullptr);
    EXPECT_NE(ev.find("tid"), nullptr);
  }

  // The two process_name metadata records label the sim/wall timelines.
  std::set<std::string> process_names;
  for (const obs::JsonValue* m : events_named("process_name"))
    process_names.insert(m->find("args")->find("name")->string);
  EXPECT_TRUE(process_names.count("simulated-time"));
  EXPECT_TRUE(process_names.count("wall-clock"));

  // The file states how many events the ring overwrote: none here.
  const auto dropped = events_named("dropped_events");
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0]->find("args")->find("count")->number, 0.0);
}

TEST_F(TraceExport, TimestampsMonotonicallyOrdered) {
  double prev = -1.0;
  for (const obs::JsonValue& ev : doc_.find("traceEvents")->array) {
    if (ev.find("ph")->string == "M") continue;  // metadata pins ts=0
    const double ts = ev.find("ts")->number;
    EXPECT_GE(ts, prev);
    prev = ts;
  }
}

TEST_F(TraceExport, ProfilingSpansAreCompleteRecords) {
  // Every profiling scope is one 'X' span on the wall-clock track with a
  // non-negative duration, so no begin can lose its end in the file.
  std::set<std::string> names;
  for (const obs::JsonValue& ev : doc_.find("traceEvents")->array) {
    const std::string& ph = ev.find("ph")->string;
    EXPECT_TRUE(ph == "M" || ph == "i" || ph == "X") << ph;
    if (ph != "X") continue;
    EXPECT_EQ(ev.find("pid")->number, obs::kWallPid);
    EXPECT_GE(ev.find("dur")->number, 0.0);
    names.insert(ev.find("name")->string);
  }
  EXPECT_TRUE(names.count("sim.schedule"));
  EXPECT_TRUE(names.count("fvdf.allocate"));
}

TEST_F(TraceExport, SchedulerDecisionEventsCoverEveryReevaluation) {
  // The scheduler logs Γ_C (gamma), priority, the rank key and per-flow β
  // decisions for exactly the coflows a round re-evaluates. Every arrival
  // is re-evaluated by the round that activates it, and every estimate
  // belongs to some scheduling round.
  std::vector<double> round_ts;
  for (const obs::JsonValue* ev : events_named("schedule_round"))
    round_ts.push_back(ev->find("ts")->number);
  ASSERT_FALSE(round_ts.empty());
  const std::set<double> rounds(round_ts.begin(), round_ts.end());

  std::map<std::int64_t, std::set<double>> estimated;  // coflow -> ts
  for (const obs::JsonValue* ev : events_named("coflow_estimate")) {
    const obs::JsonValue* args = ev->find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_NE(args->find("gamma"), nullptr);
    EXPECT_NE(args->find("priority"), nullptr);
    EXPECT_NE(args->find("key"), nullptr);
    const double ts = ev->find("ts")->number;
    EXPECT_TRUE(rounds.count(ts)) << "estimate outside a round at ts " << ts;
    estimated[std::int64_t(args->find("coflow")->number)].insert(ts);
  }
  std::size_t betas = 0;
  for (const obs::JsonValue* ev : events_named("beta_decision")) {
    EXPECT_NE(ev->find("args")->find("beta"), nullptr);
    EXPECT_TRUE(rounds.count(ev->find("ts")->number));
    ++betas;
  }
  EXPECT_GT(betas, 0u);

  // Trace coflow ids are the engine's dense indices in trace order; the
  // activating round is the first one at or after the arrival instant.
  for (std::size_t i = 0; i < trace_.coflows.size(); ++i) {
    const double arrival = obs::sim_ts(trace_.coflows[i].arrival);
    const auto it = std::lower_bound(round_ts.begin(), round_ts.end(),
                                     arrival - 1e-3);
    ASSERT_NE(it, round_ts.end()) << "coflow " << i;
    EXPECT_TRUE(estimated[std::int64_t(i)].count(*it))
        << "coflow " << i << " not estimated at its arrival round " << *it;
  }
}

TEST(TraceIdentity, TracingChangesNoMetrics) {
  // Attaching a sink changes what is logged, never what is computed: every
  // Metrics record of a traced run equals the untraced run's, bit for bit.
  workload::GeneratorConfig gen;
  gen.num_ports = 8;
  gen.num_coflows = 24;
  gen.mean_interarrival = 0.3;
  gen.size_lo = 1e5;
  gen.size_hi = 2e8;
  gen.size_alpha = 0.2;
  gen.width_hi = 4;
  gen.seed = 13;
  gen.deadline_fraction = 0.6;
  gen.deadline_ref_bandwidth = common::mbps(150);
  const workload::Trace trace = workload::generate_trace(gen);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
  const cpu::ConstantCpu cpu(0.85);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  config.utilization_sample_period = 0.5;
  config.max_time = 72000.0;
  config.admission.enabled = true;
  config.degradation.rate = 0.1;
  config.degradation.seed = 5;
  for (const std::string name :
       {"FVDF", "FVDF-BLIND", "SEBF", "AALO", "DEADLINE-FVDF"}) {
    SCOPED_TRACE(name);
    obs::Tracer tracer;
    sim::SimConfig traced = config;
    traced.sink = &tracer;
    const sim::Metrics a = sim::run_simulation(
        trace, fabric, cpu, *sim::make_scheduler(name), config);
    const sim::Metrics b = sim::run_simulation(
        trace, fabric, cpu, *sim::make_scheduler(name), traced);
    EXPECT_GT(tracer.size(), 0u);
    ASSERT_EQ(a.flows.size(), b.flows.size());
    for (std::size_t i = 0; i < a.flows.size(); ++i) {
      EXPECT_EQ(a.flows[i].completion, b.flows[i].completion) << "flow " << i;
      EXPECT_EQ(a.flows[i].wire_bytes, b.flows[i].wire_bytes) << "flow " << i;
    }
    ASSERT_EQ(a.coflows.size(), b.coflows.size());
    for (std::size_t i = 0; i < a.coflows.size(); ++i) {
      EXPECT_EQ(a.coflows[i].completion, b.coflows[i].completion) << i;
      EXPECT_EQ(a.coflows[i].wire_bytes, b.coflows[i].wire_bytes) << i;
      EXPECT_EQ(a.coflows[i].rejected, b.coflows[i].rejected) << i;
    }
    ASSERT_EQ(a.utilization.size(), b.utilization.size());
    for (std::size_t i = 0; i < a.utilization.size(); ++i)
      EXPECT_EQ(a.utilization[i].egress_utilization,
                b.utilization[i].egress_utilization)
          << "sample " << i;
    EXPECT_EQ(a.degradation.compression_flips,
              b.degradation.compression_flips);
    EXPECT_EQ(a.slo.admitted, b.slo.admitted);
    EXPECT_EQ(a.slo.shed_midflight, b.slo.shed_midflight);
    EXPECT_EQ(a.slo.shed_bytes, b.slo.shed_bytes);
  }
}

TEST_F(TraceExport, LifecycleEventsMatchSimulationOutcome) {
  EXPECT_EQ(events_named("coflow_arrival").size(), trace_.coflows.size());
  EXPECT_EQ(events_named("coflow_complete").size(), metrics_.coflows.size());
  EXPECT_EQ(events_named("flow_complete").size(), metrics_.flows.size());

  // Completion instants carry the CCT the metrics recorded.
  for (const obs::JsonValue* ev : events_named("coflow_complete"))
    EXPECT_GT(ev->find("args")->find("cct")->number, 0.0);
}

TEST_F(TraceExport, RegistryAgreesWithTraceEvents) {
  obs::Registry& reg = tracer_.registry();
  EXPECT_EQ(reg.counter("sim.coflows_arrived").value(), trace_.coflows.size());
  EXPECT_EQ(reg.counter("sim.coflows_completed").value(),
            metrics_.coflows.size());
  EXPECT_EQ(reg.counter("sim.schedule_rounds").value(),
            events_named("schedule_round").size());
  // Profiling histograms captured the schedule and advance phases.
  EXPECT_GT(reg.histogram("prof.sim.schedule").count(), 0u);
  EXPECT_GT(reg.histogram("prof.sim.advance").count(), 0u);
  EXPECT_GT(reg.histogram("prof.fvdf.allocate").count(), 0u);
}

}  // namespace
}  // namespace swallow
