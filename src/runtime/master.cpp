#include "runtime/master.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/online.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "recovery/snapshot.hpp"

namespace swallow::runtime {

Master::Master(std::size_t workers, common::Bps nic_rate,
               codec::CodecModel codec, double cpu_headroom, bool compression,
               obs::Sink* sink, int degrade_after)
    : fabric_(workers, nic_rate),
      cpu_(cpu_headroom),
      codec_(std::move(codec)),
      env_{&fabric_, &cpu_, compression ? &codec_ : nullptr},
      sink_(sink),
      degrade_after_(degrade_after) {}

template <class Self>
auto* Master::find_flow(Self& m, RtFlowId id) {
  const auto it = m.index_.find(id);
  return it == m.index_.end()
             ? nullptr
             : &m.coflows_.at(it->second.first).flows.at(it->second.second);
}

std::optional<RtFlowId> Master::index_locked(CoflowRef ref,
                                             const Entry& entry) {
  decltype(index_) added;
  for (std::size_t i = 0; i < entry.flows.size(); ++i) {
    const RtFlowId id = entry.flows[i].info.flow_id;
    if (index_.count(id) > 0 || !added.emplace(id, std::pair{ref, i}).second)
      return id;
  }
  index_.merge(added);
  return std::nullopt;
}

void Master::insert_locked(CoflowRef ref, CoflowInfo info) {
  Entry entry;
  entry.flows.reserve(info.flows.size());
  for (FlowInfo& f : info.flows) entry.flows.push_back(FlowState{f});
  if (const auto dup = index_locked(ref, entry))
    throw std::invalid_argument("Master: flow " + std::to_string(*dup) +
                                " is already registered");
  coflows_.emplace(ref, std::move(entry));
}

CoflowRef Master::add(CoflowInfo info) {
  std::lock_guard<std::mutex> lock(mutex_);
  insert_locked(next_ref_, std::move(info));
  return next_ref_++;
}

std::vector<RtFlowId> Master::remove(CoflowRef ref) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<RtFlowId> flows;
  const auto it = coflows_.find(ref);
  if (it == coflows_.end()) return flows;
  for (const FlowState& f : it->second.flows) {
    flows.push_back(f.info.flow_id);
    index_.erase(f.info.flow_id);
  }
  coflows_.erase(it);
  return flows;
}

SchedResult Master::scheduling(const std::vector<CoflowRef>& refs) {
  obs::ProfileScope scope(sink_, "master.scheduling", "runtime");
  std::lock_guard<std::mutex> lock(mutex_);
  SchedResult result;

  struct Scored {
    CoflowRef ref;
    Entry* entry;
    double gamma;
    double key = 0;
  };
  std::vector<Scored> scored;
  scored.reserve(refs.size());
  // Pricing reads the table and nothing else, so an unknown ref throws
  // before any coflow ages.
  for (const CoflowRef ref : refs) {
    const auto it = coflows_.find(ref);
    if (it == coflows_.end())
      throw std::out_of_range("Master::scheduling: unknown coflow ref");
    double gamma = 0;
    for (const FlowState& f : it->second.flows) {
      fabric::Flow flow;
      flow.src = f.info.src;
      flow.dst = f.info.dst;
      flow.raw_remaining = static_cast<common::Bytes>(f.info.bytes);
      // A degraded flow is priced and sent as incompressible, so
      // re-scheduling cannot resurrect the failing path.
      flow.compressible = f.info.compressible && !degraded(f);
      const core::FlowEval ev = core::evaluate_flow(env_, flow, false);
      gamma = std::max(gamma, ev.fct);  // Eq. 8
      result.decisions[f.info.flow_id] = FlowDecision{ev.beta, degraded(f)};
      if (sink_ != nullptr)
        obs::emit_instant(sink_, obs::wall_now_us(), "beta_decision",
                          "runtime",
                          {{"flow", f.info.flow_id},
                           {"coflow", ref},
                           {"beta", ev.beta},
                           {"expected_fct", ev.fct}},
                          obs::kWallPid, obs::current_thread_tid());
    }
    scored.push_back({ref, &it->second, gamma});
  }

  for (Scored& s : scored) {
    // Pseudocode 3 Upgrade: every scheduling call bumps the priority class
    // of each coflow it names.
    s.entry->priority *= core::kPriorityLogBase;
    s.key = s.gamma / std::max(s.entry->priority, 1.0);
    if (sink_ != nullptr)
      obs::emit_instant(sink_, obs::wall_now_us(), "coflow_estimate",
                        "runtime",
                        {{"coflow", s.ref},
                         {"gamma", s.gamma},
                         {"priority", s.entry->priority},
                         {"key", s.key}},
                        obs::kWallPid, obs::current_thread_tid());
  }
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.ref < b.ref;
            });
  result.order.reserve(scored.size());
  result.keys.reserve(scored.size());
  for (const auto& s : scored) {
    result.order.push_back(s.ref);
    result.keys.push_back(s.key);
  }
  return result;
}

void Master::alloc(const SchedResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < result.order.size(); ++i) {
    // Only coflows still registered take a key: a stale SchedResult must
    // not leave orphaned entries behind after remove().
    const auto it = coflows_.find(result.order[i]);
    if (it != coflows_.end()) it->second.key = result.keys.at(i);
  }
  // Same hygiene per flow; decision_of masks β once a flow degrades.
  for (const auto& [flow, decision] : result.decisions)
    if (FlowState* f = find_flow(*this, flow)) f->beta = decision.compress;
}

double Master::key_of(CoflowRef ref) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = coflows_.find(ref);
  return it == coflows_.end() ? std::numeric_limits<double>::infinity()
                              : it->second.key;
}

FlowDecision Master::decision_of(RtFlowId flow) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const FlowState* f = find_flow(*this, flow);
  if (f == nullptr) return FlowDecision{};
  return FlowDecision{f->beta && !degraded(*f), degraded(*f)};
}

int Master::record_flow_failure(RtFlowId flow) {
  std::lock_guard<std::mutex> lock(mutex_);
  FlowState* f = find_flow(*this, flow);
  if (f == nullptr) return 0;
  const int count = ++f->failures;
  if (degrade_after_ > 0 && count == degrade_after_) {
    ++degraded_count_;
    if (sink_ != nullptr)
      obs::emit_instant(sink_, obs::wall_now_us(), "flow_degraded", "fault",
                        {{"flow", flow}, {"failures", count}}, obs::kWallPid,
                        obs::current_thread_tid());
  }
  return count;
}

std::size_t Master::degraded_flows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return degraded_count_;
}

template <class Self, class IO>
void Master::fields(Self& m, IO& io) {
  io.u64(m.next_ref_);
  io.u64(m.degraded_count_);
  io.map(m.coflows_, "master coflow", [&](auto& ref, auto& entry) {
    io.index(ref, m.next_ref_, "master coflow ref");
    io.f64(entry.priority);
    io.f64(entry.key);
    io.vec(entry.flows, "master coflow flow", [&](auto& f) {
      io.u64(f.info.flow_id);
      io.u32(f.info.src);
      io.u32(f.info.dst);
      io.u64(f.info.bytes);
      io.boolean(f.info.compressible);
      io.boolean(f.beta);
      io.u64(f.failures);
    });
  });
  io.end();
}

void Master::save_state(recovery::StateWriter& w) const {
  std::lock_guard<std::mutex> lock(mutex_);
  fields(*this, w);
}

void Master::restore_state(recovery::StateReader& r) {
  std::lock_guard<std::mutex> lock(mutex_);
  index_.clear();
  fields(*this, r);
  for (const auto& [ref, entry] : coflows_) {
    // A NaN key would break the port gates' (key, ref) order.
    if (std::isnan(entry.key))
      throw recovery::RecoveryError("recovery: master coflow " +
                                    std::to_string(ref) + " has a NaN key");
    if (const auto dup = index_locked(ref, entry))
      throw recovery::RecoveryError("recovery: master flow " +
                                    std::to_string(*dup) +
                                    " is listed under two coflows");
  }
}

std::uint64_t Master::config_fingerprint() const {
  recovery::Fingerprint fp;
  fp.mix(std::string("swallow.runtime.master.v3"));
  fp.mix(static_cast<std::uint64_t>(fabric_.num_ports()));
  fp.mix(fabric_.nominal_ingress_capacity(0));
  fp.mix(codec_.name);
  fp.mix(codec_.compress_speed);
  fp.mix(codec_.decompress_speed);
  fp.mix(codec_.ratio);
  fp.mix(cpu_.headroom(0, 0));
  fp.mix(static_cast<std::uint64_t>(env_.codec != nullptr));
  fp.mix(static_cast<std::uint64_t>(degrade_after_));
  return fp.value();
}

void Master::checkpoint(const std::string& dir, std::uint64_t seq) const {
  recovery::SnapshotMeta meta;
  meta.seq = seq;
  meta.fingerprint = config_fingerprint();
  recovery::StateWriter image;
  recovery::begin_snapshot(image, meta);
  save_state(image);
  recovery::write_snapshot(dir, image);
}

bool Master::restore_from(const std::string& dir) {
  const auto snap = recovery::load_latest_snapshot(dir, config_fingerprint());
  if (!snap) return false;
  recovery::StateReader r(snap->payload);
  restore_state(r);
  return true;
}

void Master::restore_coflow(CoflowRef ref, CoflowInfo info) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (coflows_.count(ref) > 0) return;  // the snapshot already carried it
  insert_locked(ref, std::move(info));
  if (ref >= next_ref_) next_ref_ = ref + 1;
}

bool Master::has_coflow(CoflowRef ref) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return coflows_.count(ref) > 0;
}

}  // namespace swallow::runtime
