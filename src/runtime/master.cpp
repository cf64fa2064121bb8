#include "runtime/master.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/online.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "recovery/snapshot.hpp"

namespace swallow::runtime {

std::size_t CoflowInfo::total_bytes() const {
  std::size_t total = 0;
  for (const auto& f : flows) total += f.bytes;
  return total;
}

Master::Master(common::Bps nic_rate, codec::CodecModel codec,
               double cpu_headroom, bool compression, obs::Sink* sink,
               int degrade_after)
    : nic_rate_(nic_rate),
      codec_(std::move(codec)),
      cpu_headroom_(cpu_headroom),
      compression_(compression),
      sink_(sink),
      degrade_after_(degrade_after) {
  if (nic_rate <= 0) throw std::invalid_argument("Master: non-positive NIC rate");
}

CoflowRef Master::add(CoflowInfo info) {
  std::lock_guard<std::mutex> lock(mutex_);
  const CoflowRef ref = next_ref_++;
  for (const auto& f : info.flows) flow_owner_[f.flow_id] = ref;
  coflows_[ref] = Entry{std::move(info.flows), 1.0};
  return ref;
}

void Master::remove(CoflowRef ref) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = coflows_.find(ref);
  if (it == coflows_.end()) return;
  for (const auto& f : it->second.flows) {
    decisions_.erase(f.flow_id);
    flow_owner_.erase(f.flow_id);
    flow_failures_.erase(f.flow_id);
  }
  coflows_.erase(it);
  ranks_.erase(ref);
}

SchedResult Master::scheduling(const std::vector<CoflowRef>& refs) {
  obs::ProfileScope scope(sink_, "master.scheduling", "runtime");
  std::lock_guard<std::mutex> lock(mutex_);
  SchedResult result;

  struct Scored {
    CoflowRef ref;
    double gamma;
  };
  std::vector<Scored> scored;
  scored.reserve(refs.size());
  // Pseudocode 1's CPU test and Eq. 3 against the NIC bottleneck B. The
  // master models one headroom and one NIC rate, so the gate is the same
  // for every flow.
  const bool gate_open =
      compression_ && cpu::CpuProvider::can_compress(cpu_headroom_) &&
      core::beats_bandwidth(
          codec_.compress_speed * std::clamp(cpu_headroom_, 0.0, 1.0),
          codec_.ratio, nic_rate_);

  for (const CoflowRef ref : refs) {
    const auto it = coflows_.find(ref);
    if (it == coflows_.end())
      throw std::out_of_range("Master::scheduling: unknown coflow ref");
    Entry& entry = it->second;
    // Pseudocode 3 Upgrade: every scheduling event bumps priority classes.
    entry.priority *= core::kPriorityLogBase;

    double gamma = 0;
    for (const auto& f : entry.flows) {
      // A degraded flow (repeated codec/corruption failures) stays
      // uncompressed no matter what the gate says — re-scheduling must not
      // resurrect the failing path.
      const bool degraded = degraded_locked(f.flow_id);
      const bool beta = !degraded && gate_open && f.compressible;
      const double volume =
          beta ? static_cast<double>(f.bytes) * codec_.ratio
               : static_cast<double>(f.bytes);
      // Expected flow time: compression pipeline then the wire.
      const double compress_time =
          beta ? static_cast<double>(f.bytes) /
                     (codec_.compress_speed * cpu_headroom_)
               : 0.0;
      gamma = std::max(gamma, compress_time + volume / nic_rate_);
      result.decisions[f.flow_id] = FlowDecision{beta, nic_rate_, degraded};
      if (sink_ != nullptr)
        obs::emit_instant(sink_, obs::wall_now_us(), "beta_decision",
                          "runtime",
                          {{"flow", f.flow_id},
                           {"coflow", ref},
                           {"beta", beta}},
                          obs::kWallPid, obs::current_thread_tid());
    }
    scored.push_back({ref, gamma / entry.priority});
    if (sink_ != nullptr)
      obs::emit_instant(sink_, obs::wall_now_us(), "coflow_estimate",
                        "runtime",
                        {{"coflow", ref},
                         {"gamma", gamma},
                         {"priority", entry.priority},
                         {"key", gamma / entry.priority}},
                        obs::kWallPid, obs::current_thread_tid());
  }

  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     if (a.gamma != b.gamma) return a.gamma < b.gamma;
                     return a.ref < b.ref;
                   });
  result.order.reserve(scored.size());
  for (const auto& s : scored) result.order.push_back(s.ref);
  return result;
}

void Master::alloc(const SchedResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  ranks_.clear();
  for (std::size_t i = 0; i < result.order.size(); ++i) {
    // Only coflows still registered get a rank: a stale SchedResult must
    // not leave orphaned entries behind after remove().
    if (coflows_.count(result.order[i]) > 0) ranks_[result.order[i]] = i;
  }
  for (const auto& [flow, decision] : result.decisions) {
    // Same hygiene per flow, and degradation is sticky across re-allocs.
    if (flow_owner_.count(flow) == 0) continue;
    FlowDecision applied = decision;
    if (degraded_locked(flow)) {
      applied.compress = false;
      applied.degraded = true;
    }
    decisions_[flow] = applied;
  }
}

std::uint64_t Master::rank_of(CoflowRef ref) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = ranks_.find(ref);
  if (it != ranks_.end()) return it->second;
  // Unscheduled coflows queue behind scheduled ones, ordered by ref.
  return 1'000'000 + ref;
}

FlowDecision Master::decision_of(RtFlowId flow) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = decisions_.find(flow);
  return it == decisions_.end() ? FlowDecision{} : it->second;
}

bool Master::degraded_locked(RtFlowId flow) const {
  if (degrade_after_ <= 0) return false;
  const auto it = flow_failures_.find(flow);
  return it != flow_failures_.end() && it->second >= degrade_after_;
}

int Master::record_flow_failure(RtFlowId flow) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int count = ++flow_failures_[flow];
  if (degrade_after_ > 0 && count == degrade_after_) {
    ++degraded_count_;
    const auto it = decisions_.find(flow);
    if (it != decisions_.end()) {
      it->second.compress = false;
      it->second.degraded = true;
    }
    if (sink_ != nullptr) {
      sink_->registry().counter("runtime.degraded_flows").add(1);
      obs::emit_instant(sink_, obs::wall_now_us(), "flow_degraded", "fault",
                        {{"flow", flow}, {"failures", count}}, obs::kWallPid,
                        obs::current_thread_tid());
    }
  }
  return count;
}

std::size_t Master::active_coflows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return coflows_.size();
}

std::size_t Master::degraded_flows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return degraded_count_;
}

std::size_t Master::decision_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return decisions_.size();
}

std::size_t Master::rank_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ranks_.size();
}

template <class Self, class IO>
void Master::fields(Self& m, IO& io) {
  io.u64(m.next_ref_);
  io.u64(m.degraded_count_);
  io.map(m.coflows_, "master coflow", [&](auto& ref, auto& entry) {
    io.index(ref, m.next_ref_, "master coflow ref");
    io.f64(entry.priority);
    io.vec(entry.flows, "master coflow flow", [&](auto& f) {
      io.u64(f.flow_id);
      io.u64(f.coflow);
      io.u32(f.src);
      io.u32(f.dst);
      io.u64(f.bytes);
      io.boolean(f.compressible);
    });
  });
  io.map(m.ranks_, "master rank", [&](auto& ref, auto& rank) {
    io.key(ref, m.coflows_, "master rank");
    io.u64(rank);
  });
  io.map(m.decisions_, "master decision", [&](auto& flow, auto& d) {
    io.u64(flow);
    io.boolean(d.compress);
    io.f64(d.rate);
    io.boolean(d.degraded);
  });
  io.map(m.flow_owner_, "master flow owner", [&](auto& flow, auto& ref) {
    io.u64(flow);
    io.key(ref, m.coflows_, "master flow owner");
  });
  io.map(m.flow_failures_, "master flow failure", [&](auto& flow, auto& n) {
    io.u64(flow);
    io.u64(n);
  });
  io.end();
}

void Master::save_state(recovery::StateWriter& w) const {
  std::lock_guard<std::mutex> lock(mutex_);
  fields(*this, w);
}

void Master::restore_state(recovery::StateReader& r) {
  std::lock_guard<std::mutex> lock(mutex_);
  fields(*this, r);
}

std::uint64_t Master::config_fingerprint() const {
  recovery::Fingerprint fp;
  fp.mix(std::string("swallow.runtime.master.v1"));
  fp.mix(nic_rate_);
  fp.mix(codec_.name);
  fp.mix(codec_.compress_speed);
  fp.mix(codec_.decompress_speed);
  fp.mix(codec_.ratio);
  fp.mix(cpu_headroom_);
  fp.mix(static_cast<std::uint64_t>(compression_));
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
  if (sink_ != nullptr)
    sink_->registry().counter("recovery.master_snapshots").add(1);
}

bool Master::restore_from(const std::string& dir) {
  const auto snap = recovery::load_latest_snapshot(dir, config_fingerprint());
  if (!snap) return false;
  recovery::StateReader r(snap->payload);
  restore_state(r);
  if (sink_ != nullptr)
    sink_->registry().counter("recovery.master_restores").add(1);
  return true;
}

void Master::restore_coflow(CoflowRef ref, CoflowInfo info) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (coflows_.count(ref) > 0) return;  // the snapshot already carried it
  for (const auto& f : info.flows) flow_owner_[f.flow_id] = ref;
  coflows_[ref] = Entry{std::move(info.flows), 1.0};
  if (ref >= next_ref_) next_ref_ = ref + 1;
}

bool Master::has_coflow(CoflowRef ref) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return coflows_.count(ref) > 0;
}

std::vector<RtFlowId> Master::flows_of(CoflowRef ref) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<RtFlowId> flows;
  const auto it = coflows_.find(ref);
  if (it == coflows_.end()) return flows;
  flows.reserve(it->second.flows.size());
  for (const auto& f : it->second.flows) flows.push_back(f.flow_id);
  return flows;
}

}  // namespace swallow::runtime
