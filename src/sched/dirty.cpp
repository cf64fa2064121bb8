#include "sched/dirty.hpp"

#include <atomic>

namespace swallow::sched {

namespace {
std::atomic<std::uint64_t> g_next_session{1};
}  // namespace

DirtyTracker::DirtyTracker(std::size_t num_ports)
    : session_(g_next_session.fetch_add(1, std::memory_order_relaxed)),
      src_residents_(num_ports),
      dst_residents_(num_ports),
      cpu_headroom_(num_ports, 0.0) {}

void DirtyTracker::bind_flows(const fabric::Flow* flows, std::size_t count) {
  flows_ = flows;
  flow_count_ = count;
}

void DirtyTracker::mark(fabric::CoflowId c, DirtyLevel lvl) {
  if (c >= level_.size()) level_.resize(c + 1, DirtyLevel::kClean);
  DirtyLevel& cur = level_[c];
  if (cur == DirtyLevel::kClean) dirty_.push_back(c);
  if (static_cast<int>(lvl) > static_cast<int>(cur)) cur = lvl;
}

void DirtyTracker::coflow_arrived(const fabric::Coflow* c) {
  if (c->id >= coflows_.size()) coflows_.resize(c->id + 1, nullptr);
  coflows_[c->id] = c;
  // Register port residency. A coflow's flows are registered in one batch,
  // so every push for a given port list is for this coflow — checking the
  // list's tail fully dedupes without a scratch set.
  for (const fabric::FlowId fid : c->flows) {
    const fabric::Flow& f = flows_[fid];
    auto& src = src_residents_[f.src];
    if (src.empty() || src.back() != c->id) src.push_back(c->id);
    auto& dst = dst_residents_[f.dst];
    if (dst.empty() || dst.back() != c->id) dst.push_back(c->id);
  }
  mark(c->id, DirtyLevel::kRecompute);
}

void DirtyTracker::coflow_changed(fabric::CoflowId c) {
  mark(c, DirtyLevel::kRecompute);
}

void DirtyTracker::flow_progressed(fabric::CoflowId c) {
  mark(c, DirtyLevel::kRecompute);
}

void DirtyTracker::priority_changed(fabric::CoflowId c) {
  mark(c, DirtyLevel::kKeyOnly);
}

void DirtyTracker::dirty_residents(std::vector<fabric::CoflowId>& v) {
  std::size_t w = 0;
  for (const fabric::CoflowId c : v) {
    const fabric::Coflow* cf = coflow(c);
    if (cf == nullptr || cf->completed()) continue;  // lazy prune
    v[w++] = c;
    mark(c, DirtyLevel::kRecompute);
  }
  v.resize(w);
}

void DirtyTracker::port_capacity_changed(fabric::PortId p) {
  dirty_residents(src_residents_[p]);
  dirty_residents(dst_residents_[p]);
}

void DirtyTracker::sample_cpu(const cpu::CpuProvider& cpu,
                              common::Seconds now) {
  // Value-based change detection: the cached Pseudocode 1 / Eq. 3 / Eq. 7
  // terms read the CPU only through headroom(src, t), the CPU gate
  // (CpuProvider::can_compress) included, so a provider that wanders but
  // returns to the previously sampled value by the next decision point
  // dirties nothing. Only source ports matter — compression runs at the
  // sender.
  const std::size_t ports = src_residents_.size();
  for (fabric::PortId p = 0; p < ports; ++p) {
    const double h = cpu.headroom(p, now);
    if (cpu_sampled_ && h == cpu_headroom_[p]) continue;
    const bool changed = cpu_sampled_;
    cpu_headroom_[p] = h;
    if (changed) dirty_residents(src_residents_[p]);
  }
  cpu_sampled_ = true;
}

void DirtyTracker::consume() {
  for (const fabric::CoflowId c : dirty_) level_[c] = DirtyLevel::kClean;
  dirty_.clear();
}

bool RoundFlows::bind(const SchedContext& ctx) {
  tracker_ = ctx.tracker;
  if (tracker_ != nullptr) {
    if (session_ == tracker_->session()) return false;
    session_ = tracker_->session();
    return true;
  }
  session_ = 0;
  table_.clear();
  for (const fabric::Flow* f : ctx.flows) {
    if (f->id >= table_.size()) table_.resize(f->id + 1, nullptr);
    table_[f->id] = f;
  }
  return true;
}

}  // namespace swallow::sched
