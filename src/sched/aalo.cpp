#include "sched/aalo.hpp"

#include <algorithm>

namespace swallow::sched {

std::size_t AaloScheduler::queue_of(common::Bytes sent) const {
  common::Bytes threshold = kAaloFirstThreshold;
  for (std::size_t q = 0; q + 1 < kAaloQueues; ++q) {
    if (sent < threshold) return q;
    threshold *= kAaloThresholdFactor;
  }
  return kAaloQueues - 1;
}

fabric::Allocation AaloScheduler::schedule(const SchedContext& ctx) {
  if (flows_.bind(ctx)) {
    index_.clear();
    cache_.clear();
    for (const fabric::Coflow* c : ctx.coflows) refresh_coflow(ctx, *c);
  } else {
    // Aalo has no priority class, so any dirt — including key-only marks
    // from a shared engine feed — just re-derives the queue level.
    const DirtyTracker& tracker = *ctx.tracker;
    for (const fabric::CoflowId id : tracker.dirty()) {
      const fabric::Coflow* c = tracker.coflow(id);
      if (c == nullptr) continue;
      if (c->completed()) {
        index_.erase(id);
        if (id < cache_.size()) cache_[id] = Cached{};
        continue;
      }
      refresh_coflow(ctx, *c);
    }
  }
  if (ctx.tracker != nullptr) ctx.tracker->consume();

  // Strict priority over the cached flow lists concatenated in index
  // order: coflows by (queue, arrival, id) — strict priority across
  // queues, FIFO within a queue — and flows within a coflow by ascending
  // flow id.
  ordered_.clear();
  ordered_.reserve(flows_.flow_count());
  index_.for_each([&](fabric::CoflowId id) {
    const Cached& cc = cache_[id];
    ordered_.insert(ordered_.end(), cc.flows.begin(), cc.flows.end());
  });
  return fabric::strict_priority(ordered_, *ctx.fabric);
}

void AaloScheduler::refresh_coflow(const SchedContext& ctx,
                                   const fabric::Coflow& c) {
  if (c.id >= cache_.size()) cache_.resize(c.id + 1);
  Cached& cc = cache_[c.id];
  cc.flows.clear();
  // Attained service (bytes already on the wire) sums over every
  // unfinished flow, stalled ones included, while the output flow list
  // filters stalled flows, matching transmittable_flows.
  common::Bytes sent = 0;
  for (const fabric::FlowId fid : c.flows) {
    const fabric::Flow* f = flows_.live(fid);
    if (f == nullptr) continue;
    sent += f->sent;
    if (!link_stalled(*f, *ctx.fabric)) cc.flows.push_back(f);
  }
  if (cc.flows.empty()) {
    index_.erase(c.id);
    return;
  }
  // Queue levels are small integers: exact as doubles, so the shared rank
  // key compares them precisely.
  index_.insert_or_update(
      c.id, CoflowRankKey{static_cast<double>(queue_of(sent)), c.arrival,
                          c.id});
}

}  // namespace swallow::sched
