#include "sched/sebf.hpp"

namespace swallow::sched {

fabric::Allocation SebfScheduler::schedule(const SchedContext& ctx) {
  if (in_load_.size() != ctx.fabric->num_ports()) {
    in_load_.assign(ctx.fabric->num_ports(), 0.0);
    out_load_.assign(ctx.fabric->num_ports(), 0.0);
  }

  if (flows_.bind(ctx)) {
    index_.clear();
    cache_.clear();
    for (const fabric::Coflow* c : ctx.coflows) refresh_coflow(ctx, *c);
  } else {
    // SEBF has no priority class, so key-only dirt (priority upgrades from
    // a shared engine feed) still just re-derives Gamma — recomputing a
    // clean coflow is bit-exact, only slightly wasteful.
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

  // Coflows in (Gamma, arrival, id) order: the admitted coflow's flows get
  // MADD rates, then residual capacity backfills in the same order. A
  // coflow whose live ports all browned out to capacity 0 keeps Gamma 0: it
  // ranks first, takes no MADD rates, but does take part in backfill. Both
  // walks stop at port exhaustion — every grant past that point is zero.
  fabric::Allocation alloc;
  alloc.reserve(flows_.flow_count());
  fabric::PortHeadroom headroom(*ctx.fabric);
  index_.for_each_while([&](fabric::CoflowId id) {
    const Cached& cc = cache_[id];
    if (cc.gamma > 0) fabric::madd_into(alloc, cc.flows, cc.gamma, headroom);
    return !headroom.exhausted();
  });
  if (backfill_ && !headroom.exhausted())
    index_.for_each_while([&](fabric::CoflowId id) {
      fabric::backfill_into(alloc, cache_[id].flows, headroom);
      return !headroom.exhausted();
    });
  return alloc;
}

void SebfScheduler::refresh_coflow(const SchedContext& ctx,
                                   const fabric::Coflow& c) {
  if (c.id >= cache_.size()) cache_.resize(c.id + 1);
  Cached& cc = cache_[c.id];
  cc.flows.clear();
  // Stalled flows (failed src/dst link) take no allocation and contribute
  // no Gamma: MADD over the reachable flows keeps the coflow progressing
  // while the dead port's share waits for recovery.
  for (const fabric::FlowId fid : c.flows) {
    const fabric::Flow* f = flows_.live(fid);
    if (f == nullptr || link_stalled(*f, *ctx.fabric)) continue;
    cc.flows.push_back(f);
  }
  if (cc.flows.empty()) {
    cc.gamma = 0;
    index_.erase(c.id);
    return;
  }
  cc.gamma = fabric::coflow_bottleneck_time(cc.flows, *ctx.fabric, in_load_,
                                           out_load_);
  index_.insert_or_update(c.id, CoflowRankKey{cc.gamma, c.arrival, c.id});
}

}  // namespace swallow::sched
