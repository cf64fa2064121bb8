#include "core/online.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <stdexcept>

#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sched/deadline_fvdf.hpp"
#include "sched/registry.hpp"

namespace swallow::core {

void PriorityUpgrade::begin_round(const sched::SchedContext& ctx,
                                  bool enabled) {
  ++round_;
  if (!enabled || !ctx.coflow_event) return;
  const std::uint64_t prev = round_ - 1;
  std::uint64_t upgrades = 0;
  for (fabric::Coflow* c : ctx.coflows) {
    if (seen_.get(c->id) != prev || served_.get(c->id) == prev) continue;
    if (c->priority < 1.0) c->priority = 1.0;
    c->priority *= kPriorityLogBase;
    ++upgrades;
    if (ctx.tracker != nullptr) ctx.tracker->priority_changed(c->id);
    if (ctx.sink != nullptr)
      obs::emit_instant(ctx.sink, obs::sim_ts(ctx.now), "priority_upgrade",
                        category_,
                        {{"coflow", c->id}, {"priority", c->priority}});
  }
  if (ctx.sink != nullptr && upgrades > 0)
    ctx.sink->registry().counter(counter_).add(upgrades);
}

void PriorityUpgrade::end_round(const sched::SchedContext& ctx,
                                const fabric::Allocation& alloc) {
  // Walks coflow flow-id lists instead of ctx.flows: only flows of context
  // coflows are ever allocated, and the id lists are far smaller than the
  // Flow records, which matters once 1e5 coflows are resident.
  for (const fabric::Coflow* c : ctx.coflows) {
    seen_.set(c->id, round_);
    for (const fabric::FlowId fid : c->flows)
      if (alloc.rate(fid) > 0 || alloc.compress(fid)) {
        served_.set(c->id, round_);
        break;
      }
  }
}

FvdfScheduler::FvdfScheduler(FvdfOptions options) : options_(options) {}

std::string FvdfScheduler::name() const {
  std::string n = "FVDF";
  if (!options_.compression) n += "-NC";
  if (options_.force_compression) n += "-BLIND";
  if (!options_.upgrade) n += "-NOUPGRADE";
  if (!options_.backfill) n += "-NOBACKFILL";
  return n;
}

fabric::Allocation FvdfScheduler::schedule(const sched::SchedContext& ctx) {
  upgrade_.begin_round(ctx, options_.upgrade);
  obs::ProfileScope scope(ctx.sink, "fvdf.allocate");
  EvalEnv env = eval_env(ctx);
  if (!options_.compression) env.codec = nullptr;

  if (flows_.bind(ctx)) {
    // No tracker, or first sight of this run (or a restarted one): every
    // coflow is dirty.
    xmit_index_.clear();
    cache_.clear();
    beta_.assign(flows_.flow_count(), 0);
    for (const fabric::Coflow* c : ctx.coflows) refresh_coflow(ctx, env, *c);
  } else {
    const sched::DirtyTracker& tracker = *ctx.tracker;
    for (const fabric::CoflowId id : tracker.dirty()) {
      const fabric::Coflow* c = tracker.coflow(id);
      if (c == nullptr) continue;
      if (c->completed()) {
        drop_coflow(id);
        continue;
      }
      if (tracker.level(id) == sched::DirtyLevel::kKeyOnly &&
          id < cache_.size() && cache_[id].valid) {
        rekey_coflow(*c);
      } else {
        refresh_coflow(ctx, env, *c);
      }
    }
  }
  if (ctx.tracker != nullptr) ctx.tracker->consume();

  // Volume disposal (Pseudocode 2 lines 24-35) over the memoized lanes, in
  // rank-index order: coflows Shortest-(adjusted)-Γ first, ties by
  // (arrival, id). Compressing flows use the CPU this round (rate 0, ports
  // left to others); their beta switches install in one bulk copy.
  // Transmitting flows get the rate that finishes them inside Γ_C, capped
  // by residual headroom; later coflows see what is left. The walk stops at
  // port exhaustion: once every ingress (or every egress) port is drained
  // all remaining grants are exactly zero — the rate an unset flow reports.
  fabric::Allocation alloc;
  alloc.reserve(flows_.flow_count());
  alloc.set_compress_all(beta_);
  fabric::PortHeadroom headroom(*ctx.fabric);
  walked_.clear();
  xmit_index_.for_each_while([&](fabric::CoflowId id) {
    const CachedCoflow& cc = cache_[id];
    for (const Lane& l : cc.lanes) {
      if (l.beta) continue;
      walked_.push_back(&l);
      const common::Bps r =
          std::min(l.want, headroom.available(l.src, l.dst));
      if (r > 0) {
        alloc.set_rate(l.id, r);
        headroom.consume(l.src, l.dst, r);
      }
    }
    return !headroom.exhausted();
  });
  if (options_.backfill) backfill(walked_, headroom, alloc);
  upgrade_.end_round(ctx, alloc);
  return alloc;
}

void backfill(const std::vector<const FvdfLane*>& walked,
              fabric::PortHeadroom& headroom, fabric::Allocation& alloc) {
  if (headroom.exhausted()) return;
  for (const FvdfLane* l : walked) {
    const common::Bps extra = headroom.available(l->src, l->dst);
    if (extra <= 0) continue;
    alloc.set_rate(l->id, alloc.rate(l->id) + extra);
    headroom.consume(l->src, l->dst, extra);
    // Past exhaustion every grant is exactly zero.
    if (headroom.exhausted()) return;
  }
}

void FvdfScheduler::refresh_coflow(const sched::SchedContext& ctx,
                                   const EvalEnv& env,
                                   const fabric::Coflow& c) {
  if (c.id >= cache_.size()) cache_.resize(c.id + 1);
  CachedCoflow& cc = cache_[c.id];
  // Un-publish the old lanes' beta switches before rebuilding: a flow that
  // finished or flipped back to transmitting must not leak a stale flag
  // into the bulk compression table.
  for (const Lane& l : cc.lanes)
    if (l.beta) beta_[l.id] = 0;
  cc.valid = true;
  cc.arrival = c.arrival;
  cc.gamma = 0;
  cc.has_xmit = false;
  cc.lanes.clear();
  for (const fabric::FlowId fid : c.flows) {
    const fabric::Flow* f = flows_.live(fid);
    if (f == nullptr) continue;
    const FlowEval ev = evaluate_flow(env, *f, options_.force_compression);
    if (ctx.sink != nullptr) [[unlikely]]
      trace_beta_decision(ctx.sink, ctx.now, *f, ev.beta, ev.fct);
    cc.gamma = std::max(cc.gamma, ev.fct);  // Eq. 8
    cc.lanes.push_back(Lane{fid, f->src, f->dst, ev.beta, 0.0});
    if (ev.beta) {
      if (fid >= beta_.size()) beta_.resize(fid + 1, 0);
      beta_[fid] = 1;
    } else {
      cc.has_xmit = true;
    }
  }
  if (cc.lanes.empty()) {
    xmit_index_.erase(c.id);
    return;
  }
  if (ctx.sink != nullptr) [[unlikely]]
    trace_coflow_estimate(ctx.sink, ctx.now, c, cc.gamma,
                          rank_key(c, cc.gamma));
  if (!cc.has_xmit) xmit_index_.erase(c.id);
  const common::Seconds g = std::max(cc.gamma, ctx.slice);
  for (Lane& l : cc.lanes)
    if (!l.beta) l.want = flows_.flow(l.id).volume() / g;
  rekey_coflow(c);
}

double FvdfScheduler::rank_key(const fabric::Coflow& c,
                               common::Seconds gamma) const {
  return gamma / std::max(c.priority, 1.0);
}

void FvdfScheduler::rekey_coflow(const fabric::Coflow& c) {
  const CachedCoflow& cc = cache_[c.id];
  if (!cc.valid || !cc.has_xmit) return;
  xmit_index_.insert_or_update(
      c.id, sched::CoflowRankKey{rank_key(c, cc.gamma), cc.arrival, c.id});
}

void FvdfScheduler::drop_coflow(fabric::CoflowId id) {
  xmit_index_.erase(id);
  if (id < cache_.size()) {
    for (const Lane& l : cache_[id].lanes)
      if (l.beta) beta_[l.id] = 0;
    cache_[id].valid = false;
    cache_[id].has_xmit = false;
    cache_[id].lanes = {};  // free, not just clear: completed coflows linger
    cache_[id].gamma = 0;
  }
}

std::unique_ptr<sched::Scheduler> make_fvdf(const std::string& name) {
  std::string key = name;
  std::transform(key.begin(), key.end(), key.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  FvdfOptions options;
  if (key == "FVDF") return std::make_unique<FvdfScheduler>(options);
  if (key == "FVDF-NC") {
    options.compression = false;
    return std::make_unique<FvdfScheduler>(options);
  }
  if (key == "FVDF-NOUPGRADE") {
    options.upgrade = false;
    return std::make_unique<FvdfScheduler>(options);
  }
  if (key == "FVDF-NOBACKFILL") {
    options.backfill = false;
    return std::make_unique<FvdfScheduler>(options);
  }
  if (key == "FVDF-BLIND") {
    options.force_compression = true;
    return std::make_unique<FvdfScheduler>(options);
  }
  if (key == "DEADLINE-FVDF" || key == "DFVDF")
    return sched::make_deadline_fvdf(key);
  throw std::out_of_range("make_fvdf: unknown variant " + name + " (known: " +
                          sched::known_scheduler_list() + ")");
}

void FvdfScheduler::save_state(recovery::StateWriter& w) const {
  fields(*this, w);
}

void FvdfScheduler::restore_state(recovery::StateReader& r) {
  fields(*this, r);
  // Drop the live memo: the restored run owns a fresh DirtyTracker
  // session, and schedule() rebuilds from scratch when it sees one.
  // Resetting here makes that unconditional even if a stale session id
  // were ever reused.
  flows_.reset();
  cache_.clear();
  xmit_index_.clear();
  beta_.clear();
}

}  // namespace swallow::core
