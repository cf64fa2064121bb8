#include "sched/deadline_fvdf.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace swallow::sched {

std::string DeadlineFvdfScheduler::name() const { return "DEADLINE-FVDF"; }

bool DeadlineFvdfScheduler::starved(const fabric::Coflow& c) const {
  // Band-0 promotion guards best-effort work against a monopolizing band 1;
  // in fault fallback there is no band 1, and promotion would only perturb
  // the plain FVDF order the fallback exists to reproduce.
  return any_deadline_ && !seen_degraded_ &&
         c.priority >= kStarvationPriority;
}

template <typename GammaNcFn>
DeadlineFvdfScheduler::SloRank DeadlineFvdfScheduler::classify(
    const fabric::Coflow& c, common::Seconds gamma_beta, bool has_beta,
    common::Seconds now, GammaNcFn&& gamma_nc) const {
  SloRank r;
  common::Seconds g = gamma_beta;
  bool uncompressed = false;  // g already holds the no-compression Gamma
  if (c.slo == fabric::SloClass::kDegraded) {
    // Admission degraded this coflow for its lifetime: compression never
    // re-enables, so rank it by its uncompressed Gamma.
    r.degrade = true;
    if (has_beta) g = gamma_nc();
    uncompressed = true;
  }
  // Fault fallback (seen_degraded_): from the first brownout of the run
  // onward, every coflow — deadline or not — takes the plain FVDF rank
  // below. Deadline machinery is counterproductive on a fault-prone
  // fabric: pacing stretches feasible coflows across slack that the next
  // fault erases, EDF lets an early-deadline elephant starve cheaper
  // deadlines SJF would meet, and band-3 parking starves transiently
  // infeasible coflows blind FVDF happily finishes. Admission, expiry
  // shedding and re-pricing stay active, and shedding only removes
  // already-missed volume FVDF would keep transmitting, so fallback met
  // fraction and goodput dominate blind FVDF's. A healthy run never sets
  // the flag and keeps the full band ladder.
  if (!seen_degraded_ && c.has_deadline() && now < c.deadline) {
    const common::Seconds slack = c.deadline - now;
    if (g <= kSlackFactor * slack) {
      r.band = 1;
    } else if (!uncompressed && has_beta) {
      // Mini shedding ladder, round-local: the compressed estimate misses
      // the deadline (the CPU bill or a throttled compressor is too slow),
      // but shipping raw still fits — degrade before deferring.
      const common::Seconds gnc = gamma_nc();
      if (gnc <= kSlackFactor * slack) {
        g = gnc;
        r.degrade = true;
        r.band = 1;
      } else {
        r.band = 3;
      }
    } else {
      r.band = 3;
    }
    r.gamma = g;
    r.primary = c.deadline;  // EDF within bands 1 and 3
    // Band 1 flips to 3 when the shrinking slack crosses Gamma; band 3
    // flips to 2 at expiry. Both instants re-derive from classify at
    // refresh time, so a conservative (early) horizon is always safe.
    r.horizon = r.band == 1 ? c.deadline - g / kSlackFactor : c.deadline;
    return r;
  }
  // Best-effort, expired deadline, or fault fallback: plain FVDF order,
  // with the starvation promotion ahead of the deadline band once the
  // priority class says the coflow has waited long enough.
  r.band = starved(c) ? 0 : 2;
  r.gamma = g;
  r.primary = g / std::max(c.priority, 1.0);
  return r;
}

fabric::Allocation DeadlineFvdfScheduler::schedule(const SchedContext& ctx) {
  if (!seen_degraded_ && ctx.fabric->degraded()) {
    seen_degraded_ = true;
    // Entering fault fallback reclassifies every coflow, not just the ones
    // the capacity change dirtied: force a rebuild so no cached band
    // survives the regime switch.
    flows_.reset();
  }
  upgrade_.begin_round(ctx, /*enabled=*/true);

  const core::EvalEnv env = core::eval_env(ctx);
  core::EvalEnv nc_env = env;
  nc_env.codec = nullptr;

  if (flows_.bind(ctx)) {
    for (RankIndex& idx : xmit_) idx.clear();
    cache_.clear();
    beta_.assign(flows_.flow_count(), 0);
    horizon_heap_ = {};
    horizon_round_.clear();
    deadline_resident_ = 0;
    need_global_rekey_ = false;
    // Pre-register the deadline residents so every refresh below classifies
    // against the final any_deadline_ value, whatever the coflow order.
    for (const fabric::Coflow* c : ctx.coflows) {
      if (!c->has_deadline() || c->slo == fabric::SloClass::kRejected)
        continue;
      if (c->id >= cache_.size()) cache_.resize(c->id + 1);
      cache_[c->id].counted = true;
      ++deadline_resident_;
    }
    any_deadline_ = deadline_resident_ > 0;
    for (const fabric::Coflow* c : ctx.coflows) {
      if (c->slo == fabric::SloClass::kRejected) continue;
      refresh_coflow(ctx, env, nc_env, *c);
    }
    need_global_rekey_ = false;  // rebuild classified everything coherently
  } else {
    const DirtyTracker& tracker = *ctx.tracker;
    any_deadline_ = deadline_resident_ > 0;
    for (const fabric::CoflowId id : tracker.dirty()) {
      const fabric::Coflow* c = tracker.coflow(id);
      if (c == nullptr) continue;
      if (c->completed() || c->slo == fabric::SloClass::kRejected) {
        drop_coflow(id);
        continue;
      }
      if (tracker.level(id) == DirtyLevel::kKeyOnly && id < cache_.size() &&
          cache_[id].valid) {
        rekey_coflow(*c);
      } else {
        refresh_coflow(ctx, env, nc_env, *c);
      }
    }
  }

  // Time-driven reclassifications: pop every horizon within one slice of
  // now (the pad absorbs FP drift in the stored horizon; classify is the
  // authority) and refresh, unless this round already refreshed the coflow.
  // That refresh may have armed a horizon inside (now, now + slice]: its
  // entry is kept for the next round (once per coflow, so the heap stays
  // bounded), or an unserved coflow that no event dirties keeps a stale
  // band. Entries older than the coflow's armed horizon are dropped.
  horizon_due_.clear();
  horizon_kept_.clear();
  const common::Seconds due = ctx.now + ctx.slice;
  while (!horizon_heap_.empty() && horizon_heap_.top().first <= due) {
    const HorizonEntry entry = horizon_heap_.top();
    const fabric::CoflowId id = entry.second;
    horizon_heap_.pop();
    if (id >= cache_.size() || !cache_[id].valid) continue;
    if (horizon_round_.get(id) == upgrade_.round()) {
      if (entry.first == cache_[id].horizon) horizon_kept_.push_back(entry);
      continue;
    }
    horizon_round_.set(id, upgrade_.round());
    horizon_due_.push_back(id);
  }
  // Popped in (horizon, id) order, so a coflow's duplicates are adjacent.
  horizon_kept_.erase(
      std::unique(horizon_kept_.begin(), horizon_kept_.end()),
      horizon_kept_.end());
  for (const HorizonEntry& entry : horizon_kept_) horizon_heap_.push(entry);
  for (const fabric::CoflowId id : horizon_due_) {
    const fabric::Coflow& c = *cache_[id].coflow;
    if (c.completed() || c.slo == fabric::SloClass::kRejected) {
      drop_coflow(id);
      continue;
    }
    refresh_coflow(ctx, env, nc_env, c);
  }

  if (need_global_rekey_) {
    rekey_all();
    need_global_rekey_ = false;
  }
  if (ctx.tracker != nullptr) ctx.tracker->consume();

  // Volume disposal over the memoized lanes, walking bands 0..3; each band
  // index is ordered (primary, arrival, id), so the band-major walk visits
  // coflows in the unique (band, primary, arrival, id) order. Beta switches
  // install in one bulk copy; the walk stops at port exhaustion, and the
  // backfill pass replays the transmitting lanes it visited.
  fabric::Allocation alloc;
  alloc.reserve(flows_.flow_count());
  alloc.set_compress_all(beta_);
  fabric::PortHeadroom headroom(*ctx.fabric);
  walked_.clear();
  bool more = true;
  for (int b = 0; b < kNumBands && more; ++b) {
    xmit_[b].for_each_while([&](fabric::CoflowId id) {
      const CachedCoflow& cc = cache_[id];
      // Feasible deadline coflows (band 1) are paced, Varys-style: dispose
      // over the remaining slack (less one slice of safety margin) instead
      // of over Gamma, so a deadline coflow takes only the rate it needs
      // and the freed capacity serves later-deadline and best-effort work.
      // The max with Gamma keeps the ASAP floor once the slack tightens.
      // The horizon depends on `now`, so band-1 wants are computed live at
      // walk time; other bands replay the memoized Gamma-paced wants.
      const bool live_want = b == 1;
      common::Seconds dispose = 0;
      if (live_want)
        dispose = std::max(std::max(cc.gamma, ctx.slice),
                           cc.coflow->deadline - ctx.now - ctx.slice);
      for (const Lane& l : cc.lanes) {
        if (l.beta) continue;
        walked_.push_back(&l);
        const common::Bps want =
            live_want ? flows_.flow(l.id).volume() / dispose : l.want;
        const common::Bps r =
            std::min(want, headroom.available(l.src, l.dst));
        if (r > 0) {
          alloc.set_rate(l.id, r);
          headroom.consume(l.src, l.dst, r);
        }
      }
      more = !headroom.exhausted();
      return more;
    });
  }
  core::backfill(walked_, headroom, alloc);
  upgrade_.end_round(ctx, alloc);
  return alloc;
}

void DeadlineFvdfScheduler::refresh_coflow(const SchedContext& ctx,
                                           const core::EvalEnv& env,
                                           const core::EvalEnv& nc_env,
                                           const fabric::Coflow& c) {
  if (c.id >= cache_.size()) cache_.resize(c.id + 1);
  CachedCoflow& cc = cache_[c.id];
  for (const Lane& l : cc.lanes)
    if (l.beta) beta_[l.id] = 0;
  const std::uint8_t old_band = cc.band;
  const bool was_valid = cc.valid;
  cc.valid = true;
  cc.arrival = c.arrival;
  cc.gamma = 0;
  cc.has_xmit = false;
  cc.horizon = fabric::kNoDeadline;
  cc.lanes.clear();
  if (c.has_deadline() && !cc.counted) {
    cc.counted = true;
    if (++deadline_resident_ == 1) need_global_rekey_ = true;
    any_deadline_ = true;
  }
  horizon_round_.set(c.id, upgrade_.round());
  cc.coflow = &c;

  common::Seconds gamma_beta = 0;
  bool has_beta = false;
  for (const fabric::FlowId fid : c.flows) {
    const fabric::Flow* f = flows_.live(fid);
    if (f == nullptr) continue;
    const core::FlowEval ev =
        core::evaluate_flow(env, *f, /*force_compression=*/false);
    if (ctx.sink != nullptr) [[unlikely]]
      core::trace_beta_decision(ctx.sink, ctx.now, *f, ev.beta, ev.fct);
    gamma_beta = std::max(gamma_beta, ev.fct);  // Eq. 8
    cc.lanes.push_back(Lane{fid, f->src, f->dst, ev.beta, 0.0});
    has_beta |= ev.beta;
  }
  if (cc.lanes.empty()) {
    if (was_valid) xmit_[old_band].erase(c.id);
    return;
  }
  // Same flow order as the Gamma fold above (c.flows, finished skipped), so
  // Gamma_nc folds deterministically.
  auto gamma_nc = [this, &c, &nc_env]() {
    common::Seconds g = 0;
    for (const fabric::FlowId fid : c.flows)
      if (const fabric::Flow* f = flows_.live(fid))
        g = std::max(g, core::evaluate_flow(nc_env, *f, false).fct);
    return g;
  };
  const SloRank rank = classify(c, gamma_beta, has_beta, ctx.now, gamma_nc);
  if (ctx.sink != nullptr) [[unlikely]]
    core::trace_coflow_estimate(ctx.sink, ctx.now, c, rank.gamma,
                                rank.primary);
  cc.gamma = rank.gamma;
  cc.horizon = rank.horizon;
  if (rank.degrade)
    for (Lane& l : cc.lanes) l.beta = false;
  for (const Lane& l : cc.lanes) {
    if (l.beta) {
      if (l.id >= beta_.size()) beta_.resize(l.id + 1, 0);
      beta_[l.id] = 1;
    } else {
      cc.has_xmit = true;
    }
  }
  if (was_valid && old_band != rank.band) xmit_[old_band].erase(c.id);
  cc.band = rank.band;
  const common::Seconds g = std::max(cc.gamma, ctx.slice);
  for (Lane& l : cc.lanes)
    if (!l.beta) l.want = flows_.flow(l.id).volume() / g;
  install(c);
  if (cc.horizon < fabric::kNoDeadline)
    horizon_heap_.push({cc.horizon, c.id});
}

void DeadlineFvdfScheduler::rekey_coflow(const fabric::Coflow& c) {
  CachedCoflow& cc = cache_[c.id];
  if (!cc.valid || cc.lanes.empty()) return;
  if (cc.band == 0 || cc.band == 2) {
    const std::uint8_t band = starved(c) ? 0 : 2;
    if (band != cc.band) {
      xmit_[cc.band].erase(c.id);
      cc.band = band;
    }
  }
  // Bands 1/3 key on the deadline: a priority bump moves nothing.
  install(c);
}

void DeadlineFvdfScheduler::rekey_all() {
  for (const CachedCoflow& cc : cache_)
    if (cc.valid) rekey_coflow(*cc.coflow);
}

void DeadlineFvdfScheduler::install(const fabric::Coflow& c) {
  CachedCoflow& cc = cache_[c.id];
  const double primary = cc.band == 1 || cc.band == 3
                             ? c.deadline
                             : cc.gamma / std::max(c.priority, 1.0);
  const CoflowRankKey key{primary, cc.arrival, c.id};
  if (cc.has_xmit)
    xmit_[cc.band].insert_or_update(c.id, key);
  else
    xmit_[cc.band].erase(c.id);
}

void DeadlineFvdfScheduler::drop_coflow(fabric::CoflowId id) {
  for (RankIndex& idx : xmit_) idx.erase(id);
  if (id < cache_.size()) {
    CachedCoflow& cc = cache_[id];
    for (const Lane& l : cc.lanes)
      if (l.beta) beta_[l.id] = 0;
    if (cc.counted) {
      cc.counted = false;
      if (--deadline_resident_ == 0) need_global_rekey_ = true;
      any_deadline_ = deadline_resident_ > 0;
    }
    cc.valid = false;
    cc.has_xmit = false;
    cc.lanes = {};  // free, not just clear: completed coflows linger
    cc.gamma = 0;
    cc.horizon = fabric::kNoDeadline;
  }
}

void DeadlineFvdfScheduler::save_state(recovery::StateWriter& w) const {
  fields(*this, w);
}

void DeadlineFvdfScheduler::restore_state(recovery::StateReader& r) {
  fields(*this, r);
  // Same contract as FvdfScheduler::restore_state: everything else is
  // session-keyed derived state, rebuilt on the first post-restore round.
  flows_.reset();
  for (RankIndex& idx : xmit_) idx.clear();
  cache_.clear();
  beta_.clear();
  horizon_heap_ = {};
  horizon_round_.clear();
  horizon_due_.clear();
  deadline_resident_ = 0;
  any_deadline_ = false;
  need_global_rekey_ = false;
}

std::unique_ptr<Scheduler> make_deadline_fvdf(const std::string& name) {
  std::string key = name;
  std::transform(key.begin(), key.end(), key.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  if (key == "DEADLINE-FVDF" || key == "DFVDF")
    return std::make_unique<DeadlineFvdfScheduler>();
  throw std::out_of_range("make_deadline_fvdf: unknown variant " + name);
}

}  // namespace swallow::sched
