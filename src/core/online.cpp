#include "core/online.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>

#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace swallow::core {

namespace {

/// Scheduler names, indexed by FvdfVariant.
constexpr const char* kVariantNames[] = {
    "FVDF",           "FVDF-NC",        "FVDF-BLIND",
    "FVDF-NOUPGRADE", "FVDF-NOBACKFILL", "DEADLINE-FVDF"};
static_assert(std::size(kVariantNames) == kFvdfVariantCount);

}  // namespace

void PriorityUpgrade::begin_round(const sched::SchedContext& ctx,
                                  bool enabled) {
  ++round_;
  if (!enabled || !ctx.coflow_event) return;
  const std::uint64_t prev = round_ - 1;
  for (fabric::Coflow* c : ctx.coflows) {
    if (seen_.get(c->id) != prev || served_.get(c->id) == prev) continue;
    if (c->priority < 1.0) c->priority = 1.0;
    c->priority *= kPriorityLogBase;
    if (ctx.tracker != nullptr) ctx.tracker->priority_changed(c->id);
    if (ctx.sink != nullptr)
      obs::emit_instant(ctx.sink, obs::sim_ts(ctx.now), "priority_upgrade",
                        category_,
                        {{"coflow", c->id}, {"priority", c->priority}});
  }
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

FvdfScheduler::FvdfScheduler(FvdfVariant variant)
    : variant_(variant), upgrade_(deadline_aware() ? "dfvdf" : "fvdf") {}

std::string FvdfScheduler::name() const {
  return kVariantNames[static_cast<std::size_t>(variant_)];
}

bool FvdfScheduler::rejected(const fabric::Coflow& c) const {
  return deadline_aware() && c.slo == fabric::SloClass::kRejected;
}

bool FvdfScheduler::starved(const fabric::Coflow& c) const {
  // Band-0 promotion guards best-effort work against a monopolizing band 1;
  // in fault fallback there is no band 1, and promotion would only perturb
  // the plain FVDF order the fallback exists to reproduce.
  return deadline_resident_ > 0 && !seen_degraded_ &&
         c.priority >= kStarvationPriority;
}

template <typename GammaNcFn>
FvdfScheduler::SloRank FvdfScheduler::classify(
    const fabric::Coflow& c, common::Seconds gamma_beta, bool has_beta,
    common::Seconds now, GammaNcFn&& gamma_nc) const {
  SloRank r;
  common::Seconds g = gamma_beta;
  bool uncompressed = false;  // g already holds the no-compression Γ
  if (deadline_aware() && c.slo == fabric::SloClass::kDegraded) {
    // Admission degraded this coflow for its lifetime: compression never
    // re-enables, so rank it by its uncompressed Γ.
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
  // infeasible coflows plain FVDF happily finishes. Admission, expiry
  // shedding and re-pricing stay active, and shedding only removes
  // already-missed volume FVDF would keep transmitting, so fallback met
  // fraction and goodput dominate plain FVDF's. A healthy run never sets
  // the flag and keeps the full band ladder.
  if (deadline_aware() && !seen_degraded_ && c.has_deadline() &&
      now < c.deadline) {
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
    // Band 1 flips to 3 when the shrinking slack crosses Γ; band 3 flips
    // to 2 at expiry. Both instants re-derive from classify at refresh
    // time, so a conservative (early) horizon is always safe.
    r.horizon = r.band == 1 ? c.deadline - g / kSlackFactor : c.deadline;
    return r;
  }
  // Best-effort, expired deadline, fault fallback or a plain variant: FVDF
  // order, with the starvation promotion ahead of the deadline band once
  // the priority class says the coflow has waited long enough.
  r.band = starved(c) ? 0 : 2;
  r.gamma = g;
  r.primary = g / std::max(c.priority, 1.0);
  return r;
}

fabric::Allocation FvdfScheduler::schedule(const sched::SchedContext& ctx) {
  if (deadline_aware() && !seen_degraded_ && ctx.fabric->degraded()) {
    seen_degraded_ = true;
    // Entering fault fallback reclassifies every coflow, not just the ones
    // the capacity change dirtied: force a rebuild so no cached band
    // survives the regime switch.
    flows_.reset();
  }
  upgrade_.begin_round(ctx, variant_ != FvdfVariant::kNoUpgrade);
  obs::ProfileScope scope(ctx.sink, "fvdf.allocate");
  EvalEnv env = eval_env(ctx);
  if (variant_ == FvdfVariant::kNoCompression) env.codec = nullptr;
  EvalEnv nc_env = env;
  nc_env.codec = nullptr;

  if (flows_.bind(ctx)) {
    // No tracker, or first sight of this run (or a restarted one): every
    // coflow is dirty.
    for (sched::RankIndex& idx : xmit_) idx.clear();
    cache_.clear();
    beta_.assign(flows_.flow_count(), 0);
    horizon_heap_ = {};
    horizon_round_.clear();
    deadline_resident_ = 0;
    // Pre-register the deadline residents so every refresh below classifies
    // against the final resident count, whatever the coflow order.
    for (const fabric::Coflow* c : ctx.coflows) {
      if (!deadline_aware() || !c->has_deadline() || rejected(*c)) continue;
      if (c->id >= cache_.size()) cache_.resize(c->id + 1);
      cache_[c->id].counted = true;
      ++deadline_resident_;
    }
    for (const fabric::Coflow* c : ctx.coflows)
      if (!rejected(*c)) refresh_coflow(ctx, env, nc_env, *c);
    need_global_rekey_ = false;  // rebuild classified everything coherently
  } else {
    const sched::DirtyTracker& tracker = *ctx.tracker;
    for (const fabric::CoflowId id : tracker.dirty()) {
      const fabric::Coflow* c = tracker.coflow(id);
      if (c == nullptr) continue;
      if (c->completed() || rejected(*c)) {
        drop_coflow(id);
        continue;
      }
      if (tracker.level(id) == sched::DirtyLevel::kKeyOnly &&
          id < cache_.size() && cache_[id].valid) {
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
    if (c.completed() || rejected(c)) {
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

  // Volume disposal (Pseudocode 2 lines 24-35) over the memoized lanes,
  // walking bands 0..3; each band index is ordered (primary, arrival, id),
  // so the band-major walk visits coflows in the unique (band, primary,
  // arrival, id) order — Shortest-(adjusted)-Γ first within the FVDF
  // bands. Compressing flows use the CPU this round (rate 0, ports left to
  // others); their beta switches install in one bulk copy. Transmitting
  // flows get the rate that finishes them inside Γ_C, capped by residual
  // headroom; later coflows see what is left. The walk stops at port
  // exhaustion: once every ingress (or every egress) port is drained all
  // remaining grants are exactly zero — the rate an unset flow reports.
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
      // of over Γ, so a deadline coflow takes only the rate it needs and
      // the freed capacity serves later-deadline and best-effort work. The
      // max with Γ keeps the ASAP floor once the slack tightens. The
      // horizon depends on `now`, so band-1 wants are computed live at walk
      // time; other bands replay the memoized Γ-paced wants.
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
  if (variant_ != FvdfVariant::kNoBackfill) backfill(headroom, alloc);
  upgrade_.end_round(ctx, alloc);
  return alloc;
}

void FvdfScheduler::backfill(fabric::PortHeadroom& headroom,
                             fabric::Allocation& alloc) const {
  if (headroom.exhausted()) return;
  for (const Lane* l : walked_) {
    const common::Bps extra = headroom.available(l->src, l->dst);
    if (extra <= 0) continue;
    alloc.set_rate(l->id, alloc.rate(l->id) + extra);
    headroom.consume(l->src, l->dst, extra);
    // Past exhaustion every grant is exactly zero.
    if (headroom.exhausted()) return;
  }
}

void FvdfScheduler::refresh_coflow(const sched::SchedContext& ctx,
                                   const EvalEnv& env, const EvalEnv& nc_env,
                                   const fabric::Coflow& c) {
  if (c.id >= cache_.size()) cache_.resize(c.id + 1);
  CachedCoflow& cc = cache_[c.id];
  // Un-publish the old lanes' beta switches before rebuilding: a flow that
  // finished or flipped back to transmitting must not leak a stale flag
  // into the bulk compression table.
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
  if (deadline_aware() && c.has_deadline() && !cc.counted) {
    cc.counted = true;
    if (++deadline_resident_ == 1) need_global_rekey_ = true;
  }
  // Only DEADLINE-FVDF arms horizons, so only its pop loop reads the stamp.
  if (deadline_aware()) horizon_round_.set(c.id, upgrade_.round());
  cc.coflow = &c;

  common::Seconds gamma_beta = 0;
  bool has_beta = false;
  for (const fabric::FlowId fid : c.flows) {
    const fabric::Flow* f = flows_.live(fid);
    if (f == nullptr) continue;
    const FlowEval ev =
        evaluate_flow(env, *f, variant_ == FvdfVariant::kBlind);
    if (ctx.sink != nullptr) [[unlikely]]
      trace_beta_decision(ctx.sink, ctx.now, *f, ev.beta, ev.fct);
    gamma_beta = std::max(gamma_beta, ev.fct);  // Eq. 8
    cc.lanes.push_back(Lane{fid, f->src, f->dst, ev.beta, 0.0});
    if (ev.beta) {
      if (fid >= beta_.size()) beta_.resize(fid + 1, 0);
      beta_[fid] = 1;
      has_beta = true;
    } else {
      cc.has_xmit = true;
    }
  }
  if (cc.lanes.empty()) {
    if (was_valid) xmit_[old_band].erase(c.id);
    return;
  }
  // Same flow order as the Γ fold above (c.flows, finished skipped), so
  // Γ_nc folds deterministically.
  auto gamma_nc = [this, &c, &nc_env]() {
    common::Seconds g = 0;
    for (const fabric::FlowId fid : c.flows)
      if (const fabric::Flow* f = flows_.live(fid))
        g = std::max(g, evaluate_flow(nc_env, *f, false).fct);
    return g;
  };
  const SloRank rank = classify(c, gamma_beta, has_beta, ctx.now, gamma_nc);
  if (ctx.sink != nullptr) [[unlikely]]
    trace_coflow_estimate(ctx.sink, ctx.now, c, rank.gamma, rank.primary);
  cc.gamma = rank.gamma;
  cc.horizon = rank.horizon;
  if (rank.degrade) {
    // Ships raw this round: withdraw the beta switches published above.
    for (Lane& l : cc.lanes) {
      if (l.beta) beta_[l.id] = 0;
      l.beta = false;
    }
    cc.has_xmit = true;
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

void FvdfScheduler::rekey_coflow(const fabric::Coflow& c) {
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

void FvdfScheduler::rekey_all() {
  for (const CachedCoflow& cc : cache_)
    if (cc.valid) rekey_coflow(*cc.coflow);
}

void FvdfScheduler::install(const fabric::Coflow& c) {
  CachedCoflow& cc = cache_[c.id];
  const double primary = cc.band == 1 || cc.band == 3
                             ? c.deadline
                             : cc.gamma / std::max(c.priority, 1.0);
  const sched::CoflowRankKey key{primary, cc.arrival, c.id};
  if (cc.has_xmit)
    xmit_[cc.band].insert_or_update(c.id, key);
  else
    xmit_[cc.band].erase(c.id);
}

void FvdfScheduler::drop_coflow(fabric::CoflowId id) {
  for (sched::RankIndex& idx : xmit_) idx.erase(id);
  if (id >= cache_.size()) return;
  CachedCoflow& cc = cache_[id];
  for (const Lane& l : cc.lanes)
    if (l.beta) beta_[l.id] = 0;
  if (cc.counted) {
    cc.counted = false;
    if (--deadline_resident_ == 0) need_global_rekey_ = true;
  }
  cc.valid = false;
  cc.has_xmit = false;
  cc.lanes = {};  // free, not just clear: completed coflows linger
  cc.gamma = 0;
  cc.horizon = fabric::kNoDeadline;
}

void FvdfScheduler::save_state(recovery::StateWriter& w) const {
  fields(*this, w);
}

void FvdfScheduler::restore_state(recovery::StateReader& r) {
  fields(*this, r);
  // The restored run owns a fresh DirtyTracker session, and schedule()
  // rebuilds the memo, the band indexes and the horizon heap from scratch
  // when it sees one. Resetting here makes that unconditional even if a
  // stale session id were ever reused.
  flows_.reset();
}

}  // namespace swallow::core
