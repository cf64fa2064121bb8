#include "reference_sched.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/online.hpp"
#include "sched/aalo.hpp"

namespace swallow::reference {

namespace {

// Pseudocode 3's Upgrade, tracked naively: the set of coflows that were
// resident but unserved in the previous round ages at coflow events.
class Aging {
 public:
  void before(const sched::SchedContext& ctx, bool enabled) {
    if (!enabled || !ctx.coflow_event) return;
    for (fabric::Coflow* c : ctx.coflows)
      if (waiting_.count(c->id) != 0)
        c->priority = std::max(c->priority, 1.0) * core::kPriorityLogBase;
  }

  void after(const sched::SchedContext& ctx, const fabric::Allocation& a) {
    std::set<fabric::CoflowId> served;
    for (const fabric::Flow* f : ctx.flows)
      if (a.rate(f->id) > 0 || a.compress(f->id)) served.insert(f->coflow);
    waiting_.clear();
    for (const fabric::Coflow* c : ctx.coflows)
      if (served.count(c->id) == 0) waiting_.insert(c->id);
  }

 private:
  std::set<fabric::CoflowId> waiting_;
};

// One coflow's TimeCalculation result plus its slot in the round's order.
struct Estimate {
  fabric::Coflow* coflow = nullptr;
  std::vector<const fabric::Flow*> flows;  ///< unfinished, context order
  std::vector<bool> beta;                  ///< aligned with flows
  common::Seconds gamma = 0;               ///< Eq. 8
  int band = 0;
  double primary = 0;
  common::Seconds dispose = 0;  ///< transmitting flows get V / dispose
};

// TimeCalculation (Pseudocode 2 lines 12-23) for every coflow of the round
// that still has an unfinished flow.
std::vector<Estimate> estimate_all(const sched::SchedContext& ctx,
                                   const core::EvalEnv& env,
                                   bool force_compression) {
  std::map<fabric::CoflowId, std::vector<const fabric::Flow*>> by_coflow;
  for (const fabric::Flow* f : ctx.flows)
    if (!f->done()) by_coflow[f->coflow].push_back(f);
  std::vector<Estimate> out;
  for (fabric::Coflow* c : ctx.coflows) {
    const auto it = by_coflow.find(c->id);
    if (it == by_coflow.end()) continue;
    Estimate e;
    e.coflow = c;
    e.flows = it->second;
    for (const fabric::Flow* f : e.flows) {
      const core::FlowEval ev = core::evaluate_flow(env, *f, force_compression);
      e.beta.push_back(ev.beta);
      e.gamma = std::max(e.gamma, ev.fct);
    }
    out.push_back(std::move(e));
  }
  return out;
}

void sort_estimates(std::vector<Estimate>& est) {
  std::stable_sort(est.begin(), est.end(),
                   [](const Estimate& a, const Estimate& b) {
                     if (a.band != b.band) return a.band < b.band;
                     if (a.primary != b.primary) return a.primary < b.primary;
                     if (a.coflow->arrival != b.coflow->arrival)
                       return a.coflow->arrival < b.coflow->arrival;
                     return a.coflow->id < b.coflow->id;
                   });
}

// Volume disposal (Pseudocode 2 lines 24-35) plus the work-conserving
// backfill, over the sorted estimates.
fabric::Allocation dispose(const sched::SchedContext& ctx,
                           const std::vector<Estimate>& est, bool backfill) {
  fabric::Allocation alloc;
  fabric::PortHeadroom headroom(*ctx.fabric);
  std::vector<unsigned char> beta;  // by flow id
  for (const Estimate& e : est) {
    for (std::size_t i = 0; i < e.flows.size(); ++i) {
      const fabric::Flow* f = e.flows[i];
      if (e.beta[i]) {
        if (f->id >= beta.size()) beta.resize(f->id + 1, 0);
        beta[f->id] = 1;
        alloc.set_rate(f->id, 0.0);
        continue;
      }
      const common::Bps want = f->volume() / e.dispose;
      const common::Bps r = std::min(want, headroom.available(*f));
      alloc.set_rate(f->id, r);
      headroom.consume(*f, r);
    }
  }
  alloc.set_compress_all(std::move(beta));
  if (!backfill) return alloc;
  for (const Estimate& e : est) {
    for (std::size_t i = 0; i < e.flows.size(); ++i) {
      if (e.beta[i]) continue;
      const fabric::Flow* f = e.flows[i];
      const common::Bps extra = headroom.available(*f);
      if (extra <= 0) continue;
      alloc.set_rate(f->id, alloc.rate(f->id) + extra);
      headroom.consume(*f, extra);
    }
  }
  return alloc;
}

core::EvalEnv env_for(const sched::SchedContext& ctx, bool compression) {
  core::EvalEnv env = core::eval_env(ctx);
  if (!compression) env.codec = nullptr;
  return env;
}

// The plain FVDF variants: full FVDF with at most one ablation switched
// off (or, for BLIND, the Eq. 3 gate bypassed).
struct FvdfAblation {
  bool upgrade = true;
  bool compression = true;
  bool backfill = true;
  bool force_compression = false;
};

class Fvdf final : public sched::Scheduler {
 public:
  Fvdf(std::string name, FvdfAblation o) : name_(std::move(name)), o_(o) {}
  std::string name() const override { return name_; }

  fabric::Allocation schedule(const sched::SchedContext& ctx) override {
    aging_.before(ctx, o_.upgrade);
    std::vector<Estimate> est = estimate_all(
        ctx, env_for(ctx, o_.compression), o_.force_compression);
    for (Estimate& e : est) {
      e.primary = e.gamma / std::max(e.coflow->priority, 1.0);
      e.dispose = std::max(e.gamma, ctx.slice);
    }
    sort_estimates(est);
    const fabric::Allocation alloc = dispose(ctx, est, o_.backfill);
    aging_.after(ctx, alloc);
    return alloc;
  }

 private:
  std::string name_;
  FvdfAblation o_;
  Aging aging_;
};

class DeadlineFvdf final : public sched::Scheduler {
 public:
  std::string name() const override { return "DEADLINE-FVDF"; }

  fabric::Allocation schedule(const sched::SchedContext& ctx) override {
    if (ctx.fabric->degraded()) fallback_ = true;
    aging_.before(ctx, /*enabled=*/true);
    const core::EvalEnv env = core::eval_env(ctx);
    core::EvalEnv nc_env = env;
    nc_env.codec = nullptr;

    bool any_deadline = false;
    for (const fabric::Coflow* c : ctx.coflows)
      any_deadline |=
          c->has_deadline() && c->slo != fabric::SloClass::kRejected;

    std::vector<Estimate> est =
        estimate_all(ctx, env, /*force_compression=*/false);
    std::erase_if(est, [](const Estimate& e) {
      return e.coflow->slo == fabric::SloClass::kRejected;
    });
    for (Estimate& e : est) {
      const fabric::Coflow& c = *e.coflow;
      const bool has_beta =
          std::find(e.beta.begin(), e.beta.end(), true) != e.beta.end();
      auto gamma_nc = [&] {
        common::Seconds g = 0;
        for (const fabric::Flow* f : e.flows)
          g = std::max(g, core::evaluate_flow(nc_env, *f, false).fct);
        return g;
      };
      common::Seconds g = e.gamma;
      bool degrade = false;
      bool uncompressed = false;
      if (c.slo == fabric::SloClass::kDegraded) {
        degrade = true;
        if (has_beta) g = gamma_nc();
        uncompressed = true;
      }
      if (!fallback_ && c.has_deadline() && ctx.now < c.deadline) {
        const common::Seconds slack = c.deadline - ctx.now;
        e.band = 3;
        if (g <= core::kSlackFactor * slack) {
          e.band = 1;
        } else if (!uncompressed && has_beta) {
          // Compressed misses, raw fits: degrade before deferring.
          const common::Seconds gnc = gamma_nc();
          if (gnc <= core::kSlackFactor * slack) {
            g = gnc;
            degrade = true;
            e.band = 1;
          }
        }
        e.primary = c.deadline;
      } else {
        const bool starved = any_deadline && !fallback_ &&
                             c.priority >= core::kStarvationPriority;
        e.band = starved ? 0 : 2;
        e.primary = g / std::max(c.priority, 1.0);
      }
      if (degrade) std::fill(e.beta.begin(), e.beta.end(), false);
      e.dispose = std::max(g, ctx.slice);
      if (e.band == 1)
        e.dispose = std::max(e.dispose, c.deadline - ctx.now - ctx.slice);
    }
    sort_estimates(est);
    const fabric::Allocation alloc = dispose(ctx, est, /*backfill=*/true);
    aging_.after(ctx, alloc);
    return alloc;
  }

 private:
  bool fallback_ = false;  ///< sticky: a degraded round was seen
  Aging aging_;
};

class Sebf final : public sched::Scheduler {
 public:
  explicit Sebf(bool backfill) : backfill_(backfill) {}
  std::string name() const override {
    return backfill_ ? "SEBF" : "SEBF-NOBACKFILL";
  }

  fabric::Allocation schedule(const sched::SchedContext& ctx) override {
    std::map<fabric::CoflowId, std::vector<const fabric::Flow*>> by_coflow;
    for (const fabric::Flow* f : sched::transmittable_flows(ctx))
      if (!f->done()) by_coflow[f->coflow].push_back(f);
    std::vector<Estimate> est;
    std::vector<common::Bytes> in_load(ctx.fabric->num_ports());
    std::vector<common::Bytes> out_load(ctx.fabric->num_ports());
    for (fabric::Coflow* c : ctx.coflows) {
      const auto it = by_coflow.find(c->id);
      if (it == by_coflow.end()) continue;
      Estimate e;
      e.coflow = c;
      e.flows = it->second;
      e.gamma = fabric::coflow_bottleneck_time(e.flows, *ctx.fabric, in_load,
                                               out_load);
      e.primary = e.gamma;
      est.push_back(std::move(e));
    }
    sort_estimates(est);
    fabric::Allocation alloc;
    fabric::PortHeadroom headroom(*ctx.fabric);
    for (const Estimate& e : est)
      if (e.gamma > 0) fabric::madd_into(alloc, e.flows, e.gamma, headroom);
    if (backfill_)
      for (const Estimate& e : est)
        fabric::backfill_into(alloc, e.flows, headroom);
    return alloc;
  }

 private:
  bool backfill_;
};

class Aalo final : public sched::Scheduler {
 public:
  std::string name() const override { return "AALO"; }

  fabric::Allocation schedule(const sched::SchedContext& ctx) override {
    std::map<fabric::CoflowId, common::Bytes> sent;
    for (const fabric::Flow* f : ctx.flows) sent[f->coflow] += f->sent;
    std::vector<Estimate> est;
    for (fabric::Coflow* c : ctx.coflows) {
      Estimate e;
      e.coflow = c;
      e.primary = static_cast<double>(queue_of(sent[c->id]));
      est.push_back(std::move(e));
    }
    sort_estimates(est);
    std::vector<fabric::CoflowId> order;
    for (const Estimate& e : est) order.push_back(e.coflow->id);
    return fabric::strict_priority(sched::order_flows_by_coflow(ctx, order),
                                   *ctx.fabric);
  }

 private:
  // D-CLAS queue for `sent` bytes under Aalo's default geometric thresholds.
  static std::size_t queue_of(common::Bytes sent) {
    common::Bytes threshold = sched::kAaloFirstThreshold;
    for (std::size_t q = 0; q + 1 < sched::kAaloQueues; ++q) {
      if (sent < threshold) return q;
      threshold *= sched::kAaloThresholdFactor;
    }
    return sched::kAaloQueues - 1;
  }
};

}  // namespace

std::unique_ptr<sched::Scheduler> make_reference(const std::string& name) {
  FvdfAblation o;
  if (name == "FVDF") return std::make_unique<Fvdf>(name, o);
  if (name == "FVDF-NC") {
    o.compression = false;
    return std::make_unique<Fvdf>(name, o);
  }
  if (name == "FVDF-BLIND") {
    o.force_compression = true;
    return std::make_unique<Fvdf>(name, o);
  }
  if (name == "FVDF-NOUPGRADE") {
    o.upgrade = false;
    return std::make_unique<Fvdf>(name, o);
  }
  if (name == "FVDF-NOBACKFILL") {
    o.backfill = false;
    return std::make_unique<Fvdf>(name, o);
  }
  if (name == "DEADLINE-FVDF") return std::make_unique<DeadlineFvdf>();
  if (name == "SEBF") return std::make_unique<Sebf>(true);
  if (name == "SEBF-NOBACKFILL") return std::make_unique<Sebf>(false);
  if (name == "AALO") return std::make_unique<Aalo>();
  throw std::out_of_range("make_reference: no reference for " + name);
}

}  // namespace swallow::reference
