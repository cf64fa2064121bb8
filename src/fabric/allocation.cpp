#include "fabric/allocation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace swallow::fabric {

void Allocation::set_rate(FlowId id, common::Bps rate) {
  if (rate < 0) throw std::invalid_argument("Allocation: negative rate");
  if (id >= rates_.size()) rates_.resize(id + 1, 0.0);
  rates_[id] = rate;
}

void Allocation::reserve(std::size_t max_flow_id) {
  rates_.reserve(max_flow_id);
}

bool feasible(const Allocation& alloc, const std::vector<const Flow*>& flows,
              const Fabric& fabric) {
  std::vector<common::Bps> in_sum(fabric.num_ports(), 0.0);
  std::vector<common::Bps> out_sum(fabric.num_ports(), 0.0);
  for (const Flow* f : flows) {
    const common::Bps r = alloc.rate(f->id);
    in_sum[f->src] += r;
    out_sum[f->dst] += r;
  }
  for (PortId p = 0; p < fabric.num_ports(); ++p) {
    const double in_cap = fabric.ingress_capacity(p);
    const double out_cap = fabric.egress_capacity(p);
    if (in_sum[p] > in_cap * (1.0 + kFeasibilityTolerance)) return false;
    if (out_sum[p] > out_cap * (1.0 + kFeasibilityTolerance)) return false;
  }
  return true;
}

PortHeadroom::PortHeadroom(const Fabric& fabric) {
  ingress_.reserve(fabric.num_ports());
  egress_.reserve(fabric.num_ports());
  for (PortId p = 0; p < fabric.num_ports(); ++p) {
    ingress_.push_back(fabric.ingress_capacity(p));
    egress_.push_back(fabric.egress_capacity(p));
    // Failed links (capacity 0) start saturated and never open up.
    if (ingress_.back() > 0) ++open_ingress_;
    if (egress_.back() > 0) ++open_egress_;
  }
}

common::Bps PortHeadroom::available(const Flow& flow) const {
  return available(flow.src, flow.dst);
}

common::Bps PortHeadroom::available(PortId src, PortId dst) const {
  return std::max(0.0, std::min(ingress_.at(src), egress_.at(dst)));
}

void PortHeadroom::consume(const Flow& flow, common::Bps rate) {
  consume(flow.src, flow.dst, rate);
}

void PortHeadroom::consume(PortId src, PortId dst, common::Bps rate) {
  common::Bps& in = ingress_.at(src);
  common::Bps& out = egress_.at(dst);
  // A port leaves the open set exactly when this grant drains it (a full
  // grant of min(in, out) subtracts the smaller side to a bitwise 0.0).
  if (in > 0 && rate >= in) --open_ingress_;
  in = std::max(0.0, in - rate);
  if (out > 0 && rate >= out) --open_egress_;
  out = std::max(0.0, out - rate);
}

Allocation weighted_max_min(const std::vector<const Flow*>& flows,
                            const std::vector<double>& weights,
                            const Fabric& fabric) {
  if (flows.size() != weights.size())
    throw std::invalid_argument("weighted_max_min: weight count mismatch");
  Allocation alloc;
  const std::size_t n = flows.size();
  const std::size_t ports = fabric.num_ports();
  std::vector<double> rate(n, 0.0);
  std::vector<bool> frozen(n, false);

  // Per-port scratch reused across rounds (the progressive filling loop runs
  // up to n rounds; reallocating six vectors per round dominated profiles).
  std::vector<double> in_room(ports), out_room(ports);
  std::vector<double> in_weight(ports), out_weight(ports);
  std::vector<double> in_used(ports), out_used(ports);

  // Progressive filling: raise every unfrozen flow's rate proportionally to
  // its weight until a port saturates; freeze flows on saturated ports.
  for (std::size_t round = 0; round < n; ++round) {
    // Residual capacity and active weight per port.
    for (PortId p = 0; p < ports; ++p) {
      in_room[p] = fabric.ingress_capacity(p);
      out_room[p] = fabric.egress_capacity(p);
    }
    std::fill(in_weight.begin(), in_weight.end(), 0.0);
    std::fill(out_weight.begin(), out_weight.end(), 0.0);
    bool any_active = false;
    for (std::size_t i = 0; i < n; ++i) {
      in_room[flows[i]->src] -= rate[i];
      out_room[flows[i]->dst] -= rate[i];
      if (!frozen[i]) {
        const double w = std::max(weights[i], 1e-12);
        in_weight[flows[i]->src] += w;
        out_weight[flows[i]->dst] += w;
        any_active = true;
      }
    }
    if (!any_active) break;

    // Largest uniform weight-multiplier step before some port saturates.
    double step = std::numeric_limits<double>::infinity();
    for (PortId p = 0; p < ports; ++p) {
      if (in_weight[p] > 0)
        step = std::min(step, std::max(0.0, in_room[p]) / in_weight[p]);
      if (out_weight[p] > 0)
        step = std::min(step, std::max(0.0, out_room[p]) / out_weight[p]);
    }
    if (!std::isfinite(step)) break;

    for (std::size_t i = 0; i < n; ++i)
      if (!frozen[i]) rate[i] += step * std::max(weights[i], 1e-12);

    // Freeze flows whose ports just saturated.
    std::fill(in_used.begin(), in_used.end(), 0.0);
    std::fill(out_used.begin(), out_used.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      in_used[flows[i]->src] += rate[i];
      out_used[flows[i]->dst] += rate[i];
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (frozen[i]) continue;
      const PortId s = flows[i]->src, d = flows[i]->dst;
      const bool in_full = in_used[s] >=
          fabric.ingress_capacity(s) * (1.0 - kFeasibilityTolerance);
      const bool out_full = out_used[d] >=
          fabric.egress_capacity(d) * (1.0 - kFeasibilityTolerance);
      if (in_full || out_full) frozen[i] = true;
    }
  }

  for (std::size_t i = 0; i < n; ++i) alloc.set_rate(flows[i]->id, rate[i]);
  return alloc;
}

Allocation strict_priority(const std::vector<const Flow*>& flows,
                           const Fabric& fabric) {
  Allocation alloc;
  PortHeadroom headroom(fabric);
  for (const Flow* f : flows) {
    if (headroom.exhausted()) break;
    const common::Bps r = headroom.available(*f);
    alloc.set_rate(f->id, r);
    headroom.consume(*f, r);
  }
  return alloc;
}

void madd_into(Allocation& alloc, const std::vector<const Flow*>& coflow_flows,
               common::Seconds gamma, PortHeadroom& headroom) {
  if (gamma <= 0) throw std::invalid_argument("madd_into: non-positive gamma");
  for (const Flow* f : coflow_flows) {
    if (headroom.exhausted()) break;
    if (f->done()) continue;
    const common::Bps want = f->volume() / gamma;
    const common::Bps r = std::min(want, headroom.available(*f));
    alloc.set_rate(f->id, alloc.rate(f->id) + r);
    headroom.consume(*f, r);
  }
}

void backfill_into(Allocation& alloc, const std::vector<const Flow*>& flows,
                   PortHeadroom& headroom) {
  for (const Flow* f : flows) {
    if (headroom.exhausted()) break;
    if (f->done()) continue;
    const common::Bps extra = headroom.available(*f);
    if (extra <= 0) continue;
    alloc.set_rate(f->id, alloc.rate(f->id) + extra);
    headroom.consume(*f, extra);
  }
}

}  // namespace swallow::fabric
