#include "core/admission.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace swallow::core {

namespace {

inline constexpr common::Seconds kInf =
    std::numeric_limits<common::Seconds>::infinity();

common::Seconds safe_time(common::Bytes bytes, common::Bps rate) {
  if (bytes <= 0) return 0;
  if (rate <= 0) return kInf;
  return bytes / rate;
}

}  // namespace

AdmissionController::AdmissionController(const AdmissionConfig& config,
                                         const fabric::Fabric& nominal)
    : config_(config) {
  const std::size_t ports = nominal.num_ports();
  nominal_ingress_.resize(ports);
  nominal_egress_.resize(ports);
  for (fabric::PortId p = 0; p < ports; ++p) {
    nominal_ingress_[p] = nominal.nominal_ingress_capacity(p);
    nominal_egress_[p] = nominal.nominal_egress_capacity(p);
  }
  committed_ingress_.assign(ports, {});
  committed_egress_.assign(ports, {});
  ingress_bytes_.assign(ports, 0);
  egress_bytes_.assign(ports, 0);
  compress_raw_.assign(ports, 0);
  compress_saved_.assign(ports, 0);
}

AdmissionDecision AdmissionController::admit(
    const fabric::Coflow& coflow, const std::vector<fabric::Flow>& all_flows,
    const fabric::Fabric& live, const cpu::CpuProvider& cpu,
    const codec::CodecModel* codec, common::Seconds now) {
  AdmissionDecision d;
  if (!config_.enabled || !coflow.has_deadline()) {
    d.verdict = AdmissionVerdict::kAdmit;
    d.reason = "best_effort";
    return d;
  }

  const common::Seconds slack = coflow.deadline - now;
  const Bounds b = price(coflow, all_flows, live, cpu, codec, now);

  d.t_uncompressed = b.t_cur;
  d.t_compressed = b.t_comp;
  d.t_nominal = b.t_nom;

  // Ladder rung 1: hopeless even on a healthy fabric with the coflow alone.
  if (b.t_nom > slack) {
    d.verdict = AdmissionVerdict::kReject;
    d.reason = "hopeless";
    return d;
  }

  // Ladder rung 2: infeasible on the fabric as it stands (degradation may
  // lift later) — keep it, unpromised, served by leftovers.
  const common::Seconds t_best = std::min(b.t_cur, b.t_comp);
  if (t_best > slack) {
    d.verdict = AdmissionVerdict::kDefer;
    d.reason = "infeasible_now";
    return d;
  }

  // Ladder rung 3: EDF demand bound per touched port — would the promised
  // bytes overflow any deadline window past the SLO share of nominal
  // capacity? (Boundaries before this coflow's own deadline are untouched
  // by it and are not re-litigated: their jobs are already part-served.)
  for (fabric::PortId p : touched_ingress_) {
    if (!demand_fits(committed_ingress_[p], all_flows, coflow.deadline,
                     ingress_bytes_[p], nominal_ingress_[p], now)) {
      d.verdict = AdmissionVerdict::kReject;
      d.reason = "slo_share_exhausted";
      return d;
    }
  }
  for (fabric::PortId p : touched_egress_) {
    if (!demand_fits(committed_egress_[p], all_flows, coflow.deadline,
                     egress_bytes_[p], nominal_egress_[p], now)) {
      d.verdict = AdmissionVerdict::kReject;
      d.reason = "slo_share_exhausted";
      return d;
    }
  }

  // Ladder rung 4: feasible raw but compression's CPU bill blows the
  // deadline — admit with beta forced off for the coflow's lifetime. A
  // coflow with nothing to compress has no compression to price out.
  if (b.any_compressible && b.t_cur <= slack && b.t_comp > slack) {
    d.verdict = AdmissionVerdict::kDegrade;
    d.reason = "compression_priced_out";
  } else {
    d.verdict = AdmissionVerdict::kAdmit;
    d.reason = "feasible";
  }

  // Commit the promise (released at completion or shed).
  Commitment& c = commitments_[coflow.id];
  for (fabric::PortId p : touched_ingress_) {
    Demand dm{coflow.deadline, coflow.id, {}};
    for (fabric::FlowId fid : coflow.flows)
      if (all_flows[fid].src == p &&
          all_flows[fid].volume() > fabric::kVolumeEpsilon)
        dm.flows.push_back(fid);
    committed_ingress_[p].push_back(std::move(dm));
    c.ingress.push_back(p);
  }
  for (fabric::PortId p : touched_egress_) {
    Demand dm{coflow.deadline, coflow.id, {}};
    for (fabric::FlowId fid : coflow.flows)
      if (all_flows[fid].dst == p &&
          all_flows[fid].volume() > fabric::kVolumeEpsilon)
        dm.flows.push_back(fid);
    committed_egress_[p].push_back(std::move(dm));
    c.egress.push_back(p);
  }
  return d;
}

AdmissionController::Bounds AdmissionController::price(
    const fabric::Coflow& coflow, const std::vector<fabric::Flow>& all_flows,
    const fabric::Fabric& live, const cpu::CpuProvider& cpu,
    const codec::CodecModel* codec, common::Seconds now) {
  // Per-port raw byte loads, and per sender the raw bytes the codec would
  // have to encode and the wire bytes encoding them saves. A flow shrinks
  // at its own ratio, as in Eq. 3 and the engine. Touched lists keep the
  // reset O(flows).
  for (fabric::PortId p : touched_ingress_) {
    ingress_bytes_[p] = 0;
    compress_raw_[p] = 0;
    compress_saved_[p] = 0;
  }
  for (fabric::PortId p : touched_egress_) egress_bytes_[p] = 0;
  touched_ingress_.clear();
  touched_egress_.clear();
  bool any_compressible = false;
  for (fabric::FlowId fid : coflow.flows) {
    const fabric::Flow& f = all_flows[fid];
    const common::Bytes v = f.volume();
    if (v <= fabric::kVolumeEpsilon) continue;
    if (ingress_bytes_[f.src] == 0 && compress_raw_[f.src] == 0)
      touched_ingress_.push_back(f.src);
    if (egress_bytes_[f.dst] == 0) touched_egress_.push_back(f.dst);
    ingress_bytes_[f.src] += v;
    egress_bytes_[f.dst] += v;
    if (f.compressible && codec != nullptr) {
      compress_raw_[f.src] += f.raw_remaining;
      compress_saved_[f.src] +=
          f.raw_remaining * (1.0 - f.effective_ratio(codec->ratio));
      any_compressible = true;
    }
  }

  // Isolation bounds: the coflow alone, bottleneck port dominates.
  common::Seconds t_cur = 0;      // current capacities, uncompressed
  common::Seconds t_nom = 0;      // nominal capacities, uncompressed
  common::Seconds t_comp = 0;     // current capacities, compress-all
  for (fabric::PortId p : touched_ingress_) {
    const common::Bytes raw = ingress_bytes_[p];
    t_cur = std::max(t_cur, safe_time(raw, live.ingress_capacity(p)));
    t_nom = std::max(t_nom, safe_time(raw, nominal_ingress_[p]));
    if (any_compressible) {
      // Serialized pessimism per sender: encode the compressible bytes on
      // this node's idle CPU, then ship the (shrunk) load through the NIC.
      const common::Bytes to_encode = compress_raw_[p];
      common::Seconds enc = 0;
      common::Bytes wire = raw;
      if (to_encode > 0) {
        const double headroom = cpu.headroom(p, now);
        if (!cpu::CpuProvider::can_compress(headroom)) {
          enc = kInf;
        } else {
          enc = safe_time(to_encode, codec->compress_speed * headroom);
          wire = raw - compress_saved_[p];
        }
      }
      t_comp = std::max(t_comp,
                        enc + safe_time(wire, live.ingress_capacity(p)));
    }
  }
  for (fabric::PortId p : touched_egress_) {
    const common::Bytes raw = egress_bytes_[p];
    t_cur = std::max(t_cur, safe_time(raw, live.egress_capacity(p)));
    t_nom = std::max(t_nom, safe_time(raw, nominal_egress_[p]));
    if (any_compressible) {
      // Receivers see wire bytes; assume every compressible byte shrinks.
      // (Receiver-side decode overlaps the transfer and is not modeled.)
      common::Bytes wire = raw;
      for (fabric::FlowId fid : coflow.flows) {
        const fabric::Flow& f = all_flows[fid];
        if (f.dst != p || !f.compressible || codec == nullptr) continue;
        wire -= f.raw_remaining * (1.0 - f.effective_ratio(codec->ratio));
      }
      t_comp = std::max(t_comp, safe_time(wire, live.egress_capacity(p)));
    }
  }
  if (!any_compressible) t_comp = kInf;

  return Bounds{t_cur, t_comp, t_nom, any_compressible};
}

AdmissionController::RepriceOutcome AdmissionController::reprice(
    const std::vector<fabric::Flow>& all_flows, const fabric::Fabric& live,
    const cpu::CpuProvider& cpu, const codec::CodecModel* codec,
    common::Seconds now,
    const std::function<const fabric::Coflow&(fabric::CoflowId)>& coflow_of) {
  RepriceOutcome out;
  // In coflow-id order, so both engine modes shed and demote the same
  // coflows. A demotion releases only the commitment just visited.
  for (auto it = commitments_.begin(); it != commitments_.end();) {
    const fabric::CoflowId id = (it++)->first;
    const fabric::Coflow& coflow = coflow_of(id);
    const common::Seconds slack = coflow.deadline - now;
    // Already past its deadline at this boundary: the expiry ladder owns
    // that shed (same journal record, same boundary) — don't double-count.
    if (slack <= 0) continue;
    const Bounds b = price(coflow, all_flows, live, cpu, codec, now);
    if (std::min(b.t_cur, b.t_comp) <= slack) continue;  // still feasible
    if (b.t_nom > slack) {
      // Hopeless: infeasible live even compressed, AND the remaining raw
      // volume misses the deadline even at nominal capacity. Shedding now
      // (instead of at expiry) returns the fabric share to feasible work
      // for the whole remaining slack. The compressed-path check matters:
      // t_nom prices raw bytes, and a coflow whose codec carries it must
      // not be shed on a raw-only bound.
      out.shed.push_back(id);
    } else {
      // Feasible on paper, not on the fabric as it stands: withdraw the
      // promise so the EDF demand bound stops charging arrivals for bytes
      // this coflow cannot land in time. It keeps running by leftovers
      // (kDeferred) and is re-shed at expiry if degradation never lifts.
      release(id);
      out.demoted.push_back(id);
    }
  }
  // Sheds release through the caller's mark_rejected -> release() path.
  return out;
}

bool AdmissionController::demand_fits(
    const std::vector<Demand>& committed,
    const std::vector<fabric::Flow>& all_flows, common::Seconds add_deadline,
    common::Bytes add_bytes, common::Bps capacity,
    common::Seconds now) const {
  const double window = kMaxSloShare * capacity;
  const auto remaining = [&](const Demand& dm) {
    common::Bytes v = 0;
    for (fabric::FlowId fid : dm.flows) v += all_flows[fid].volume();
    return v;
  };
  // Bytes already promised by the new coflow's own deadline; every later
  // boundary only accumulates on top of this.
  common::Bytes by_add = add_bytes;
  for (const Demand& dm : committed)
    if (dm.deadline <= add_deadline) by_add += remaining(dm);
  if (by_add > window * (add_deadline - now)) return false;
  // Later boundaries, checked in deadline order (the set is small: only
  // in-flight admitted coflows on this port).
  std::vector<const Demand*> later;
  for (const Demand& dm : committed)
    if (dm.deadline > add_deadline) later.push_back(&dm);
  std::sort(later.begin(), later.end(),
            [](const Demand* a, const Demand* b) {
              return a->deadline < b->deadline;
            });
  common::Bytes cum = by_add;
  for (const Demand* dm : later) {
    cum += remaining(*dm);
    if (cum > window * (dm->deadline - now)) return false;
  }
  return true;
}

void AdmissionController::release(fabric::CoflowId id) {
  auto it = commitments_.find(id);
  if (it == commitments_.end()) return;
  auto erase_mine = [id](std::vector<Demand>& v) {
    for (std::size_t i = 0; i < v.size();) {
      if (v[i].coflow == id) {
        v[i] = v.back();
        v.pop_back();
      } else {
        ++i;
      }
    }
  };
  for (fabric::PortId p : it->second.ingress) erase_mine(committed_ingress_[p]);
  for (fabric::PortId p : it->second.egress) erase_mine(committed_egress_[p]);
  commitments_.erase(it);
}

template <class Self, class IO>
void AdmissionController::fields(Self& a, IO& io, std::size_t num_coflows,
                                 std::size_t num_flows) {
  const std::size_t ports = a.nominal_ingress_.size();
  const auto side = [&](auto& committed, const char* what) {
    io.expect(committed.size(), what);
    for (auto& port : committed)
      io.vec(port, "admission demand", [&](auto& d) {
        io.f64(d.deadline);
        io.index(d.coflow, num_coflows, "admission demand coflow");
        io.vec(d.flows, "admission demand flow", [&](auto& fid) {
          io.index(fid, num_flows, "admission demand flow");
        });
      });
  };
  side(a.committed_ingress_, "admission ingress port count");
  side(a.committed_egress_, "admission egress port count");
  const auto port = [&](auto& p) {
    io.index(p, ports, "admission commitment port");
  };
  io.map(a.commitments_, "admission commitment", [&](auto& id, auto& c) {
    io.index(id, num_coflows, "admission commitment coflow");
    io.vec(c.ingress, "commitment ingress port", port);
    io.vec(c.egress, "commitment egress port", port);
  });
}

void AdmissionController::save_state(recovery::StateWriter& w,
                                     std::size_t num_coflows,
                                     std::size_t num_flows) const {
  fields(*this, w, num_coflows, num_flows);
}

void AdmissionController::restore_state(recovery::StateReader& r,
                                        std::size_t num_coflows,
                                        std::size_t num_flows) {
  fields(*this, r, num_coflows, num_flows);
}

}  // namespace swallow::core
