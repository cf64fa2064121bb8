// The paper's network model: the datacenter fabric abstracted as one big
// non-blocking switch interconnecting N machines. Each machine contributes
// one ingress (uplink/sender NIC) and one egress (downlink/receiver NIC)
// port; congestion exists only at the ports (Fig. 3 of the paper, the model
// Varys and most coflow work share).
//
// Capacities are time-varying: every port carries a *nominal* capacity
// (what the NIC is provisioned for) and a *current* capacity (nominal
// scaled by a degradation multiplier in [0, 1]). The plain accessors
// ingress_capacity()/egress_capacity() return the current values, so every
// scheduler, rate solver and feasibility check automatically prices
// decisions against what the fabric can carry right now. The simulation
// engine drives the multipliers from a fabric::DegradationSchedule; an
// undegraded fabric has every multiplier at 1.0 and behaves bit-identically
// to the historical static model.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace swallow::fabric {

using PortId = std::uint32_t;

class Fabric {
 public:
  /// Uniform fabric: `ports` machines, every NIC at `capacity` bytes/s.
  Fabric(std::size_t ports, common::Bps capacity);

  /// Heterogeneous fabric with per-machine ingress/egress capacities.
  Fabric(std::vector<common::Bps> ingress, std::vector<common::Bps> egress);

  std::size_t num_ports() const { return ingress_.size(); }

  /// Current (possibly degraded) capacities — what the port can carry now.
  common::Bps ingress_capacity(PortId p) const {
    return ingress_.at(p) * multiplier_.at(p);
  }
  common::Bps egress_capacity(PortId p) const {
    return egress_.at(p) * multiplier_.at(p);
  }

  /// Provisioned capacities, invariant over the fabric's lifetime.
  common::Bps nominal_ingress_capacity(PortId p) const {
    return ingress_.at(p);
  }
  common::Bps nominal_egress_capacity(PortId p) const { return egress_.at(p); }

  /// Degradation multiplier of port `p` (both directions of its NIC/link):
  /// 1 = healthy, (0, 1) = brownout, 0 = failed link.
  double port_multiplier(PortId p) const { return multiplier_.at(p); }

  /// Sets the degradation multiplier. Throws on NaN or values outside
  /// [0, 1]; a port can lose capacity to degradation but never gain beyond
  /// nominal.
  void set_port_multiplier(PortId p, double multiplier);

  /// True when any port is currently below nominal capacity.
  bool degraded() const;

  /// Snapshot fields (recovery/state_io.hpp, DESIGN.md section 13): the
  /// port count, which a restore must match, then every port multiplier.
  template <class Self, class IO>
  static void fields(Self& f, IO& io) {
    io.expect(f.multiplier_.size(), "port count");
    for (auto& m : f.multiplier_) io.fraction(m, "port multiplier");
  }

 private:
  std::vector<common::Bps> ingress_;  ///< nominal
  std::vector<common::Bps> egress_;   ///< nominal
  std::vector<double> multiplier_;    ///< current = nominal * multiplier
};

}  // namespace swallow::fabric
