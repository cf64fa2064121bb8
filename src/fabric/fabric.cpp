#include "fabric/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace swallow::fabric {

namespace {

void validate_capacities(const std::vector<common::Bps>& caps,
                         const char* direction) {
  for (const auto v : caps) {
    if (!std::isfinite(v))
      throw std::invalid_argument(std::string("Fabric: non-finite ") +
                                  direction + " capacity");
    if (v <= 0)
      throw std::invalid_argument(std::string("Fabric: non-positive ") +
                                  direction + " capacity");
  }
}

}  // namespace

Fabric::Fabric(std::size_t ports, common::Bps capacity)
    : ingress_(ports, capacity),
      egress_(ports, capacity),
      multiplier_(ports, 1.0) {
  if (ports == 0) throw std::invalid_argument("Fabric: zero ports");
  if (!std::isfinite(capacity))
    throw std::invalid_argument("Fabric: non-finite capacity");
  if (capacity <= 0) throw std::invalid_argument("Fabric: non-positive capacity");
}

Fabric::Fabric(std::vector<common::Bps> ingress, std::vector<common::Bps> egress)
    : ingress_(std::move(ingress)), egress_(std::move(egress)) {
  if (ingress_.empty()) throw std::invalid_argument("Fabric: zero ports");
  if (ingress_.size() != egress_.size())
    throw std::invalid_argument("Fabric: mismatched ingress/egress lengths");
  validate_capacities(ingress_, "ingress");
  validate_capacities(egress_, "egress");
  multiplier_.assign(ingress_.size(), 1.0);
}

void Fabric::set_port_multiplier(PortId p, double multiplier) {
  if (!(multiplier >= 0.0 && multiplier <= 1.0))  // also rejects NaN
    throw std::invalid_argument("Fabric: multiplier outside [0, 1]");
  multiplier_.at(p) = multiplier;
}

bool Fabric::degraded() const {
  return std::any_of(multiplier_.begin(), multiplier_.end(),
                     [](double m) { return m < 1.0; });
}

}  // namespace swallow::fabric
