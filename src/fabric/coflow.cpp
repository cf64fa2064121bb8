#include "fabric/coflow.hpp"

#include <algorithm>

namespace swallow::fabric {

[[gnu::noinline]] common::Seconds coflow_bottleneck_time(
    const std::vector<const Flow*>& flows, const Fabric& fabric,
    std::vector<common::Bytes>& in_load, std::vector<common::Bytes>& out_load) {
  std::fill(in_load.begin(), in_load.end(), 0.0);
  std::fill(out_load.begin(), out_load.end(), 0.0);
  for (const Flow* f : flows) {
    in_load[f->src] += f->volume();
    out_load[f->dst] += f->volume();
  }
  common::Seconds gamma = 0;
  for (PortId p = 0; p < fabric.num_ports(); ++p) {
    const common::Bps in_cap = fabric.ingress_capacity(p);
    const common::Bps out_cap = fabric.egress_capacity(p);
    if (in_cap > 0) gamma = std::max(gamma, in_load[p] / in_cap);
    if (out_cap > 0) gamma = std::max(gamma, out_load[p] / out_cap);
  }
  return gamma;
}

}  // namespace swallow::fabric
