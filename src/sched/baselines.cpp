#include "sched/baselines.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace swallow::sched {

namespace {

/// Transmittable flows in ascending order of `key` (ties by id), served
/// strict priority.
template <class Key>
fabric::Allocation flows_by(const SchedContext& ctx, Key key) {
  std::vector<const fabric::Flow*> ordered = transmittable_flows(ctx);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](const fabric::Flow* a, const fabric::Flow* b) {
                     if (key(*a) != key(*b)) return key(*a) < key(*b);
                     return a->id < b->id;
                   });
  return fabric::strict_priority(ordered, *ctx.fabric);
}

/// Max-min shares over the transmittable flows, weighted by `weight`.
template <class Weight>
fabric::Allocation max_min(const SchedContext& ctx, Weight weight) {
  const std::vector<const fabric::Flow*>& flows = transmittable_flows(ctx);
  std::vector<double> weights;
  weights.reserve(flows.size());
  for (const fabric::Flow* f : flows) weights.push_back(weight(*f));
  return fabric::weighted_max_min(flows, weights, *ctx.fabric);
}

/// Coflows in ascending order of a key that `fold` accumulates over their
/// unfinished flows' volumes (ties by arrival, then id; a coflow with no
/// unfinished flow keys 0), flows served strict priority in that order.
template <class Fold>
fabric::Allocation coflows_by_key(const SchedContext& ctx, Fold fold) {
  std::unordered_map<fabric::CoflowId, double> key;
  for (const fabric::Flow* f : ctx.flows)
    if (!f->done()) fold(key[f->coflow], f->volume());

  std::vector<fabric::Coflow*> order = ctx.coflows;
  std::stable_sort(order.begin(), order.end(),
                   [&](const fabric::Coflow* a, const fabric::Coflow* b) {
                     const double ka = key[a->id], kb = key[b->id];
                     if (ka != kb) return ka < kb;
                     if (a->arrival != b->arrival)
                       return a->arrival < b->arrival;
                     return a->id < b->id;
                   });

  std::vector<fabric::CoflowId> ids;
  ids.reserve(order.size());
  for (const fabric::Coflow* c : order) ids.push_back(c->id);
  return fabric::strict_priority(order_flows_by_coflow(ctx, ids), *ctx.fabric);
}

}  // namespace

fabric::Allocation fifo(const SchedContext& ctx) {
  return flows_by(ctx, [](const fabric::Flow& f) { return f.arrival; });
}

fabric::Allocation pff(const SchedContext& ctx) {
  return max_min(ctx, [](const fabric::Flow&) { return 1.0; });
}

fabric::Allocation wss(const SchedContext& ctx) {
  return max_min(ctx, [](const fabric::Flow& f) { return f.volume(); });
}

fabric::Allocation pfp(const SchedContext& ctx) {
  return flows_by(ctx, [](const fabric::Flow& f) { return f.volume(); });
}

fabric::Allocation scf(const SchedContext& ctx) {
  return coflows_by_key(ctx, [](double& k, common::Bytes v) { k += v; });
}

fabric::Allocation ncf(const SchedContext& ctx) {
  return coflows_by_key(ctx, [](double& k, common::Bytes) { k += 1.0; });
}

fabric::Allocation lcf(const SchedContext& ctx) {
  return coflows_by_key(ctx,
                        [](double& k, common::Bytes v) { k = std::max(k, v); });
}

fabric::Allocation sincronia(const SchedContext& ctx) {
  return fabric::strict_priority(order_flows_by_coflow(ctx, bssi_order(ctx)),
                                 *ctx.fabric);
}

std::vector<fabric::CoflowId> bssi_order(const SchedContext& ctx) {
  // Per-coflow load on each of the 2N one-directional ports
  // (0..N-1 ingress, N..2N-1 egress).
  const std::size_t num_ports = ctx.fabric->num_ports();
  struct Job {
    fabric::CoflowId id;
    std::vector<common::Bytes> load;
    double weight = 1.0;  // the dual-discounted residual weight
    bool placed = false;
  };
  std::unordered_map<fabric::CoflowId, std::size_t> index;
  std::vector<Job> jobs;
  for (const fabric::Flow* f : ctx.flows) {
    if (f->done()) continue;
    auto [it, inserted] = index.try_emplace(f->coflow, jobs.size());
    if (inserted) jobs.push_back({f->coflow,
                                  std::vector<common::Bytes>(2 * num_ports, 0),
                                  1.0, false});
    Job& job = jobs[it->second];
    job.load[f->src] += f->volume();
    job.load[num_ports + f->dst] += f->volume();
  }

  const std::size_t n = jobs.size();
  std::vector<fabric::CoflowId> order(n);
  std::size_t remaining = n;

  // Place positions n-1 .. 0, last first.
  while (remaining > 0) {
    // Most-bottlenecked port over unplaced jobs.
    std::size_t bottleneck = 0;
    common::Bytes worst = -1;
    for (std::size_t p = 0; p < 2 * num_ports; ++p) {
      common::Bytes load = 0;
      for (const Job& job : jobs)
        if (!job.placed) load += job.load[p];
      if (load > worst) {
        worst = load;
        bottleneck = p;
      }
    }

    // Job with the smallest residual weight per unit of bottleneck load
    // goes last (it hurts the least when everything queues behind it).
    std::size_t last = n;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      const Job& job = jobs[j];
      if (job.placed || job.load[bottleneck] <= 0) continue;
      const double ratio = job.weight / job.load[bottleneck];
      if (ratio < best_ratio) {
        best_ratio = ratio;
        last = j;
      }
    }
    if (last == n) {
      // No load anywhere (all remaining jobs are empty): place by id.
      for (std::size_t j = 0; j < n; ++j)
        if (!jobs[j].placed) {
          last = j;
          break;
        }
      best_ratio = 0;
    }

    // Dual discount: every unplaced job pays for its bottleneck load.
    const double theta = best_ratio;
    for (Job& job : jobs)
      if (!job.placed)
        job.weight = std::max(0.0, job.weight - theta * job.load[bottleneck]);

    jobs[last].placed = true;
    order[--remaining] = jobs[last].id;
  }
  return order;
}

}  // namespace swallow::sched
