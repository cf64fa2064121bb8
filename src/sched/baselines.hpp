// The stateless baselines: the paper's FIFO, PFF/FAIR, WSS, PFP/SRTF and
// SCF/NCF/LCF, plus Sincronia's BSSI. Each is worked out afresh every round
// from per-flow or per-coflow statistics of the context, so each is one
// function; sched::Stateless gives it a name and the Scheduler interface
// (sim::make_scheduler builds one per table row).
//
//   FIFO  flows in arrival order, strict priority (head-of-line blocking;
//         Spark's default queue behaves this way).
//   PFF   per-flow max-min fairness (per-flow TCP, Spark's FAIR).
//   WSS   Orchestra's weighted shuffle scheduling: max-min shares weighted
//         by remaining volume; reproduces Fig. 4(b) exactly.
//   PFP   smallest remaining flow first, strict priority (pFabric/PDQ's
//         SRTF): optimal for average FCT on one link, coflow-agnostic.
//   SCF   smallest coflow (total remaining bytes) first;
//   NCF   narrowest coflow (fewest unfinished flows) first;
//   LCF   lightest coflow (smallest maximum remaining flow) first. The paper
//         never defines LCF; see DESIGN.md section 4.2. These three order
//         coflows by their key (ties by arrival, then id) and serve flows
//         strict priority in that order.
//   SINCRONIA  the BSSI primal-dual order below, strict priority.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "sched/scheduler.hpp"

namespace swallow::sched {

/// A scheduler that keeps nothing between rounds: a name and a policy.
/// Its checkpoint hooks stay the base class's no-ops.
class Stateless final : public Scheduler {
 public:
  using Policy = fabric::Allocation (*)(const SchedContext&);

  Stateless(std::string name, Policy policy)
      : name_(std::move(name)), policy_(policy) {}
  std::string name() const override { return name_; }
  fabric::Allocation schedule(const SchedContext& ctx) override {
    return policy_(ctx);
  }

 private:
  std::string name_;
  Policy policy_;
};

fabric::Allocation fifo(const SchedContext& ctx);
fabric::Allocation pff(const SchedContext& ctx);
fabric::Allocation wss(const SchedContext& ctx);
fabric::Allocation pfp(const SchedContext& ctx);
fabric::Allocation scf(const SchedContext& ctx);
fabric::Allocation ncf(const SchedContext& ctx);
fabric::Allocation lcf(const SchedContext& ctx);
fabric::Allocation sincronia(const SchedContext& ctx);

/// Bottleneck-first primal-dual coflow order (Sincronia's BSSI, built on
/// the Mastrolilli et al. concurrent-open-shop primal-dual the paper cites
/// as [40]) over the context's unfinished coflows, highest priority first.
///
/// The paper formulates offline coflow scheduling as a concurrent open shop
/// (Section IV-A) and notes LP techniques exist; this is the combinatorial
/// 2-approximation: repeatedly take the most-bottlenecked port, place
/// *last* the coflow with the smallest residual weight per unit of load on
/// that port, discount the weights of the rest, and recurse. Any
/// work-conserving rate allocation in this order keeps the bound.
std::vector<fabric::CoflowId> bssi_order(const SchedContext& ctx);

}  // namespace swallow::sched
