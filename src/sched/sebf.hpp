// Smallest-Effective-Bottleneck-First (Varys): coflows admitted in order of
// their effective bottleneck Gamma = max_port(load/capacity); the admitted
// coflow's flows get MADD rates (all finish together at Gamma), residual
// capacity backfills the remaining coflows in the same order.
//
// Per-coflow Gamma stays memoized in a RankIndex and each decision point
// re-derives only the coflows the context's DirtyTracker names (every
// coflow when the context has none).
#pragma once

#include <cstdint>
#include <vector>

#include "sched/dirty.hpp"
#include "sched/rank_index.hpp"
#include "sched/scheduler.hpp"

namespace swallow::sched {

class SebfScheduler final : public Scheduler {
 public:
  /// `backfill` off is the ablation knob (bench_ablation_backfill).
  explicit SebfScheduler(bool backfill = true) : backfill_(backfill) {}
  std::string name() const override {
    return backfill_ ? "SEBF" : "SEBF-NOBACKFILL";
  }
  fabric::Allocation schedule(const SchedContext& ctx) override;

 private:
  void refresh_coflow(const SchedContext& ctx, const fabric::Coflow& c);

  bool backfill_;

  // --- memo, valid for one tracker session ---
  struct Cached {
    common::Seconds gamma = 0;
    /// Unfinished, unstalled flows, in coflow flow-id order (fixes MADD's
    /// FP accumulation order).
    std::vector<const fabric::Flow*> flows;
  };
  RoundFlows flows_;
  std::vector<Cached> cache_;  ///< by dense coflow id
  RankIndex index_;
  std::vector<common::Bytes> in_load_, out_load_;  ///< per-port scratch
};

}  // namespace swallow::sched
