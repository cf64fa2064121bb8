// Aalo-style Discretized Coflow-Aware Least-Attained-Service (D-CLAS).
//
// The paper cites Aalo ("Efficient coflow scheduling without prior
// knowledge", SIGCOMM'15) as the info-agnostic alternative to Varys; we
// implement it as an extension baseline. Coflows live in priority queues
// indexed by the bytes they have already transmitted: a coflow starts in
// the highest-priority queue and is demoted each time its sent bytes cross
// the next geometric threshold. Scheduling is strict priority across
// queues and FIFO within a queue, work-conserving. Queue levels stay
// memoized in a RankIndex; each decision point re-derives only the coflows
// the context's DirtyTracker names (every coflow when it has none).
#pragma once

#include <cstdint>
#include <vector>

#include "sched/dirty.hpp"
#include "sched/rank_index.hpp"
#include "sched/scheduler.hpp"

namespace swallow::sched {

/// First demotion threshold (bytes sent); Aalo's default is 10 MB.
inline constexpr common::Bytes kAaloFirstThreshold = 10.0 * 1024 * 1024;
/// Multiplier between consecutive queue thresholds (Aalo's E).
inline constexpr double kAaloThresholdFactor = 10.0;
/// Number of queues (the last one is unbounded).
inline constexpr std::size_t kAaloQueues = 10;

class AaloScheduler final : public Scheduler {
 public:
  std::string name() const override { return "AALO"; }
  fabric::Allocation schedule(const SchedContext& ctx) override;

  /// Queue index for a coflow that has transmitted `sent` bytes.
  std::size_t queue_of(common::Bytes sent) const;

 private:
  void refresh_coflow(const SchedContext& ctx, const fabric::Coflow& c);

  // --- memo, valid for one tracker session ---
  struct Cached {
    /// Unfinished, unstalled flows, in coflow flow-id order.
    std::vector<const fabric::Flow*> flows;
  };
  RoundFlows flows_;
  std::vector<Cached> cache_;  ///< by dense coflow id
  RankIndex index_;            ///< primary key: queue level (exact integer)
  std::vector<const fabric::Flow*> ordered_;  ///< per-round output scratch
};

}  // namespace swallow::sched
