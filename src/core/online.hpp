// Online FVDF scheduler (the paper's Pseudocode 3) wrapped in the common
// Scheduler interface, plus the priority-class Upgrade that guarantees
// starvation freedom.
//
// schedule() has one path (DESIGN.md section 11): per-coflow Γ components
// are memoized, the rank order lives in a RankIndex, and each decision point
// re-evaluates only the coflows the context's DirtyTracker names — every
// coflow when the context carries no tracker. test_incremental checks the
// allocations bit for bit against a naive per-round recompute that lives in
// tests/.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fvdf.hpp"
#include "sched/dirty.hpp"
#include "sched/rank_index.hpp"
#include "sched/scheduler.hpp"

namespace swallow::core {

/// Pseudocode 3's logbase: each scheduling event multiplies every waiting
/// coflow's priority class by this factor.
inline constexpr double kPriorityLogBase = 1.2;

/// Per-coflow round stamps by dense coflow id. Unstamped ids read 0, so a
/// stamp doubles as a membership test without growing the table.
class RoundStamps {
 public:
  std::uint64_t get(fabric::CoflowId id) const {
    return id < v_.size() ? v_[id] : 0;
  }
  void set(fabric::CoflowId id, std::uint64_t round) {
    if (id >= v_.size()) v_.resize(id + 1, 0);
    v_[id] = round;
  }
  void clear() { v_.clear(); }

  /// Snapshot fields (recovery/state_io.hpp): the stamp table as is.
  template <class Self, class IO>
  static void fields(Self& s, IO& io, const char* what) {
    io.vec(s.v_, what, [&](auto& stamp) { io.u64(stamp); });
  }

 private:
  std::vector<std::uint64_t> v_;
};

/// Pseudocode 3's Upgrade, shared by FvdfScheduler and
/// DeadlineFvdfScheduler. The pseudocode ages "coflows waiting for
/// scheduling": at coflow arrival/completion events, every coflow that was
/// resident in the previous round but got no service out of it has its
/// priority class clamped to at least 1 and multiplied by kPriorityLogBase
/// (DESIGN.md 4.2). Served coflows keep their class, so the Shortest-Γ
/// order is preserved while blocked coflows rise. Each bump is reported to
/// the dirty tracker as key-only: Γ_C stands, only the rank key moves.
class PriorityUpgrade {
 public:
  /// `category` names the trace category of the `priority_upgrade` events
  /// and `counter` the registry counter of their count; both are literals.
  PriorityUpgrade(const char* category, const char* counter)
      : category_(category), counter_(counter) {}

  /// Opens a scheduling round; ages the waiting coflows when `enabled` and
  /// the round is a coflow event.
  void begin_round(const sched::SchedContext& ctx, bool enabled);
  /// Closes the round: every context coflow was seen, and every coflow
  /// with a flow given a positive rate or β = 1 was served.
  void end_round(const sched::SchedContext& ctx,
                 const fabric::Allocation& alloc);
  /// Rounds opened so far.
  std::uint64_t round() const { return round_; }

  /// Snapshot fields: the round counter and both stamp tables.
  template <class Self, class IO>
  static void fields(Self& u, IO& io) {
    io.u64(u.round_);
    RoundStamps::fields(u.seen_, io, "seen stamp");
    RoundStamps::fields(u.served_, io, "served stamp");
  }

 private:
  const char* category_;
  const char* counter_;
  // A coflow is waiting iff it was seen in the previous round and not
  // served there. Default stamps of 0 are safe: at round 1 both compare
  // equal to prev = 0, so nothing counts as waiting.
  std::uint64_t round_ = 0;
  RoundStamps seen_;
  RoundStamps served_;
};

/// One memoized allocation lane per unfinished flow of a cached coflow, as
/// FvdfScheduler and DeadlineFvdfScheduler keep them.
struct FvdfLane {
  fabric::FlowId id = 0;
  fabric::PortId src = 0;
  fabric::PortId dst = 0;
  bool beta = false;
  /// Disposal rate f.V / max(Γ, slice), cached at refresh time so the
  /// admission walk is pure table lookups. Meaningless when beta.
  common::Bps want = 0;
};

/// Work conservation (the backfill pass): tops the transmitting
/// lanes up with the residual headroom, in the order the round's disposal
/// walk visited them. A disposal walk that stopped short of port
/// exhaustion visited every transmitting lane, so `walked` is the whole
/// rank order; one that stopped at exhaustion leaves nothing to grant.
void backfill(const std::vector<const FvdfLane*>& walked,
              fabric::PortHeadroom& headroom, fabric::Allocation& alloc);

struct FvdfOptions {
  bool upgrade = true;           ///< run Upgrade at every event
  bool compression = true;       ///< allow beta = 1 (ablation knob)
  bool backfill = true;          ///< work-conserving pass (ablation knob)
  bool force_compression = false;  ///< bypass the Eq. 3 gate (ablation)
};

class FvdfScheduler final : public sched::Scheduler {
 public:
  explicit FvdfScheduler(FvdfOptions options = {});
  std::string name() const override;
  fabric::Allocation schedule(const sched::SchedContext& ctx) override;

  /// Serializes the starvation round stamps (the only state a restored run
  /// cannot rederive); the memo is session-keyed and rebuilt on the first
  /// post-restore round.
  void save_state(recovery::StateWriter& w) const override;
  void restore_state(recovery::StateReader& r) override;

 private:
  /// Re-evaluates a dirty coflow's flows (Eq. 7/8), refreshing its cache
  /// entry and its rank-index slot.
  void refresh_coflow(const sched::SchedContext& ctx, const EvalEnv& env,
                      const fabric::Coflow& c);
  /// Re-derives the rank key from cached Γ (key-only dirt: priority moved).
  void rekey_coflow(const fabric::Coflow& c);
  void drop_coflow(fabric::CoflowId id);
  /// Γ_C divided by the priority class (Pseudocode 3).
  double rank_key(const fabric::Coflow& c, common::Seconds gamma) const;

  template <class Self, class IO>
  static void fields(Self& s, IO& io) {
    PriorityUpgrade::fields(s.upgrade_, io);
  }

  FvdfOptions options_;
  PriorityUpgrade upgrade_{"fvdf", "fvdf.priority_upgrades"};

  // --- memo, valid for one tracker session ---
  using Lane = FvdfLane;
  struct CachedCoflow {
    common::Seconds gamma = 0;  ///< Eq. 8, before the priority division
    common::Seconds arrival = 0;
    bool valid = false;
    bool has_xmit = false;  ///< any non-beta lane (member of xmit_index_)
    std::vector<Lane> lanes;
  };
  sched::RoundFlows flows_;
  std::vector<CachedCoflow> cache_;  ///< by dense coflow id
  /// Rank order of the coflows with at least one transmitting lane. The
  /// disposal walk runs over this index and stops at port exhaustion, so
  /// its cost is O(coflows that can still receive bandwidth), not
  /// O(resident coflows). Beta-only coflows never touch headroom, so
  /// leaving them out changes no grant.
  sched::RankIndex xmit_index_;
  /// The transmitting lanes the round's disposal walk visited, in visit
  /// order: the backfill pass replays this list instead of walking the
  /// index again. Reused across rounds.
  std::vector<const Lane*> walked_;
  /// Persistent per-flow beta switches, mirrored from the cached lanes and
  /// bulk-installed into each round's Allocation (set_compress_all). Spares
  /// the O(compressing flows) per-round set_compress loop.
  std::vector<unsigned char> beta_;  ///< by dense flow id
};

/// Factory matching sched::make_baseline's shape. Recognized names:
/// "FVDF" (full), "FVDF-NC" (compression off), "FVDF-NOUPGRADE",
/// "FVDF-NOBACKFILL", "FVDF-BLIND", plus "DEADLINE-FVDF"/"DFVDF"
/// (sched/deadline_fvdf.hpp). Throws std::out_of_range otherwise, listing
/// every known scheduler name.
std::unique_ptr<sched::Scheduler> make_fvdf(const std::string& name);

}  // namespace swallow::core
