// Online FVDF scheduler (the paper's Pseudocode 3) wrapped in the common
// Scheduler interface, the priority-class Upgrade that guarantees
// starvation freedom, and DEADLINE-FVDF's band ladder (DESIGN.md section
// 12) on the same memo.
//
// One class serves the six FVDF-family scheduler names (FvdfVariant), and
// schedule() has one path (DESIGN.md section 11): per-coflow Γ components
// are memoized, each coflow is classified onto a band and ranked in that
// band's RankIndex, and each decision point re-evaluates only the coflows
// the context's DirtyTracker names — every coflow when the context carries
// no tracker. The disposal walk visits bands 0..3 in order:
//
//   band 0  starvation-promoted best-effort coflows (priority class grew
//           past kStarvationPriority while the deadline band monopolized
//           the fabric), FVDF order;
//   band 1  deadline coflows whose Eq. 3/7/8 completion estimate (including
//           compression CPU cost and current per-port capacity multipliers)
//           still fits the deadline — EDF order (earliest deadline first);
//   band 2  best-effort and expired-deadline coflows, plain FVDF order
//           (adjusted Γ, arrival, id);
//   band 3  deferred deadline coflows: infeasible on the fabric as it
//           stands, parked on leftovers until capacity recovers or the
//           deadline expires — EDF order.
//
// Only DEADLINE-FVDF reads deadlines and SLO classes. The plain variants put
// every coflow in band 2 under FVDF's key Γ_C / max(P, 1), which is also
// where DEADLINE-FVDF puts every coflow of a trace with no deadlines: the
// zero-deadline A/B in CI checks that the two allocate bit for bit alike.
// test_incremental and test_slo check the allocations against a naive
// per-round recompute that lives in tests/.
#pragma once

#include <cstdint>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/fvdf.hpp"
#include "sched/dirty.hpp"
#include "sched/rank_index.hpp"
#include "sched/scheduler.hpp"

namespace swallow::core {

/// Pseudocode 3's logbase: each scheduling event multiplies every waiting
/// coflow's priority class by this factor.
inline constexpr double kPriorityLogBase = 1.2;
/// A deadline coflow is feasible while Γ <= kSlackFactor * slack.
inline constexpr double kSlackFactor = 1.0;
/// Priority class at which a starved band-2 coflow is promoted ahead of the
/// deadline band: kPriorityLogBase^12, twelve consecutive coflow events
/// with zero service.
inline constexpr double kStarvationPriority = 8.916100448256;

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

/// Pseudocode 3's Upgrade. The pseudocode ages "coflows waiting for
/// scheduling": at coflow arrival/completion events, every coflow that was
/// resident in the previous round but got no service out of it has its
/// priority class clamped to at least 1 and multiplied by kPriorityLogBase
/// (DESIGN.md 4.2). Served coflows keep their class, so the Shortest-Γ
/// order is preserved while blocked coflows rise. Each bump is reported to
/// the dirty tracker as key-only: Γ_C stands, only the rank key moves.
class PriorityUpgrade {
 public:
  /// `category` (a literal) names the trace category of the
  /// `priority_upgrade` events.
  explicit PriorityUpgrade(const char* category) : category_(category) {}

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
  // A coflow is waiting iff it was seen in the previous round and not
  // served there. Default stamps of 0 are safe: at round 1 both compare
  // equal to prev = 0, so nothing counts as waiting.
  std::uint64_t round_ = 0;
  RoundStamps seen_;
  RoundStamps served_;
};

/// The FVDF family, one value per scheduler name. Each plain variant is FVDF
/// with at most one ablation; DEADLINE-FVDF is full FVDF under the band
/// ladder.
enum class FvdfVariant : std::uint8_t {
  kFvdf,           ///< "FVDF": Upgrade, the Eq. 3 gate and backfill all on
  kNoCompression,  ///< "FVDF-NC": no codec, so β = 0 for every flow
  kBlind,          ///< "FVDF-BLIND": β forced past the Eq. 3 gate
  kNoUpgrade,      ///< "FVDF-NOUPGRADE": Pseudocode 3's Upgrade skipped
  kNoBackfill,     ///< "FVDF-NOBACKFILL": the work-conserving pass skipped
  kDeadline,       ///< "DEADLINE-FVDF": the band ladder
};
/// Number of FvdfVariant values; sim::make_scheduler's table holds one
/// entry per value.
inline constexpr std::size_t kFvdfVariantCount =
    static_cast<std::size_t>(FvdfVariant::kDeadline) + 1;

class FvdfScheduler final : public sched::Scheduler {
 public:
  explicit FvdfScheduler(FvdfVariant variant);
  std::string name() const override;
  fabric::Allocation schedule(const sched::SchedContext& ctx) override;

  /// Serializes the starvation round stamps and, for DEADLINE-FVDF, the
  /// sticky fault-fallback flag: the only state a restored run cannot
  /// rederive. The memo, band indexes and horizon heap are session-keyed
  /// and rebuilt on the first post-restore round.
  void save_state(recovery::StateWriter& w) const override;
  void restore_state(recovery::StateReader& r) override;

 private:
  static constexpr int kNumBands = 4;

  /// One memoized allocation lane per unfinished flow of a cached coflow.
  struct Lane {
    fabric::FlowId id = 0;
    fabric::PortId src = 0;
    fabric::PortId dst = 0;
    bool beta = false;
    /// Disposal rate f.V / max(Γ, slice), cached at refresh time so the
    /// disposal walk is pure table lookups. Meaningless when beta.
    common::Bps want = 0;
  };
  /// One coflow's slot on the band ladder for the current instant.
  struct SloRank {
    std::uint8_t band = 2;
    double primary = 0;          ///< deadline (bands 1/3) or adjusted Γ
    common::Seconds gamma = 0;   ///< effective Γ (uncompressed if degraded)
    bool degrade = false;        ///< β forced 0 this round
    /// Earliest instant at which time alone can change this
    /// classification; kNoDeadline when only events can.
    common::Seconds horizon = fabric::kNoDeadline;
  };

  bool deadline_aware() const { return variant_ == FvdfVariant::kDeadline; }
  /// DEADLINE-FVDF only (the plain variants never read the SLO class): the
  /// coflow was rejected at arrival or shed mid-flight, so it leaves the
  /// memo like a completed one.
  bool rejected(const fabric::Coflow& c) const;
  /// `has_beta` short-circuits the uncompressed re-evaluation when no flow
  /// chose compression (Γ_nc would equal Γ bit for bit anyway).
  template <typename GammaNcFn>
  SloRank classify(const fabric::Coflow& c, common::Seconds gamma_beta,
                   bool has_beta, common::Seconds now,
                   GammaNcFn&& gamma_nc) const;
  bool starved(const fabric::Coflow& c) const;

  /// Re-evaluates a dirty coflow's flows (Eq. 7/8), reclassifies it and
  /// refreshes its cache entry and its rank-index slot.
  void refresh_coflow(const sched::SchedContext& ctx, const EvalEnv& env,
                      const EvalEnv& nc_env, const fabric::Coflow& c);
  /// Re-derives the rank key (and the band-0/2 promotion) from cached Γ
  /// (key-only dirt: priority moved); bands 1/3 key on the deadline, so
  /// priority-only dirt is a no-op there.
  void rekey_coflow(const fabric::Coflow& c);
  /// Re-keys every cached coflow. Runs when the resident-deadline count
  /// crosses zero: band-0 eligibility is global, so every band-0/2 key can
  /// move. Gammas are untouched.
  void rekey_all();
  void drop_coflow(fabric::CoflowId id);
  void install(const fabric::Coflow& c);
  /// Work conservation (the backfill pass): tops the transmitting lanes up
  /// with the residual headroom, in the order the round's disposal walk
  /// visited them. A disposal walk that stopped short of port exhaustion
  /// visited every transmitting lane, so walked_ is the whole rank order;
  /// one that stopped at exhaustion leaves nothing to grant.
  void backfill(fabric::PortHeadroom& headroom,
                fabric::Allocation& alloc) const;

  template <class Self, class IO>
  static void fields(Self& s, IO& io) {
    PriorityUpgrade::fields(s.upgrade_, io);
    // The plain variants never enter fault fallback and store no flag.
    if (s.deadline_aware()) io.u64(s.seen_degraded_);
  }

  FvdfVariant variant_;
  PriorityUpgrade upgrade_;

  // --- memo, valid for one tracker session ---
  struct CachedCoflow {
    const fabric::Coflow* coflow = nullptr;  ///< set while valid
    common::Seconds gamma = 0;  ///< effective Γ backing the rank key
    common::Seconds arrival = 0;
    common::Seconds horizon = fabric::kNoDeadline;
    std::uint8_t band = 2;
    bool valid = false;
    bool has_xmit = false;  ///< any non-beta lane (member of xmit_[band])
    bool counted = false;   ///< contributes to deadline_resident_
    std::vector<Lane> lanes;
  };
  sched::RoundFlows flows_;
  std::vector<CachedCoflow> cache_;  ///< by dense coflow id
  /// Rank order of the coflows with at least one transmitting lane, per
  /// band, each ordered (primary, arrival, id); walking bands 0..3 yields
  /// the unique (band, primary, arrival, id) order. The disposal walk stops
  /// at port exhaustion, so its cost is O(coflows that can still receive
  /// bandwidth), not O(resident coflows). Beta-only coflows never touch
  /// headroom, so leaving them out changes no grant.
  sched::RankIndex xmit_[kNumBands];
  /// The transmitting lanes the round's disposal walk visited, in visit
  /// order: the backfill pass replays this list instead of walking the
  /// indexes again. Reused across rounds.
  std::vector<const Lane*> walked_;
  /// Persistent per-flow beta switches, mirrored from the cached lanes and
  /// bulk-installed into each round's Allocation (set_compress_all). Spares
  /// the O(compressing flows) per-round set_compress loop.
  std::vector<unsigned char> beta_;  ///< by dense flow id
  /// Resident coflows carrying a finite deadline; band-0 promotion exists
  /// only while this is nonzero. Always 0 for the plain variants.
  std::size_t deadline_resident_ = 0;
  bool need_global_rekey_ = false;
  /// DEADLINE-FVDF only, sticky: the fabric has been degraded at some
  /// scheduling round of this run, and the scheduler is in fault fallback
  /// (plain FVDF order for everyone) from that round onward. Never set on a
  /// healthy run, so every healthy-fabric baseline is untouched.
  /// Checkpointed: fallback must survive a crash-restore into a
  /// currently-healthy window.
  bool seen_degraded_ = false;
  using HorizonEntry = std::pair<common::Seconds, fabric::CoflowId>;
  /// Lazy min-heap of (horizon, coflow): popped and refreshed when the
  /// horizon falls within one slice of now. Over-popping is safe — classify
  /// is authoritative — and refresh_coflow re-arms the next horizon, so a
  /// coflow is refreshed at most once per round (horizon_round_ stamps).
  /// Always empty for the plain variants.
  std::priority_queue<HorizonEntry, std::vector<HorizonEntry>,
                      std::greater<>>
      horizon_heap_;
  RoundStamps horizon_round_;
  std::vector<fabric::CoflowId> horizon_due_;  ///< scratch for the pop loop
  /// Scratch: due horizons of coflows this round already refreshed, pushed
  /// back for the next round.
  std::vector<HorizonEntry> horizon_kept_;
};

}  // namespace swallow::core
