// Deadline-aware FVDF (DESIGN.md section 12).
//
// DCoflow-style feasibility pruning layered on the FVDF core: coflows are
// ranked into four bands walked in order —
//
//   band 0  starvation-promoted best-effort coflows (priority class grew
//           past kStarvationPriority while the deadline band monopolized
//           the fabric), FVDF order;
//   band 1  deadline coflows whose Eq. 3/7/8 completion estimate (including
//           compression CPU cost and current per-port capacity multipliers)
//           still fits the deadline — EDF order (earliest deadline first);
//   band 2  best-effort and expired-deadline coflows, plain FVDF order
//           (adjusted Gamma, arrival, id);
//   band 3  deferred deadline coflows: infeasible on the fabric as it
//           stands, parked on leftovers until capacity recovers or the
//           deadline expires — EDF order.
//
// Inside the feasibility check the scheduler walks its own mini shedding
// ladder: a deadline coflow whose compressed Gamma misses the deadline but
// whose *uncompressed* Gamma fits is degraded for the round (compression's
// CPU bill is priced out by the slack; beta forced 0), and only then
// deferred.
//
// Fault fallback: from the first scheduling round at which any link is
// degraded, the whole band ladder collapses — every coflow takes the plain
// FVDF rank in band 2 for the rest of the run. On a fault-prone fabric the
// deadline machinery is counterproductive (pacing stretches feasible
// coflows across slack the next fault erases; EDF lets an early-deadline
// elephant starve cheaper deadlines SJF would meet; band-3 parking starves
// transiently infeasible coflows blind FVDF happily finishes), while
// admission, expiry shedding and capacity-change re-pricing stay active
// and only remove already-missed volume FVDF would keep transmitting. A
// healthy run never enters fallback. With zero finite deadlines every
// coflow lands in band 2 with
// FVDF's exact rank key and the allocation is bit-for-bit identical to
// FvdfScheduler — the zero-deadline A/B in CI enforces this.
//
// One scheduling path, mirroring FvdfScheduler: per-band rank indexes over
// memoized Γ, driven by the DirtyTracker (every coflow dirty when the
// context has none), plus a deadline horizon heap that wakes a coflow for
// reclassification when time alone (not an event) is about to flip its
// band — band 1 -> 3 when the shrinking slack crosses Gamma, band 3 -> 2 at
// expiry. test_slo checks the allocations against a naive per-round
// recompute that lives in tests/.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/fvdf.hpp"
#include "core/online.hpp"
#include "sched/dirty.hpp"
#include "sched/rank_index.hpp"
#include "sched/scheduler.hpp"

namespace swallow::sched {

/// A deadline coflow is feasible while Gamma <= kSlackFactor * slack.
inline constexpr double kSlackFactor = 1.0;
/// Priority class at which a starved band-2 coflow is promoted ahead of the
/// deadline band: kPriorityLogBase^12, twelve consecutive coflow events
/// with zero service.
inline constexpr double kStarvationPriority = 8.916100448256;

/// Runs FVDF's full configuration underneath: Upgrade, the Eq. 3
/// compression gate and backfill all on.
class DeadlineFvdfScheduler final : public Scheduler {
 public:
  std::string name() const override;
  fabric::Allocation schedule(const SchedContext& ctx) override;

  /// Starvation stamps plus the sticky brownout flag, mirroring
  /// FvdfScheduler otherwise: every band index, horizon heap and Γ memo is
  /// session-keyed derived state, rebuilt from the restored coflow/flow
  /// pools on the first post-restore round.
  void save_state(recovery::StateWriter& w) const override;
  void restore_state(recovery::StateReader& r) override;

 private:
  static constexpr int kNumBands = 4;

  template <class Self, class IO>
  static void fields(Self& s, IO& io) {
    core::PriorityUpgrade::fields(s.upgrade_, io);
    io.u64(s.seen_degraded_);
  }

  /// One coflow's slot on the band ladder for the current instant.
  struct SloRank {
    std::uint8_t band = 2;
    double primary = 0;          ///< deadline (bands 1/3) or adjusted Gamma
    common::Seconds gamma = 0;   ///< effective Gamma (uncompressed if degraded)
    bool degrade = false;        ///< beta forced 0 this round
    /// Earliest instant at which time alone can change this
    /// classification; kNoDeadline when only events can.
    common::Seconds horizon = fabric::kNoDeadline;
  };
  /// `has_beta` short-circuits the uncompressed re-evaluation when no flow
  /// chose compression (Gamma_nc would equal Gamma bit-for-bit anyway).
  template <typename GammaNcFn>
  SloRank classify(const fabric::Coflow& c, common::Seconds gamma_beta,
                   bool has_beta, common::Seconds now,
                   GammaNcFn&& gamma_nc) const;
  bool starved(const fabric::Coflow& c) const;

  void refresh_coflow(const SchedContext& ctx, const core::EvalEnv& env,
                      const core::EvalEnv& nc_env, const fabric::Coflow& c);
  /// Re-derives the rank key (and the band-0/2 promotion) from cached
  /// Gamma; bands 1/3 key on the deadline, so priority-only dirt is a no-op.
  void rekey_coflow(const fabric::Coflow& c);
  /// Re-keys every cached coflow. Runs when the resident-deadline count
  /// crosses zero: band-0 eligibility is global, so every band-0/2 key can
  /// move. Gammas are untouched.
  void rekey_all();
  void drop_coflow(fabric::CoflowId id);
  void install(const fabric::Coflow& c);

  core::PriorityUpgrade upgrade_{"dfvdf", "dfvdf.priority_upgrades"};

  // --- memo, valid for one tracker session ---
  using Lane = core::FvdfLane;
  struct CachedCoflow {
    const fabric::Coflow* coflow = nullptr;  ///< set while valid
    common::Seconds gamma = 0;  ///< effective Gamma backing the rank key
    common::Seconds arrival = 0;
    common::Seconds horizon = fabric::kNoDeadline;
    std::uint8_t band = 2;
    bool valid = false;
    bool has_xmit = false;
    bool counted = false;  ///< contributes to deadline_resident_
    std::vector<Lane> lanes;
  };
  RoundFlows flows_;
  std::vector<CachedCoflow> cache_;  ///< by dense coflow id
  /// Transmitting coflows per band, each ordered (primary, arrival, id);
  /// walking bands 0..3 yields the unique (band, primary, arrival, id)
  /// order.
  RankIndex xmit_[kNumBands];
  /// Transmitting lanes in the order the round's disposal walk visited
  /// them; the backfill pass replays this list. Reused across rounds.
  std::vector<const Lane*> walked_;
  std::vector<unsigned char> beta_;  ///< by dense flow id
  /// Resident coflows carrying a finite deadline; band-0 promotion exists
  /// only while this is nonzero.
  std::size_t deadline_resident_ = 0;
  /// Whether any resident coflow carries a finite deadline, as of the
  /// current classification point (deadline_resident_ > 0).
  bool any_deadline_ = false;
  bool need_global_rekey_ = false;
  /// Sticky: the fabric has been degraded at some scheduling round of this
  /// run, and the scheduler is in fault fallback (plain FVDF order for
  /// everyone) from that round onward. Never set on a healthy run, so every
  /// healthy-fabric baseline is untouched. Checkpointed: fallback must
  /// survive a crash-restore into a currently-healthy window.
  bool seen_degraded_ = false;
  using HorizonEntry = std::pair<common::Seconds, fabric::CoflowId>;
  /// Lazy min-heap of (horizon, coflow): popped and refreshed when the
  /// horizon falls within one slice of now. Over-popping is safe — classify
  /// is authoritative — and refresh_coflow re-arms the next horizon, so a
  /// coflow is refreshed at most once per round (horizon_round_ stamps).
  std::priority_queue<HorizonEntry, std::vector<HorizonEntry>,
                      std::greater<>>
      horizon_heap_;
  core::RoundStamps horizon_round_;
  std::vector<fabric::CoflowId> horizon_due_;  ///< scratch for the pop loop
  /// Scratch: due horizons of coflows this round already refreshed, pushed
  /// back for the next round.
  std::vector<HorizonEntry> horizon_kept_;
};

/// Factory matching make_fvdf's shape. Recognized names: "DEADLINE-FVDF"
/// and the short alias "DFVDF". Throws std::out_of_range otherwise.
std::unique_ptr<Scheduler> make_deadline_fvdf(const std::string& name);

}  // namespace swallow::sched
