// Deterministic, seeded fabric degradation: the schedule of link failures,
// bandwidth brownouts and capacity flapping the simulation engine replays
// against a Fabric's port multipliers.
//
// Real datacenter fabrics do not hold the paper's constant-B assumption:
// links fail and recover, ECMP imbalance and in-network congestion brown a
// port out to a fraction of nominal, and misbehaving optics flap. This
// layer models all three as *episodes* attached to a port's NIC (both
// directions, the link between the machine and the switch):
//
//   brownout  — multiplier drops to a fraction in [floor, ceiling] for the
//               episode's duration, then recovers to 1.
//   failure   — multiplier is 0 (flows over the port stall) until the
//               recovery instant.
//   flap      — multiplier alternates between the brownout fraction and 1
//               every flap_half_period during the episode.
//
// Episode existence, kind, offset, severity and duration are pure functions
// of (seed, port, epoch): time is split into fixed epochs and each
// (port, epoch) pair hashes into an independent xoshiro stream that decides
// everything about that epoch's episode. Queries are therefore
// order-independent and runs are bit-reproducible for a given seed,
// regardless of how the engine interleaves them.
//
// Each port keeps a window of the epochs it has already generated, holding
// only the epochs that start an episode. Queries walk that window instead
// of regenerating every (port, epoch) stream, so a forward walk generates
// each epoch once; the window is a cache, never part of the answer.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "fabric/fabric.hpp"

namespace swallow::fabric {

enum class DegradationKind : std::uint8_t {
  kBrownout = 0,
  kFailure = 1,
  kFlap = 2,
};

/// Knobs of the degradation model (SimConfig::degradation). rate = 0 (the
/// default) disables the layer entirely: the engine takes the historical
/// static-fabric path, byte-identical to a build without this feature.
struct DegradationConfig {
  /// Probability that an episode starts on a given port in a given epoch.
  double rate = 0.0;
  /// Root of every generation decision (per (seed, port, epoch)).
  std::uint64_t seed = 1;
  /// Generation granularity: at most one episode starts per port per epoch.
  common::Seconds epoch = 1.0;
  /// Episode duration range (uniform; clamped so an episode and its
  /// recovery fit the scan window).
  common::Seconds min_duration = 0.2;
  common::Seconds max_duration = 2.0;
  /// Kind split: failures, then flaps, remainder brownouts.
  double failure_fraction = 0.25;
  double flap_fraction = 0.15;
  /// Brownout multiplier range (fraction of nominal capacity left).
  double brownout_floor = 0.1;
  double brownout_ceiling = 0.7;
  /// Flap toggle interval (severity <-> healthy) within a flap episode.
  common::Seconds flap_half_period = 0.1;

  bool enabled() const { return rate > 0.0; }
};

/// One degradation episode on a port: [start, end) at `multiplier` (flaps
/// alternate between `multiplier` and 1 every flap_half_period).
struct DegradationEpisode {
  common::Seconds start = 0;
  common::Seconds end = 0;
  double multiplier = 1.0;
  DegradationKind kind = DegradationKind::kBrownout;

  bool operator==(const DegradationEpisode&) const = default;
};

class DegradationSchedule {
 public:
  /// Validates the config (throws std::invalid_argument on out-of-range
  /// rates/fractions/durations) and binds it to a fabric size.
  DegradationSchedule(DegradationConfig config, std::size_t num_ports);

  bool enabled() const { return config_.enabled(); }
  const DegradationConfig& config() const { return config_; }
  std::size_t num_ports() const { return num_ports_; }

  // The queries below are not const: they move the port windows. Their
  // answers depend on the arguments alone, never on earlier queries.

  /// Effective multiplier of port `p` at time `t`: the min over all
  /// episodes active at `t` (overlapping episodes compound to the worst).
  double multiplier_at(PortId p, common::Seconds t);

  /// First instant strictly after `t` at which any port's multiplier can
  /// change (episode start, flap toggle, or recovery). +infinity when the
  /// schedule is disabled or nothing fires within the scan horizon.
  common::Seconds next_change_after(common::Seconds t);

  /// Episodes of port `p` that overlap [t0, t1), in start order. Exposed
  /// for tests and the degradation bench's reporting.
  std::vector<DegradationEpisode> episodes(PortId p, common::Seconds t0,
                                           common::Seconds t1);

  // ---- introspection (tests) ----
  /// Episodes currently held across all port windows.
  std::size_t cached_cells() const;

 private:
  /// An epoch that starts an episode.
  struct Cell {
    std::int64_t epoch = 0;
    DegradationEpisode episode;
  };
  /// The epochs [lo, hi) of one port generated so far; `cells` holds the
  /// non-empty ones in epoch order.
  struct Window {
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    std::vector<Cell> cells;
  };

  std::optional<DegradationEpisode> episode_in_epoch(PortId p,
                                                     std::int64_t e) const;
  /// Port p's window starting at epoch max(lo, 0): cells below it are
  /// dropped, and a start below the window (or past its end) restarts it
  /// there.
  Window& window_from(PortId p, std::int64_t lo);
  /// Generates the window's next epoch.
  void grow(PortId p, Window& w);
  common::Seconds next_change_for_port(PortId p, common::Seconds t);

  DegradationConfig config_;
  std::size_t num_ports_ = 0;
  /// Epochs an episode can reach back from (ceil(max_duration / epoch)).
  std::int64_t lookback_epochs_ = 0;
  /// One per port; empty when the schedule is disabled.
  std::vector<Window> windows_;
};

}  // namespace swallow::fabric
