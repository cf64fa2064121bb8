// CPU availability model.
//
// Swallow spends *idle* CPU cycles on compression (paper Section II-B2):
// the scheduler needs, per node and time, the fraction of CPU headroom
// available, which scales the effective compression speed R. Two providers:
// a constant one for closed-form tests, and a two-state (busy/idle burst)
// semi-Markov process reproducing the Fig. 2 phenomenology.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace swallow::cpu {

using NodeId = std::uint32_t;

/// Minimum headroom for the compression gate to open.
inline constexpr double kMinCompressionHeadroom = 0.05;

class CpuProvider {
 public:
  virtual ~CpuProvider() = default;
  /// CPU fraction available for compression on `node` at time `t`, in [0,1].
  virtual double headroom(NodeId node, common::Seconds t) const = 0;
  /// Paper Pseudocode 1's "CPU resources are enough" gate on a sampled
  /// headroom. A function of headroom alone, so a caller samples
  /// headroom() once and tests that.
  static bool can_compress(double headroom) {
    return headroom >= kMinCompressionHeadroom;
  }
  /// Promise to the event-driven engine: headroom(node, s) == headroom(node,
  /// t) for every s in [t, T) where T is the returned instant. Returning `t`
  /// (the conservative base default) promises nothing, which makes the
  /// engine re-evaluate headroom every slice — exactly the slice-stepped
  /// behavior. Providers with piecewise-constant schedules override this so
  /// the engine can fast-forward through constant-headroom stretches.
  virtual common::Seconds headroom_constant_until(NodeId node,
                                                  common::Seconds t) const;
};

/// Same headroom everywhere, always.
class ConstantCpu final : public CpuProvider {
 public:
  explicit ConstantCpu(double headroom);
  double headroom(NodeId node, common::Seconds t) const override;
  common::Seconds headroom_constant_until(NodeId node,
                                          common::Seconds t) const override;

 private:
  double headroom_;
};

/// Explicit idle windows shared by every node: headroom `idle_headroom`
/// inside any [begin, end) window, `busy_headroom` elsewhere. Used by the
/// paper's motivation example (CPU idle during 0-1 and 3-3.5).
class WindowedCpu final : public CpuProvider {
 public:
  struct Window {
    common::Seconds begin;
    common::Seconds end;
  };
  WindowedCpu(std::vector<Window> windows, double idle_headroom = 1.0,
              double busy_headroom = 0.0);
  double headroom(NodeId node, common::Seconds t) const override;
  common::Seconds headroom_constant_until(NodeId node,
                                          common::Seconds t) const override;

 private:
  std::vector<Window> windows_;
  double idle_headroom_;
  double busy_headroom_;
};

/// Alternating busy/idle bursts per node with exponential durations.
/// idle_fraction controls the long-run share of idle time; during busy
/// bursts headroom is `busy_headroom`, during idle bursts `idle_headroom`.
class BurstyCpu final : public CpuProvider {
 public:
  struct Config {
    std::size_t nodes = 1;
    double idle_fraction = 0.5;         ///< long-run idle share
    common::Seconds mean_burst = 5.0;   ///< mean burst length (either state)
    double busy_headroom = 0.05;
    double idle_headroom = 0.95;
    common::Seconds horizon = 4000.0;   ///< precomputed schedule length
    std::uint64_t seed = 1;
  };

  explicit BurstyCpu(const Config& config);
  double headroom(NodeId node, common::Seconds t) const override;
  common::Seconds headroom_constant_until(NodeId node,
                                          common::Seconds t) const override;

  /// Measured long-run idle fraction of one node's schedule (for tests).
  double measured_idle_fraction(NodeId node) const;

 private:
  struct Burst {
    common::Seconds end;
    bool idle;
  };
  Config config_;
  std::vector<std::vector<Burst>> schedule_;  // per node, sorted by end
  const std::vector<Burst>& node_schedule(NodeId node) const;
};

}  // namespace swallow::cpu
