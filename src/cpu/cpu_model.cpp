#include "cpu/cpu_model.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace swallow::cpu {

common::Seconds CpuProvider::headroom_constant_until(NodeId,
                                                     common::Seconds t) const {
  // No promise: unknown providers may vary arbitrarily, so the engine must
  // resample headroom at every slice (the historical behavior).
  return t;
}

ConstantCpu::ConstantCpu(double headroom) : headroom_(headroom) {
  if (headroom < 0.0 || headroom > 1.0)
    throw std::invalid_argument("ConstantCpu: headroom out of [0,1]");
}

double ConstantCpu::headroom(NodeId, common::Seconds) const {
  return headroom_;
}

common::Seconds ConstantCpu::headroom_constant_until(NodeId,
                                                     common::Seconds) const {
  return std::numeric_limits<common::Seconds>::infinity();
}

WindowedCpu::WindowedCpu(std::vector<Window> windows, double idle_headroom,
                         double busy_headroom)
    : windows_(std::move(windows)),
      idle_headroom_(idle_headroom),
      busy_headroom_(busy_headroom) {
  for (const auto& w : windows_)
    if (w.end <= w.begin)
      throw std::invalid_argument("WindowedCpu: empty window");
}

double WindowedCpu::headroom(NodeId, common::Seconds t) const {
  for (const auto& w : windows_)
    if (t >= w.begin && t < w.end) return idle_headroom_;
  return busy_headroom_;
}

common::Seconds WindowedCpu::headroom_constant_until(NodeId,
                                                     common::Seconds t) const {
  // Inside a window headroom holds until the window ends; outside it holds
  // until the earliest window begin after t (windows may be unsorted and
  // overlap, so scan them all).
  common::Seconds until = std::numeric_limits<common::Seconds>::infinity();
  for (const auto& w : windows_) {
    if (t >= w.begin && t < w.end)
      until = std::min(until, w.end);
    else if (w.begin > t)
      until = std::min(until, w.begin);
  }
  return until;
}

BurstyCpu::BurstyCpu(const Config& config) : config_(config) {
  if (config.nodes == 0) throw std::invalid_argument("BurstyCpu: zero nodes");
  if (config.idle_fraction < 0.0 || config.idle_fraction > 1.0)
    throw std::invalid_argument("BurstyCpu: idle_fraction out of [0,1]");
  if (config.mean_burst <= 0 || config.horizon <= 0)
    throw std::invalid_argument("BurstyCpu: non-positive durations");

  // Mean idle burst = 2 * idle_fraction * mean_burst (and complementary for
  // busy) so the long-run idle share matches idle_fraction.
  const double mean_idle =
      std::max(1e-3, 2.0 * config.idle_fraction * config.mean_burst);
  const double mean_busy =
      std::max(1e-3, 2.0 * (1.0 - config.idle_fraction) * config.mean_burst);

  common::Rng rng(config.seed);
  schedule_.resize(config.nodes);
  for (std::size_t node = 0; node < config.nodes; ++node) {
    auto& bursts = schedule_[node];
    common::Seconds t = 0;
    bool idle = rng.bernoulli(config.idle_fraction);
    while (t < config.horizon) {
      const double mean = idle ? mean_idle : mean_busy;
      t += rng.exponential(1.0 / mean);
      bursts.push_back({t, idle});
      idle = !idle;
    }
  }
}

const std::vector<BurstyCpu::Burst>& BurstyCpu::node_schedule(
    NodeId node) const {
  // Nodes beyond the precomputed set reuse schedules round-robin, so the
  // provider works for any fabric size.
  return schedule_[node % schedule_.size()];
}

double BurstyCpu::headroom(NodeId node, common::Seconds t) const {
  const auto& bursts = node_schedule(node);
  const auto it = std::lower_bound(
      bursts.begin(), bursts.end(), t,
      [](const Burst& b, common::Seconds when) { return b.end <= when; });
  // Past the horizon: steady-state expectation.
  if (it == bursts.end())
    return config_.idle_fraction * config_.idle_headroom +
           (1.0 - config_.idle_fraction) * config_.busy_headroom;
  return it->idle ? config_.idle_headroom : config_.busy_headroom;
}

common::Seconds BurstyCpu::headroom_constant_until(NodeId node,
                                                   common::Seconds t) const {
  const auto& bursts = node_schedule(node);
  const auto it = std::lower_bound(
      bursts.begin(), bursts.end(), t,
      [](const Burst& b, common::Seconds when) { return b.end <= when; });
  // Past the horizon headroom is the constant steady-state expectation.
  if (it == bursts.end())
    return std::numeric_limits<common::Seconds>::infinity();
  return it->end;
}

double BurstyCpu::measured_idle_fraction(NodeId node) const {
  const auto& bursts = node_schedule(node);
  common::Seconds idle_time = 0, prev = 0;
  for (const auto& b : bursts) {
    if (b.idle) idle_time += b.end - prev;
    prev = b.end;
  }
  return prev > 0 ? idle_time / prev : 0.0;
}

}  // namespace swallow::cpu
