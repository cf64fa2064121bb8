#include "fabric/degradation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/rng.hpp"

namespace swallow::fabric {

namespace {

constexpr common::Seconds kInfinity =
    std::numeric_limits<common::Seconds>::infinity();
/// Epochs scanned past `t` before next_change_after gives up. At any
/// practical rate the expected scan is 1/rate epochs; the cap only guards
/// against pathological configs (rate ~ 1e-7) spinning forever.
constexpr std::int64_t kMaxScanEpochs = 200000;

/// splitmix64-style avalanche of (seed, port, epoch) into one 64-bit
/// stream seed — the same mixing the runtime's FaultInjector uses, so both
/// adversity layers share the determinism argument.
std::uint64_t mix64(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = seed;
  x ^= a * 0x9e3779b97f4a7c15ULL;
  x ^= b * 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

DegradationSchedule::DegradationSchedule(DegradationConfig config,
                                         std::size_t num_ports)
    : config_(config), num_ports_(num_ports) {
  if (num_ports == 0)
    throw std::invalid_argument("DegradationSchedule: zero ports");
  if (!(config.rate >= 0.0 && config.rate <= 1.0))
    throw std::invalid_argument("DegradationSchedule: rate outside [0, 1]");
  if (!config.enabled()) return;  // rest of the knobs are unused
  if (!(config.epoch > 0) || !std::isfinite(config.epoch))
    throw std::invalid_argument("DegradationSchedule: non-positive epoch");
  if (!(config.min_duration > 0) || !std::isfinite(config.max_duration) ||
      config.min_duration > config.max_duration)
    throw std::invalid_argument("DegradationSchedule: bad duration range");
  if (config.failure_fraction < 0 || config.flap_fraction < 0 ||
      config.failure_fraction + config.flap_fraction > 1.0)
    throw std::invalid_argument("DegradationSchedule: bad kind fractions");
  if (!(config.brownout_floor >= 0.0 &&
        config.brownout_floor <= config.brownout_ceiling &&
        config.brownout_ceiling <= 1.0))
    throw std::invalid_argument("DegradationSchedule: bad brownout range");
  if (!(config.flap_half_period > 0))
    throw std::invalid_argument(
        "DegradationSchedule: non-positive flap_half_period");
  lookback_epochs_ = static_cast<std::int64_t>(
      std::ceil(config.max_duration / config.epoch));
  windows_.resize(num_ports);
}

std::optional<DegradationEpisode> DegradationSchedule::episode_in_epoch(
    PortId p, std::int64_t e) const {
  common::Rng rng(mix64(config_.seed, std::uint64_t(p) + 1,
                        static_cast<std::uint64_t>(e) + 1));
  if (!rng.bernoulli(config_.rate)) return std::nullopt;

  DegradationEpisode ep;
  const double kind_roll = rng.uniform();
  if (kind_roll < config_.failure_fraction) {
    ep.kind = DegradationKind::kFailure;
  } else if (kind_roll < config_.failure_fraction + config_.flap_fraction) {
    ep.kind = DegradationKind::kFlap;
  } else {
    ep.kind = DegradationKind::kBrownout;
  }
  ep.start = static_cast<double>(e) * config_.epoch +
             rng.uniform(0.0, config_.epoch);
  ep.end = ep.start +
           rng.uniform(config_.min_duration, config_.max_duration);
  ep.multiplier =
      ep.kind == DegradationKind::kFailure
          ? 0.0
          : rng.uniform(config_.brownout_floor, config_.brownout_ceiling);
  return ep;
}

DegradationSchedule::Window& DegradationSchedule::window_from(
    PortId p, std::int64_t lo) {
  lo = std::max<std::int64_t>(lo, 0);  // time starts at 0
  Window& w = windows_[p];
  if (lo < w.lo || lo > w.hi) {
    w.cells.clear();
    w.hi = lo;
  } else {
    std::erase_if(w.cells, [lo](const Cell& c) { return c.epoch < lo; });
  }
  w.lo = lo;
  return w;
}

void DegradationSchedule::grow(PortId p, Window& w) {
  if (const auto ep = episode_in_epoch(p, w.hi))
    w.cells.push_back({w.hi, *ep});
  ++w.hi;
}

double DegradationSchedule::multiplier_at(PortId p, common::Seconds t) {
  if (!enabled()) return 1.0;
  if (p >= num_ports_)
    throw std::out_of_range("DegradationSchedule: port out of range");
  const auto e_hi = static_cast<std::int64_t>(std::floor(t / config_.epoch));
  Window& w = window_from(p, e_hi - lookback_epochs_);
  while (w.hi <= e_hi) grow(p, w);
  double multiplier = 1.0;
  for (const Cell& cell : w.cells) {
    if (cell.epoch > e_hi) break;
    const DegradationEpisode& ep = cell.episode;
    if (t < ep.start || t >= ep.end) continue;
    double m = ep.multiplier;
    if (ep.kind == DegradationKind::kFlap) {
      const auto phase = static_cast<std::int64_t>(
          std::floor((t - ep.start) / config_.flap_half_period));
      if (phase % 2 == 1) m = 1.0;  // healthy half of the flap cycle
    }
    multiplier = std::min(multiplier, m);
  }
  return multiplier;
}

common::Seconds DegradationSchedule::next_change_for_port(PortId p,
                                                          common::Seconds t) {
  common::Seconds best = kInfinity;
  const auto e_start = std::max<std::int64_t>(
      0, static_cast<std::int64_t>(std::floor(t / config_.epoch)) -
             lookback_epochs_);
  const std::int64_t e_last = e_start + kMaxScanEpochs;
  Window& w = window_from(p, e_start);
  // Episodes in epoch e start at >= e * epoch: once that lower bound
  // passes the best candidate, later epochs cannot improve it. Empty
  // epochs change no candidate, so testing the bound only at the epochs
  // that hold an episode (and at each epoch generated) stops the walk
  // with the same answer as testing it at every epoch.
  const auto done = [&](std::int64_t e) {
    return e > e_last || static_cast<double>(e) * config_.epoch >= best;
  };
  for (std::size_t i = 0;; ++i) {
    while (i == w.cells.size()) {
      if (done(w.hi)) return best;
      grow(p, w);
    }
    if (done(w.cells[i].epoch)) return best;
    const DegradationEpisode& ep = w.cells[i].episode;
    if (ep.start > t) best = std::min(best, ep.start);
    if (ep.end > t) best = std::min(best, ep.end);
    if (ep.kind == DegradationKind::kFlap && t < ep.end) {
      // First toggle instant strictly after t inside [start, end).
      const double since = std::max(0.0, t - ep.start);
      const auto k = static_cast<std::int64_t>(
                         std::floor(since / config_.flap_half_period)) +
                     1;
      const common::Seconds toggle =
          ep.start + static_cast<double>(k) * config_.flap_half_period;
      if (toggle > t && toggle < ep.end) best = std::min(best, toggle);
    }
  }
}

common::Seconds DegradationSchedule::next_change_after(common::Seconds t) {
  if (!enabled()) return kInfinity;
  common::Seconds best = kInfinity;
  for (PortId p = 0; p < num_ports_; ++p)
    best = std::min(best, next_change_for_port(p, t));
  return best;
}

std::vector<DegradationEpisode> DegradationSchedule::episodes(
    PortId p, common::Seconds t0, common::Seconds t1) {
  std::vector<DegradationEpisode> out;
  if (!enabled() || t1 <= t0) return out;
  if (p >= num_ports_)
    throw std::out_of_range("DegradationSchedule: port out of range");
  const auto e_lo = static_cast<std::int64_t>(std::floor(t0 / config_.epoch)) -
                    lookback_epochs_;
  const auto e_hi = static_cast<std::int64_t>(std::floor(t1 / config_.epoch));
  Window& w = window_from(p, e_lo);
  while (w.hi <= e_hi) grow(p, w);
  for (const Cell& cell : w.cells) {
    if (cell.epoch > e_hi) break;
    const DegradationEpisode& ep = cell.episode;
    if (ep.start < t1 && ep.end > t0) out.push_back(ep);
  }
  std::sort(out.begin(), out.end(),
            [](const DegradationEpisode& a, const DegradationEpisode& b) {
              return a.start < b.start;
            });
  return out;
}

std::size_t DegradationSchedule::cached_cells() const {
  std::size_t n = 0;
  for (const Window& w : windows_) n += w.cells.size();
  return n;
}

}  // namespace swallow::fabric
