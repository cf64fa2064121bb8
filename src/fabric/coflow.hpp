// Flow and coflow state for the fluid simulator.
//
// A flow carries three byte pools: raw_remaining (not yet compressed or
// sent), compressed_pending (compressed, awaiting the wire) and sent. The
// paper's "volume" V = d + D is raw_remaining + compressed_pending; a flow
// completes when its volume reaches zero (everything on the wire).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/units.hpp"
#include "fabric/fabric.hpp"

namespace swallow::fabric {

using FlowId = std::uint64_t;
using CoflowId = std::uint64_t;
using JobId = std::uint64_t;

/// Volumes below this many bytes count as zero (fluid-model epsilon).
inline constexpr common::Bytes kVolumeEpsilon = 1e-6;
inline constexpr common::Seconds kNeverCompleted = -1.0;
/// Absolute deadline of a best-effort coflow: never.
inline constexpr common::Seconds kNoDeadline =
    std::numeric_limits<common::Seconds>::infinity();

/// Where a coflow sits on the SLO shedding ladder (DESIGN.md section 12).
/// Best-effort coflows never leave kBestEffort; deadline coflows start at
/// kAdmitted and may be demoted by the admission gate (arrival) or the
/// deadline scheduler (mid-flight).
enum class SloClass : std::uint8_t {
  kBestEffort = 0,  ///< no deadline; served in FVDF order
  kAdmitted = 1,    ///< deadline feasible at admission
  kDegraded = 2,    ///< admitted with compression priced out (beta forced 0)
  kDeferred = 3,    ///< infeasible at arrival; served by leftovers until
                    ///< capacity recovers or the deadline expires
  kRejected = 4,    ///< refused at arrival or shed mid-flight; volume dropped
};

struct Flow {
  FlowId id = 0;
  CoflowId coflow = 0;
  PortId src = 0;
  PortId dst = 0;

  common::Bytes original_bytes = 0;      ///< size at arrival (uncompressed)
  common::Bytes raw_remaining = 0;       ///< paper's d
  common::Bytes compressed_pending = 0;  ///< paper's D
  common::Bytes sent = 0;                ///< bytes already on the wire
  common::Bytes sent_compressed = 0;     ///< wire bytes that need decoding

  common::Seconds arrival = 0;
  common::Seconds completion = kNeverCompleted;

  bool compressible = true;  ///< payload benefits from compression at all
  /// Per-flow compression ratio override; 0 = use the codec model's ratio.
  double compress_ratio = 0;

  /// The ratio this flow actually compresses at under `model_ratio`.
  double effective_ratio(double model_ratio) const {
    return compress_ratio > 0 ? compress_ratio : model_ratio;
  }

  /// Remaining volume V = d + D.
  common::Bytes volume() const { return raw_remaining + compressed_pending; }
  bool done() const { return volume() <= kVolumeEpsilon; }
  bool completed() const { return completion >= 0; }
};

struct Coflow {
  CoflowId id = 0;
  JobId job = 0;
  common::Seconds arrival = 0;
  common::Seconds completion = kNeverCompleted;
  /// Absolute wall-clock SLO; kNoDeadline (+inf) means best-effort.
  common::Seconds deadline = kNoDeadline;
  double priority = 1.0;  ///< paper's P, upgraded by 1.2x at each event
  SloClass slo = SloClass::kBestEffort;
  std::vector<FlowId> flows;

  bool completed() const { return completion >= 0; }
  bool has_deadline() const { return deadline < kNoDeadline; }
};

/// Varys' effective bottleneck Γ = max over ports of (remaining bytes of
/// `flows` crossing the port) / (the port's current capacity); ports at
/// capacity 0 carry no usable load and are skipped. `in_load`/`out_load`
/// are per-port scratch. Out of line (noinline) so every caller — SEBF, the
/// engine's isolation bound and the test-only reference — runs one
/// instantiation with identical FP contraction.
common::Seconds coflow_bottleneck_time(const std::vector<const Flow*>& flows,
                                       const Fabric& fabric,
                                       std::vector<common::Bytes>& in_load,
                                       std::vector<common::Bytes>& out_load);

}  // namespace swallow::fabric
