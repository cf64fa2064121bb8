// The slotted fluid simulator.
//
// Time advances in slices of length `slice`. At each slice boundary the
// engine activates newly arrived coflows and, if any event happened since
// the last decision (arrival, flow completion, compression finished), asks
// the scheduler for a fresh Allocation. Within a slice each flow disposes
// volume per the paper's model: a flow with beta = 1 spends the slice
// compressing (raw -> compressed at R_eff = R * cpu_headroom, volume shrinks
// by the (1 - xi) factor); otherwise it transmits at its allocated rate,
// draining compressed bytes before raw bytes. Completion timestamps are
// computed exactly inside the slice; rescheduling still waits for the next
// boundary, which is precisely the staleness the paper's Fig. 7(c) studies.
#pragma once

#include <limits>

#include "codec/codec_model.hpp"
#include "core/admission.hpp"
#include "cpu/cpu_model.hpp"
#include "fabric/degradation.hpp"
#include "fabric/fabric.hpp"
#include "recovery/recovery.hpp"
#include "sched/scheduler.hpp"
#include "sim/metrics.hpp"
#include "workload/trace.hpp"

namespace swallow::obs {
class Tracer;
}

namespace swallow::sim {

/// How run_simulation advances time between preemption points.
enum class EngineMode {
  /// Fast-forward: between preemption points (arrival, flow/compression
  /// completion, capacity change, deadline expiry, CPU-headroom change,
  /// utilization-sample boundary, the max_time guard) rates and beta are
  /// constant, so the engine computes the earliest next event analytically
  /// and applies the intervening slices' progress in one closed-form bulk
  /// update. Metrics are byte-identical to kSliceStepped: both modes
  /// evaluate the same canonical per-segment formulas, the event mode just
  /// skips the interior slice boundaries where nothing can change (see
  /// DESIGN.md section 10).
  kEventDriven = 0,
  /// The historical reference stepper: one slice at a time. Kept for A/B
  /// parity testing and as a bisection aid.
  kSliceStepped = 1,
};

struct SimConfig {
  common::Seconds slice = common::kDefaultSlice;
  /// Time-advance strategy; output is byte-identical across modes.
  EngineMode engine_mode = EngineMode::kEventDriven;
  /// Codec model handed to the scheduler; nullptr disables compression.
  const codec::CodecModel* codec = nullptr;
  /// Abort the run if simulated time passes this point (safety net).
  common::Seconds max_time = 1e7;
  /// Sample fabric-wide egress utilization every this many seconds into
  /// Metrics::utilization (0 disables sampling).
  common::Seconds utilization_sample_period = 0;
  /// Charge the receiver for decompressing the compressed wire bytes (at
  /// the codec model's decompression speed, serialized after the last
  /// byte lands — a conservative, non-pipelined model). The paper omits
  /// this cost arguing decompression is much faster than compression;
  /// bench_ext_decompression quantifies how much that omission matters.
  bool model_decompression = false;
  /// Round completion timestamps up to the next slice boundary — the
  /// paper's slotted accounting, where a flow's bandwidth is held for the
  /// whole slice it finishes in ("waste of time slices", Section VI-A1).
  /// Fig. 7(c) is reproduced with this on; default off for exact metrics.
  bool quantize_completions = false;
  /// Dynamic fabric degradation (link failures, brownouts, flapping).
  /// Disabled by default (rate = 0): the engine then never copies or
  /// mutates port capacities and its output is byte-identical to the
  /// static-fabric path. When enabled, capacity-change instants become
  /// first-class preemption points: at the first slice boundary at or past
  /// each change the engine re-applies the schedule's port multipliers,
  /// re-runs the scheduler (re-evaluating every Eq. 3 compression gate and
  /// the Gamma ranks against *current* capacities) and re-allocates rates.
  /// Capacity changes count as coflow events, so Pseudocode 3's priority
  /// escalation ages coflows pinned behind a failed link.
  fabric::DegradationConfig degradation;
  /// Deadline/SLO admission control and overload shedding (DESIGN.md
  /// section 12). Disabled by default: the arrival path is then
  /// byte-identical to the pre-SLO engine — every coflow is admitted,
  /// nothing is shed, and Metrics::slo stays all-zero. When enabled, each
  /// arriving deadline coflow is priced (isolation bounds on the live
  /// fabric) and admitted / degraded-to-uncompressed / deferred / rejected;
  /// expired deadline coflows are shed at the first slice boundary past
  /// their deadline, which becomes a first-class preemption point.
  core::AdmissionConfig admission;
  /// Crash-fault tolerance (DESIGN.md section 13). Disabled by default
  /// (empty dir): the engine then touches no files and runs byte-identical
  /// to pre-recovery builds. With a dir set, every discrete event is
  /// appended to a write-ahead journal before it is applied, and every
  /// `checkpoint_every` scheduling rounds the engine publishes a
  /// checksummed snapshot at a post-schedule fold point — the restored
  /// run's final Metrics records are byte-identical to the uninterrupted
  /// run's (test_recovery + the CI crash-recovery cmp gate enforce this).
  recovery::RecoveryOptions recovery;
  /// Observability sink (obs::Tracer or custom). When set, the engine
  /// emits arrival/completion/preemption/scheduling-round trace events and
  /// wall-clock profiles of the schedule/advance phases, and the scheduler
  /// sees it via SchedContext::sink. Null (the default) keeps the hot path
  /// untouched apart from one predictable branch per site.
  obs::Tracer* sink = nullptr;
};

/// Thrown when a scheduler makes no progress or violates capacities.
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

Metrics run_simulation(const workload::Trace& trace,
                       const fabric::Fabric& fabric,
                       const cpu::CpuProvider& cpu, sched::Scheduler& sched,
                       const SimConfig& config = {});

}  // namespace swallow::sim
