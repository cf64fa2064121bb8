// Fastest-Volume-Disposal-First (the paper's Pseudocode 2): the per-flow
// primitives — volume disposal (Eq. 1/2) and expected FCT (Eq. 7). The
// scheduler (online.hpp) folds them into Γ_C (Eq. 8), ranks coflows, assigns
// r = f.V / Γ_C with work-conserving backfill, and adds the priority-class
// starvation protection (Pseudocode 3).
#pragma once

#include "core/compression_strategy.hpp"
#include "sched/scheduler.hpp"

namespace swallow::core {

/// Eq. 1: volume disposed by one compression slice.
common::Bytes delta_c(const codec::CodecModel& codec, common::Seconds slice,
                      double cpu_headroom);

/// Eq. 2: volume disposed by one transmission slice at bandwidth B.
common::Bytes delta_t(common::Bps bandwidth, common::Seconds slice);

/// Eq. 7: expected FCT assuming the worst case that compression is disabled
/// after the current slice. `beta` is the compression decision for the
/// coming slice.
common::Seconds expected_fct(const fabric::Flow& flow, bool beta,
                             const codec::CodecModel& codec,
                             double cpu_headroom, common::Bps bandwidth,
                             common::Seconds slice);

/// The inputs Eq. 3 / Eq. 7 read for one flow, detached from SchedContext
/// so a scheduler can evaluate single flows — and the FVDF-NC ablation can
/// null out the codec — without copying a context.
struct EvalEnv {
  const fabric::Fabric* fabric = nullptr;
  const cpu::CpuProvider* cpu = nullptr;
  const codec::CodecModel* codec = nullptr;  ///< null disables compression
  common::Seconds now = 0;
  common::Seconds slice = common::kDefaultSlice;
};

inline EvalEnv eval_env(const sched::SchedContext& ctx) {
  return EvalEnv{ctx.fabric, ctx.cpu, ctx.codec, ctx.now, ctx.slice};
}

struct FlowEval {
  bool beta = false;        ///< compression decision for the coming slice
  common::Seconds fct = 0;  ///< Eq. 7 (+inf on a failed link)
};

/// One flow's compression decision and expected FCT — TimeCalculation's
/// per-flow step (Pseudocode 2 lines 12-23). This is *the* Γ kernel: every
/// FVDF-family refresh and the test-only reference scheduler call it, and
/// it is deliberately out-of-line (noinline) so all callers share one
/// instantiation — identical code, identical FP contraction, identical
/// bits. Inlining it into different loops would let the compiler fuse
/// multiply-adds differently per call site and break byte identity.
/// `force_compression` bypasses the Eq. 3 gate (ablation: compress blindly
/// whenever the payload is compressible and raw bytes remain).
FlowEval evaluate_flow(const EvalEnv& env, const fabric::Flow& f,
                       bool force_compression);

/// Cold trace emitters (category "fvdf") for a coflow a scheduler just
/// re-evaluated: one flow's β decision with its Eq. 7 FCT, and the
/// coflow's Γ_C with its priority class and rank key. Out of line, so the
/// refresh loops stay tight when no sink is attached.
void trace_beta_decision(obs::Sink* sink, common::Seconds now,
                         const fabric::Flow& f, bool beta,
                         common::Seconds fct);
void trace_coflow_estimate(obs::Sink* sink, common::Seconds now,
                           const fabric::Coflow& c, common::Seconds gamma,
                           double key);

}  // namespace swallow::core
