// Fastest-Volume-Disposal-First (the paper's Pseudocode 2): the per-flow
// step — Pseudocode 1's compression gate, volume disposal (Eqs. 1-3) and
// expected FCT (Eq. 7) — evaluated in one place, evaluate_flow. The
// scheduler (online.hpp) folds it into Γ_C (Eq. 8), ranks coflows, assigns
// r = f.V / Γ_C with work-conserving backfill, and adds the priority-class
// starvation protection (Pseudocode 3).
#pragma once

#include "sched/scheduler.hpp"

namespace swallow::core {

/// Eq. 3: one compression slice disposes more volume than one transmission
/// slice, R·h·(1 − ξ) > B. `compress_rate` is R·h, the codec's speed on the
/// sender's CPU headroom h in [0, 1]; `ratio` is ξ, compressed/raw. The
/// FVDF kernel and the runtime master both decide β through this test.
inline bool beats_bandwidth(common::Bps compress_rate, double ratio,
                            common::Bps bandwidth) {
  return compress_rate * (1.0 - ratio) > bandwidth;
}

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
/// per-flow step (Pseudocode 2 lines 12-23):
///
///   B    = min(ingress(src), egress(dst))             the flow's bottleneck
///   β    = compressible ∧ raw bytes left ∧ CpuProvider::can_compress(h)
///          ∧ R·h·(1 − ξ) > B                          Pseudocode 1, Eq. 3
///   Δc   = R·h·δ·(1 − ξ),  Δt = B·δ                  Eqs. 1, 2
///   Γ_F  = δ + max(0, V − (β ? Δc : Δt)) / B          Eq. 7
///
/// with ξ the flow's own ratio when the workload gives one, h clamped to
/// [0, 1], δ the slice and V the flow's volume. Eq. 7 takes the worst case:
/// compression stops after the coming slice. This is *the* Γ kernel: every
/// FVDF-family refresh and the test-only reference scheduler call it, and
/// it is deliberately out-of-line (noinline) so all callers share one
/// instantiation — identical code, identical FP contraction, identical
/// bits. Inlining it into different loops would let the compiler fuse
/// multiply-adds differently per call site and break byte identity.
/// `force_compression` bypasses the Eq. 3 gate (ablation: compress blindly
/// whenever the rest of Pseudocode 1 holds).
FlowEval evaluate_flow(const EvalEnv& env, const fabric::Flow& f,
                       bool force_compression);

/// Cold trace emitters (category "fvdf") for a coflow a scheduler just
/// re-evaluated: one flow's β decision with its Eq. 7 FCT, and the
/// coflow's Γ_C with its priority class and rank key. Out of line, so the
/// refresh loops stay tight when no sink is attached.
void trace_beta_decision(obs::Tracer* sink, common::Seconds now,
                         const fabric::Flow& f, bool beta,
                         common::Seconds fct);
void trace_coflow_estimate(obs::Tracer* sink, common::Seconds now,
                           const fabric::Coflow& c, common::Seconds gamma,
                           double key);

}  // namespace swallow::core
