#include "core/fvdf.hpp"

#include <algorithm>
#include <limits>

#include "obs/trace.hpp"

namespace swallow::core {

[[gnu::noinline, gnu::cold]] void trace_beta_decision(obs::Tracer* sink,
                                                     common::Seconds now,
                                                     const fabric::Flow& f,
                                                     bool beta,
                                                     common::Seconds fct) {
  obs::emit_instant(sink, obs::sim_ts(now), "beta_decision", "fvdf",
                    {{"flow", f.id},
                     {"coflow", f.coflow},
                     {"beta", beta},
                     {"expected_fct", fct}});
}

[[gnu::noinline, gnu::cold]] void trace_coflow_estimate(
    obs::Tracer* sink, common::Seconds now, const fabric::Coflow& c,
    common::Seconds gamma, double key) {
  obs::emit_instant(sink, obs::sim_ts(now), "coflow_estimate", "fvdf",
                    {{"coflow", c.id},
                     {"gamma", gamma},
                     {"priority", c.priority},
                     {"key", key}});
}

[[gnu::noinline]] FlowEval evaluate_flow(const EvalEnv& env,
                                         const fabric::Flow& f,
                                         bool force_compression) {
  const common::Bps bandwidth =
      std::min(env.fabric->ingress_capacity(f.src),
               env.fabric->egress_capacity(f.dst));
  // Pseudocode 1: compress only a compressible payload with raw bytes left
  // on a sender with CPU to spare, and only if Eq. 3 says it pays.
  bool beta = false;
  common::Bps compress_rate = 0;  // R·h
  double ratio = 0;               // ξ
  if (env.codec != nullptr && env.cpu != nullptr && f.compressible &&
      f.raw_remaining > fabric::kVolumeEpsilon) {
    const double headroom = env.cpu->headroom(f.src, env.now);
    if (cpu::CpuProvider::can_compress(headroom)) {
      compress_rate =
          env.codec->compress_speed * std::clamp(headroom, 0.0, 1.0);
      ratio = f.effective_ratio(env.codec->ratio);
      beta = force_compression ||
             beats_bandwidth(compress_rate, ratio, bandwidth);
    }
  }
  // A failed link (current bottleneck 0) makes Eq. 7 unbounded: the flow
  // cannot transmit until the port recovers, so its coflow ranks last
  // regardless of priority — exactly what volume disposal wants, since
  // spending bandwidth elsewhere is always better. Compression may still
  // run (Eq. 3 holds trivially at B = 0), disposing raw volume while the
  // flow waits.
  if (bandwidth <= 0)
    return FlowEval{beta, std::numeric_limits<common::Seconds>::infinity()};
  // Eq. 7 over one slice of Eq. 1 (compressing) or Eq. 2 (transmitting).
  const common::Bytes disposal =
      beta ? compress_rate * env.slice * (1.0 - ratio) : bandwidth * env.slice;
  const common::Bytes rest = std::max(0.0, f.volume() - disposal);
  return FlowEval{beta, env.slice + rest / bandwidth};
}

}  // namespace swallow::core
