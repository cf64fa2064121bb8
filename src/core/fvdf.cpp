#include "core/fvdf.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "obs/trace.hpp"

namespace swallow::core {

common::Bytes delta_c(const codec::CodecModel& codec, common::Seconds slice,
                      double cpu_headroom) {
  return codec.delta_c(slice, cpu_headroom);
}

common::Bytes delta_t(common::Bps bandwidth, common::Seconds slice) {
  return bandwidth * slice;
}

common::Seconds expected_fct(const fabric::Flow& flow, bool beta,
                             const codec::CodecModel& codec,
                             double cpu_headroom, common::Bps bandwidth,
                             common::Seconds slice) {
  if (bandwidth <= 0) throw std::invalid_argument("expected_fct: B <= 0");
  // Eq. 1 with the flow's own ratio when the workload specifies one.
  codec::CodecModel effective = codec;
  effective.ratio = flow.effective_ratio(codec.ratio);
  const common::Bytes disposal =
      beta ? delta_c(effective, slice, cpu_headroom)
           : delta_t(bandwidth, slice);
  const common::Bytes rest = std::max(0.0, flow.volume() - disposal);
  return slice + rest / bandwidth;
}

[[gnu::noinline, gnu::cold]] void trace_beta_decision(obs::Sink* sink,
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
    obs::Sink* sink, common::Seconds now, const fabric::Coflow& c,
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
  bool beta = false;
  double headroom = 0.0;
  const common::Bps bandwidth = flow_bottleneck(f, *env.fabric);
  if (env.codec != nullptr && env.cpu != nullptr) {
    const CompressionDecision d =
        compression_strategy(f, *env.codec, *env.cpu, *env.fabric, env.now);
    headroom = d.cpu_headroom;
    beta = d.enabled ||
           (force_compression && f.compressible &&
            f.raw_remaining > fabric::kVolumeEpsilon &&
            env.cpu->can_compress(f.src, env.now));
  }
  // A failed link (current bottleneck 0) makes Eq. 7 unbounded: the flow
  // cannot transmit until the port recovers, so its coflow ranks last
  // regardless of priority — exactly what volume disposal wants, since
  // spending bandwidth elsewhere is always better. Compression may still
  // run (Eq. 3 holds trivially at B = 0), disposing raw volume while the
  // flow waits.
  common::Seconds fct;
  if (bandwidth <= 0) {
    fct = std::numeric_limits<common::Seconds>::infinity();
  } else {
    // Eq. 7 needs a codec even when beta is false; the term vanishes.
    const codec::CodecModel& model =
        env.codec != nullptr ? *env.codec : codec::default_codec_model();
    fct = expected_fct(f, beta, model, headroom, bandwidth, env.slice);
  }
  return FlowEval{beta, fct};
}

}  // namespace swallow::core
