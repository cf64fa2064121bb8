#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <vector>

#include "fabric/degradation.hpp"

#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "recovery/journal.hpp"
#include "recovery/snapshot.hpp"
#include "sched/dirty.hpp"

namespace swallow::sim {

namespace {

constexpr double kTiny = 1e-12;
/// Consecutive zero-progress slices tolerated before declaring deadlock.
constexpr std::int64_t kMaxStalledSlices = 100000;
constexpr std::uint64_t kNoEvent = ~std::uint64_t{0};
constexpr common::Seconds kForever =
    std::numeric_limits<common::Seconds>::infinity();

struct SimCoflow {
  fabric::Coflow state;
  fabric::CoflowId trace_id = 0;
  fabric::JobId job = 0;
  std::size_t unfinished = 0;
  common::Seconds isolation_bound = 0;  ///< CCT with the fabric to itself
  /// Running max over finalized flow completions, so the last flow out does
  /// not rescan the whole coflow.
  common::Seconds completion_max = fabric::kNeverCompleted;
};

/// Per-flow snapshot taken at a segment boundary. Between two consecutive
/// fold points (schedule round, CPU-headroom re-evaluation) every rate, beta
/// and capacity is constant, so a flow's pools after j whole slices are a
/// pure function of the snapshot and j — the canonical formulas below.
/// BOTH engine modes evaluate exactly these formulas at exactly the same
/// boundaries; the event-driven mode merely skips the interior boundaries
/// where nothing can happen. That is what makes Metrics byte-identical
/// across modes (DESIGN.md section 10).
struct FlowSeg {
  enum Mode : std::uint8_t { kTransmit, kCompress, kBlocked };
  double d0 = 0;      ///< raw_remaining at segment start
  double D0 = 0;      ///< compressed_pending at segment start
  double sent0 = 0;   ///< sent at segment start
  double sentc0 = 0;  ///< sent_compressed at segment start
  double step = 0;    ///< bytes disposed per whole slice
  double rate = 0;    ///< transmit rate r, or effective compression speed
  double ratio = 0;   ///< effective compression ratio (compress mode)
  std::uint64_t event_j = kNoEvent;  ///< first slice index (1-based within
                                     ///< the segment) with a flow event
  std::uint64_t epoch = 0;           ///< valid iff == current segment epoch
  Mode mode = kBlocked;
};

/// Smallest j >= 1 with pred(j), for a monotone predicate (geometric
/// expansion then binary search). Saturates at 2^62 when pred never holds
/// in range — callers treat that as "no event".
template <typename Pred>
std::uint64_t first_true(Pred&& pred) {
  constexpr std::uint64_t kCap = std::uint64_t{1} << 62;
  std::uint64_t lo = 1, hi = 1;
  while (!pred(hi)) {
    lo = hi + 1;
    if (hi >= kCap) return kCap;
    hi *= 2;
  }
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (pred(mid)) hi = mid;
    else lo = mid + 1;
  }
  return lo;
}

/// first_true seeded with an algebraic estimate of the boundary. The
/// estimate only has to be within a few ulps of rounding error — the local
/// walk lands on the exact same minimal j the blind search would find (the
/// minimum of a monotone predicate is unique), it just skips the ~60
/// predicate evaluations of the geometric expansion. Falls back to the
/// blind search when the guess is far off (degenerate inputs).
template <typename Pred>
std::uint64_t first_true_near(double guess, Pred&& pred) {
  constexpr std::uint64_t kCap = std::uint64_t{1} << 62;
  if (!(guess >= 1)) guess = 1;
  if (guess >= 9.2e18) return first_true(pred);
  std::uint64_t j = static_cast<std::uint64_t>(guess);
  if (j < 1) j = 1;
  if (j > kCap) j = kCap;
  for (int i = 0; i < 8; ++i) {
    if (pred(j)) {
      if (j == 1 || !pred(j - 1)) return j;
      --j;
    } else {
      if (j >= kCap) return kCap;
      ++j;
      if (pred(j)) return j;
    }
  }
  return first_true(pred);
}

/// Canonical per-segment flow evolution (shared by both engine modes).
/// Transmit drains compressed-then-raw at `step` bytes per slice:
///   w(j)  = min(d0 + D0, j * step)           cumulative wire bytes
///   wc(j) = min(D0, w(j))                    ... of which compressed
///   d(j)  = d0 - min(d0, max(0, w(j) - D0))
/// Compression converts raw at `step` bytes per slice:
///   cc(j) = min(d0, j * step)                cumulative raw consumed
///   d(j)  = d0 - cc(j),  D(j) = D0 + cc(j) * ratio
/// All monotone in j, so event detection is a monotone-predicate search.
void materialize_flow(fabric::Flow& f, const FlowSeg& s, std::uint64_t j) {
  if (s.mode == FlowSeg::kTransmit) {
    const double w = std::min(s.d0 + s.D0, static_cast<double>(j) * s.step);
    const double wc = std::min(s.D0, w);
    f.raw_remaining = s.d0 - std::min(s.d0, std::max(0.0, w - s.D0));
    f.compressed_pending = s.D0 - wc;
    f.sent = s.sent0 + w;
    f.sent_compressed = s.sentc0 + wc;
  } else if (s.mode == FlowSeg::kCompress) {
    const double cc = std::min(s.d0, static_cast<double>(j) * s.step);
    f.raw_remaining = s.d0 - cc;
    f.compressed_pending = s.D0 + cc * s.ratio;
  }
  // kBlocked flows do not move.
}

/// The engine, refactored from the historical single-function stepper into
/// a resumable object: every bit of run state is a member, so a checkpoint
/// is a flat serialization (save_state) and a restore re-enters the main
/// loop at the exact boundary the snapshot was cut at. Checkpoints happen
/// only at post-schedule fold points (segment settled, nothing pending),
/// where re-running the loop-top prefix is idempotent — that is what makes
/// the restored run's Metrics byte-identical to the uninterrupted run's
/// (DESIGN.md section 13).
class Engine {
 public:
  Engine(const workload::Trace& trace, const fabric::Fabric& fabric_in,
         const cpu::CpuProvider& cpu_in, sched::Scheduler& sched_in,
         const SimConfig& config_in)
      : fabric(fabric_in),
        cpu(cpu_in),
        sched(sched_in),
        config(config_in),
        event_mode(config_in.engine_mode == EngineMode::kEventDriven),
        degrade(config_in.degradation, fabric_in.num_ports()),
        degrade_on(degrade.enabled()),
        live(fabric_in),
        admit_on(config_in.admission.enabled),
        admission(config_in.admission, fabric_in),
        tracker(fabric_in.num_ports()),
        sink(config_in.sink),
        sched_name(sink != nullptr ? sink->intern(sched_in.name()) : nullptr) {
    // ---- Build flow/coflow state (ids are dense indices). ----
    flows.reserve(trace.total_flows());
    coflows.reserve(trace.coflows.size());
    std::vector<const fabric::Flow*> unfinished;
    std::vector<common::Bytes> in_load(fabric.num_ports());
    std::vector<common::Bytes> out_load(fabric.num_ports());
    for (const auto& spec : trace.coflows) {
      SimCoflow sc;
      sc.trace_id = spec.id;
      sc.job = spec.job;
      sc.state.id = coflows.size();
      sc.state.arrival = spec.arrival;
      sc.state.priority = 1.0;
      // Trace deadlines are relative to arrival; the engine works in
      // absolute simulated time from here on.
      sc.state.deadline = spec.has_deadline() ? spec.arrival + spec.deadline
                                              : fabric::kNoDeadline;
      sc.unfinished = spec.flows.size();
      for (const auto& fs : spec.flows) {
        fabric::Flow f;
        f.id = flows.size();
        f.coflow = sc.state.id;
        f.src = fs.src;
        f.dst = fs.dst;
        f.original_bytes = fs.bytes;
        f.raw_remaining = fs.bytes;
        f.arrival = spec.arrival + fs.arrival_offset;
        f.compressible = fs.compressible;
        f.compress_ratio = fs.compress_ratio;
        sc.state.flows.push_back(f.id);
        flows.push_back(f);
      }
      unfinished.clear();
      for (const fabric::FlowId id : sc.state.flows)
        if (!flows[id].done()) unfinished.push_back(&flows[id]);
      sc.isolation_bound = fabric::coflow_bottleneck_time(unfinished, fabric,
                                                          in_load, out_load);
      coflows.push_back(std::move(sc));
    }

    // Arrival order (trace is sorted, but be safe).
    arrival_order.resize(coflows.size());
    for (std::size_t i = 0; i < arrival_order.size(); ++i)
      arrival_order[i] = i;
    std::stable_sort(
        arrival_order.begin(), arrival_order.end(),
        [&](std::size_t a, std::size_t b) {
          return coflows[a].state.arrival < coflows[b].state.arrival;
        });

    // Dense per-flow decision tables refreshed after every schedule() call.
    rate.assign(flows.size(), 0.0);
    compress.assign(flows.size(), 0);
    // Flows that have been covered by at least one allocation: a beta
    // change before the first decision is not a "flip".
    decided.assign(flows.size(), 0);
    seg.assign(flows.size(), FlowSeg{});

    // ---- Dirty-set event feed (DESIGN.md section 11), both modes. ----
    // flows is reserved up front, so the bound pointer stays valid for the
    // whole run (and across a snapshot restore, which only overwrites the
    // flows' mutable pools in place).
    tracker.bind_flows(flows.data(), flows.size());

    // ---- Segment state. ----
    // Time is always seg_base + j * slice (never accumulated), so both
    // modes land on bit-identical boundary timestamps.
    seg_base = coflows.empty() ? 0.0 : coflows[arrival_order[0]].state.arrival;
    window_start = seg_base;
    // An episode may already cover the first arrival, so the first boundary
    // samples the degradation schedule. A restore overwrites this with the
    // snapshot's cursor.
    if (degrade_on) next_capacity_change = seg_base;
    for (fabric::PortId p = 0; p < fabric.num_ports(); ++p)
      egress_capacity_total += fabric.egress_capacity(p);

    // Reusable scheduling context (clear_round() keeps the vectors'
    // capacity, so steady-state rounds do not reallocate).
    ctx.fabric = &live;
    ctx.cpu = &cpu;
    ctx.slice = config.slice;
    ctx.codec = config.codec;
    ctx.sink = sink;
    ctx.tracker = &tracker;
  }

  Metrics run();

 private:
  // Lazy min-heap of (absolute deadline, coflow index), maintained with
  // push_heap/pop_heap over a plain vector so the raw heap array
  // serializes verbatim into a snapshot. Entries whose coflow already
  // completed or was rejected are skipped at pop time.
  using ExpiryEntry = std::pair<common::Seconds, std::size_t>;

  common::Seconds slice_time(std::uint64_t j) const {
    return seg_base + static_cast<double>(j) * config.slice;
  }

  // The timed preemption sources. The loop top fires each at the first
  // boundary that reaches it (the sample flush at the loop bottom, on the
  // boundary the advance lands on), and the event horizon stops there.
  enum Source : std::uint8_t {
    kMaxTime, kCapacityChange, kArrival,
    kDeadlineExpiry, kCpuPromise, kSampleFlush
  };
  static constexpr Source kSources[] = {kMaxTime,    kCapacityChange,
                                        kArrival,    kDeadlineExpiry,
                                        kCpuPromise, kSampleFlush};

  // When source `s` next fires; kForever while nothing is pending.
  common::Seconds source_time(Source s) {
    switch (s) {
      case kMaxTime:
        return config.max_time;
      case kCapacityChange:
        return next_capacity_change;  // kForever on a static fabric
      case kArrival:
        return next_arrival < arrival_order.size()
                   ? coflows[arrival_order[next_arrival]].state.arrival
                   : kForever;
      case kDeadlineExpiry:
        return admit_on ? next_expiry() : kForever;
      case kCpuPromise:
        return seg_cpu_T;
      case kSampleFlush:
        return config.utilization_sample_period > 0
                   ? window_start + config.utilization_sample_period
                   : kForever;
    }
    return kForever;
  }

  // Whether boundary `b` reaches source `s`, pending at `at`: the one test
  // behind both the loop top and the horizon. The forms are the ones the
  // pinned digests were captured with; the sample flush compares the
  // elapsed window with the period, not `b` with `at`.
  bool reached(Source s, common::Seconds at, common::Seconds b) const {
    switch (s) {
      case kMaxTime:
        return b > at;
      case kCpuPromise:
        return b >= at;
      case kSampleFlush:
        return b - window_start >= config.utilization_sample_period;
      case kCapacityChange:
      case kArrival:
      case kDeadlineExpiry:
        break;
    }
    return at <= b + kTiny;
  }

  bool due(Source s, common::Seconds b) {
    const common::Seconds at = source_time(s);
    return std::isfinite(at) && reached(s, at, b);
  }

  // Zero progress is a stall, not a deadlock, while an idle flow waits on a
  // failed link and the schedule holds a capacity change that may bring it
  // back (max_time still backstops the run).
  bool waiting_on_failed_link() const {
    return seg_stall_count > 0 && std::isfinite(next_capacity_change);
  }

  bool finished(std::size_t ci) const {
    return coflows[ci].state.completed() ||
           coflows[ci].state.slo == fabric::SloClass::kRejected;
  }

  // Drops completed and shed coflows from the active set, keeping order.
  void retire_finished() {
    std::erase_if(active, [&](std::size_t ci) { return finished(ci); });
  }

  common::Seconds next_expiry() {
    while (!expiry.empty() && finished(expiry.front().second)) {
      std::pop_heap(expiry.begin(), expiry.end(), std::greater<ExpiryEntry>{});
      expiry.pop_back();
    }
    return expiry.empty() ? kForever : expiry.front().first;
  }

  void push_expiry(common::Seconds deadline, std::size_t ci) {
    expiry.emplace_back(deadline, ci);
    std::push_heap(expiry.begin(), expiry.end(), std::greater<ExpiryEntry>{});
  }

  // Samples the degradation schedule at `now` and applies any changed port
  // multipliers to the live fabric. Capacity changes are first-class
  // preemption points: they force a scheduling round and count as coflow
  // events so Pseudocode 3's priority escalation ages stalled coflows.
  void apply_capacity(common::Seconds now) {
    for (fabric::PortId p = 0; p < live.num_ports(); ++p) {
      const double m = degrade.multiplier_at(p, now);
      const double prev = live.port_multiplier(p);
      if (m == prev) continue;
      journal_event(recovery::JournalType::kCapacityChange, now, p, 0, m);
      live.set_port_multiplier(p, m);
      tracker.port_capacity_changed(p);
      ++dstats.capacity_changes;
      if (m == 0.0) ++dstats.link_failures;
      need_schedule = true;
      coflow_event = true;
      if (admit_on) reprice_due = true;
      if (sink != nullptr) [[unlikely]] {
        const double ts = obs::sim_ts(now);
        obs::emit_instant(sink, ts, "capacity_change", "fabric",
                          {{"port", p}, {"old_multiplier", prev},
                           {"multiplier", m},
                           {"ingress_bps", live.ingress_capacity(p)},
                           {"egress_bps", live.egress_capacity(p)}});
        if (m == 0.0)
          obs::emit_instant(sink, ts, "link_down", "fabric", {{"port", p}});
        else if (prev == 0.0)
          obs::emit_instant(sink, ts, "link_up", "fabric", {{"port", p}});
      }
    }
  }

  // Marks a flow finished at `when`, updating its coflow when it was the
  // last one out.
  void finalize_flow(fabric::Flow& f, SimCoflow& sc, common::Seconds when) {
    if (config.model_decompression && config.codec != nullptr &&
        f.sent_compressed > 0 && config.codec->decompress_speed > 0) {
      // Receiver-side decoding, serialized after the last byte arrives.
      when += f.sent_compressed / config.codec->decompress_speed;
    }
    if (config.quantize_completions) {
      // Slotted accounting: the flow occupies its slice to the boundary
      // (the paper's "waste of time slices", Section VI-A1).
      const double slots = std::ceil((when - 1e-12) / config.slice);
      when = std::max(when, slots * config.slice);
    }
    journal_event(recovery::JournalType::kFlowComplete, when, f.id,
                  sc.trace_id);
    f.raw_remaining = 0;
    f.compressed_pending = 0;
    f.completion = when;
    need_schedule = true;
    tracker.coflow_changed(f.coflow);
    if (sink != nullptr) [[unlikely]]
      obs::emit_instant(
          sink, obs::sim_ts(when), "flow_complete", "sim",
          {{"flow", f.id}, {"coflow", sc.trace_id}, {"fct", when - f.arrival}});
    sc.completion_max = std::max(sc.completion_max, when);
    if (--sc.unfinished == 0) {
      journal_event(recovery::JournalType::kCoflowComplete, sc.completion_max,
                    sc.trace_id);
      sc.state.completion = sc.completion_max;
      ++completed;
      coflow_event = true;
      if (admit_on) admission.release(sc.state.id);
      if (sink != nullptr) [[unlikely]] {
        obs::emit_instant(sink, obs::sim_ts(sc.state.completion),
                          "coflow_complete", "sim",
                          {{"coflow", sc.trace_id},
                           {"cct", sc.state.completion - sc.state.arrival}});
      }
    }
  }

  // Drops a coflow's remaining volume: called at arrival (verdict kReject,
  // before the coflow ever enters the active set) or mid-flight (deadline
  // expired, or re-priced as hopeless — caller must have folded the running
  // segment first so no live snapshot resurrects the zeroed pools).
  // Completions stay kNeverCompleted, so every FCT/CCT aggregate skips the
  // shed records. Arrival-time rejections are not separately journaled —
  // they follow deterministically from the kAdmissionVerdict record.
  void mark_rejected(SimCoflow& sc, bool midflight, common::Seconds when) {
    if (midflight)
      journal_event(recovery::JournalType::kShed, when, sc.trace_id);
    common::Bytes shed = 0;
    for (const fabric::FlowId fid : sc.state.flows) {
      fabric::Flow& f = flows[fid];
      if (f.completed()) continue;
      shed += f.volume();
      f.raw_remaining = 0;
      f.compressed_pending = 0;
      rate[fid] = 0;
      compress[fid] = 0;
    }
    sstats.shed_bytes += shed;
    sc.state.slo = fabric::SloClass::kRejected;
    ++rejected;
    if (midflight) {
      ++sstats.shed_midflight;
      // The scheduler sees a coflow whose flows are all done and drops it
      // from its memoized rank state.
      tracker.coflow_changed(sc.state.id);
    } else {
      ++sstats.rejected;
    }
    admission.release(sc.state.id);
    if (sink != nullptr) [[unlikely]]
      obs::emit_instant(sink, obs::sim_ts(when),
                        midflight ? "coflow_shed" : "coflow_rejected", "slo",
                        {{"coflow", sc.trace_id}, {"shed_bytes", shed}});
  }

  // Writes every live snapshot member back into its flow's pools at the
  // current boundary. Fold points are mode-independent (schedule rounds and
  // CPU-headroom re-evaluations), which keeps the FP evaluation order — and
  // therefore every emitted metric — identical across engine modes.
  void materialize_segment() {
    for (const fabric::FlowId fid : seg_flows) {
      FlowSeg& s = seg[fid];
      if (s.epoch != seg_epoch) continue;  // settled by an event
      fabric::Flow& f = flows[fid];
      if (!f.completed()) materialize_flow(f, s, seg_j);
      s.epoch = 0;
    }
    seg_valid = false;
  }

  // Cumulative wire bytes over all flows at the current boundary, without
  // materializing (canonical formulas for live snapshot members). Flow-id
  // order fixes the FP summation order across modes.
  double cumulative_sent() const {
    double total = 0;
    for (const fabric::Flow& f : flows) {
      const FlowSeg& s = seg[f.id];
      if (seg_valid && s.epoch == seg_epoch && !f.completed() &&
          s.mode == FlowSeg::kTransmit)
        total += s.sent0 + std::min(s.d0 + s.D0,
                                    static_cast<double>(seg_j) * s.step);
      else
        total += f.sent;
    }
    return total;
  }

  // Settles every utilization window that closed by `now`. Closed-form: the
  // first window takes all bytes moved since the last flush, later windows
  // (idle stretches) are zero — no per-period catch-up loop.
  void maybe_sample(common::Seconds now) {
    if (!due(kSampleFlush, now)) return;
    const common::Seconds p = config.utilization_sample_period;
    const double sent_total = cumulative_sent();
    std::uint64_t n = static_cast<std::uint64_t>((now - window_start) / p);
    while (n > 0 &&
           now - (window_start + static_cast<double>(n - 1) * p) < p)
      --n;
    while (now - (window_start + static_cast<double>(n) * p) >= p) ++n;
    for (std::uint64_t i = 0; i < n; ++i) {
      const double wire = i == 0 ? sent_total - window_sent_base : 0.0;
      samples.push_back({window_start + static_cast<double>(i + 1) * p,
                         wire / (egress_capacity_total * p)});
    }
    window_start += static_cast<double>(n) * p;
    window_sent_base = sent_total;
  }

  // Whether the standing decision gives flow `f` compression work: beta
  // set, a codec, and raw volume left.
  bool compressing(const fabric::Flow& f) const {
    return compress[f.id] && config.codec != nullptr &&
           f.raw_remaining > fabric::kVolumeEpsilon;
  }

  // Sorts one unfinished flow by the decision that stands for it: into
  // the segment member list when the decision moves it (or pins it
  // compressing on a busy CPU), else into the stall census when it waits on
  // a zero-capacity port. snapshot_segment picks modes by the same test, so
  // every listed flow moves or blocks and no unlisted flow moves.
  void list_flow(const fabric::Flow& f, bool any_port_degraded) {
    if (compressing(f) || rate[f.id] > kTiny) {
      seg_flows.push_back(f.id);
    } else if (any_port_degraded && sched::link_stalled(f, live)) {
      // Rate zero on a zero-capacity port is a stall, not starvation: the
      // flow accrues waiting time until the link recovers.
      ++seg_stall_count;
    }
  }

  // Snapshots the flows the last allocation serves (seg_flows, listed by
  // the post-schedule pass) at the current boundary: decision tables ->
  // per-flow segment constants plus the segment aggregates (earliest
  // event, interior-slice progress, CPU-headroom promise). Idle flows get
  // no segment: they do not move, and the stall census already counts the
  // ones pinned on a failed link. The list stands until the next round, so
  // a CPU-fold re-snapshot only skips the members that finished since.
  void snapshot_segment() {
    ++seg_epoch;
    seg_min_event_j = kNoEvent;
    seg_progress_step = 0;
    seg_cpu_T = kForever;
    seg_has_blocked = false;
    for (const fabric::FlowId fid : seg_flows) {
      fabric::Flow& f = flows[fid];
      if (f.done() || f.completed()) continue;
      FlowSeg& s = seg[fid];
      s.d0 = f.raw_remaining;
      s.D0 = f.compressed_pending;
      s.sent0 = f.sent;
      s.sentc0 = f.sent_compressed;
      s.event_j = kNoEvent;
      s.epoch = seg_epoch;
      if (compressing(f)) {
        const double r_eff =
            config.codec->compress_speed * cpu.headroom(f.src, seg_base);
        if (r_eff > kTiny) {
          s.mode = FlowSeg::kCompress;
          s.rate = r_eff;
          s.step = r_eff * config.slice;
          s.ratio = f.effective_ratio(config.codec->ratio);
          const double d0 = s.d0, cstep = s.step;
          s.event_j = first_true_near(
              (d0 - fabric::kVolumeEpsilon) / cstep + 1.0,
              [d0, cstep](std::uint64_t j) {
            return d0 - std::min(d0, static_cast<double>(j) * cstep) <=
                   fabric::kVolumeEpsilon;
          });
          seg_progress_step += s.step;
          seg_cpu_T = std::min(
              seg_cpu_T, cpu.headroom_constant_until(f.src, seg_base));
        } else {
          // CPU busy under an assigned beta: resample every slice so the
          // scheduler can drop the switch (historical behavior).
          s.mode = FlowSeg::kBlocked;
          s.rate = 0;
          s.step = 0;
          seg_has_blocked = true;
        }
      } else {  // listed without compression work: rate[fid] > kTiny
        s.mode = FlowSeg::kTransmit;
        s.rate = rate[fid];
        s.step = rate[fid] * config.slice;
        const double V0 = s.d0 + s.D0, step = s.step;
        s.event_j = first_true_near(V0 / step, [V0, step](std::uint64_t j) {
          const double v_prev =
              V0 - std::min(V0, static_cast<double>(j - 1) * step);
          const double v_now = V0 - std::min(V0, static_cast<double>(j) * step);
          return v_prev <= step + kTiny || v_now <= fabric::kVolumeEpsilon;
        });
        seg_progress_step += s.step;
      }
      seg_min_event_j = std::min(seg_min_event_j, s.event_j);
    }
    seg_valid = true;
  }

  void build_context() {
    ctx.clear_round();
    ctx.now = slice_time(seg_j);
    ctx.coflows.reserve(active.size());
    for (const std::size_t ci : active) {
      ctx.coflows.push_back(&coflows[ci].state);
      for (const fabric::FlowId fid : coflows[ci].state.flows)
        if (!flows[fid].done()) ctx.flows.push_back(&flows[fid]);
    }
  }

  // ---- Crash-fault tolerance (DESIGN.md section 13). ----
  void setup_recovery();
  std::uint64_t compute_fingerprint() const;
  void journal_event(recovery::JournalType type, common::Seconds time,
                     std::uint64_t a, std::uint64_t b = 0, double x = 0.0);
  [[noreturn]] void do_crash(const std::string& where);
  void checkpoint(common::Seconds t);
  /// The snapshot payload, listed once for both directions.
  template <class Self, class IO>
  static void fields(Self& e, IO& io);
  void save_state(recovery::StateWriter& w) const;
  void restore_state(recovery::StateReader& r);

  // ---- Immutable run inputs. ----
  const fabric::Fabric& fabric;
  const cpu::CpuProvider& cpu;
  sched::Scheduler& sched;
  const SimConfig& config;
  const bool event_mode;
  // Fixed by the config; only its cache of generated episodes changes.
  fabric::DegradationSchedule degrade;
  const bool degrade_on;
  // `live` is the engine's mutable view of the fabric: nominal capacities
  // scaled by the degradation schedule's per-port multipliers. Schedulers,
  // the Eq. 3 compression gate and the feasibility check all read `live`,
  // so every decision is priced against what the ports can carry *now*.
  fabric::Fabric live;
  const bool admit_on;
  core::AdmissionController admission;
  sched::DirtyTracker tracker;
  obs::Tracer* const sink;
  // The scheduler's name for schedule_round, interned once. Null without a
  // sink.
  const char* const sched_name;

  // ---- Run state (what fields() lists or restore_state rederives). ----
  std::vector<fabric::Flow> flows;
  std::vector<SimCoflow> coflows;
  std::vector<std::size_t> arrival_order;
  std::size_t next_arrival = 0;
  std::vector<std::size_t> active;  // indices of arrived, uncompleted coflows
  std::size_t completed = 0;
  std::size_t rejected = 0;  // coflows dropped by the SLO admission layer
  std::vector<double> rate;
  std::vector<char> compress;
  SloStats sstats;
  std::vector<ExpiryEntry> expiry;

  common::Seconds seg_base = 0;
  std::uint64_t seg_j = 0;
  bool seg_valid = false;
  std::uint64_t seg_epoch = 0;
  std::vector<FlowSeg> seg;
  // Flows the last allocation serves, in coflow-then-flow order: the
  // segment's members. Listed, with the stall census, by the post-schedule
  // pass (or by restore_state) and standing until the next round.
  std::vector<fabric::FlowId> seg_flows;
  std::uint64_t seg_min_event_j = kNoEvent;
  double seg_progress_step = 0;       // bytes disposed per interior slice
  std::uint64_t seg_stall_count = 0;  // idle flows pinned on a failed link
  common::Seconds seg_cpu_T = kForever;
  bool seg_has_blocked = false;  // compress flow with no CPU: resample ASAP

  common::Seconds window_start = 0;
  double window_sent_base = 0;
  double egress_capacity_total = 0;
  std::vector<UtilizationSample> samples;

  bool need_schedule = true;
  bool coflow_event = true;  // arrival/coflow-completion since last schedule
  // A capacity change landed since the last boundary: re-price admitted
  // deadline commitments against the fabric as it now stands. Consumed
  // before the next schedule round of the same iteration (and before any
  // checkpoint), so it never needs to be part of snapshot state.
  bool reprice_due = false;
  std::int64_t stalled = 0;
  DegradationStats dstats;
  std::vector<char> decided;
  std::uint64_t round = 0;  // scheduling rounds, for trace correlation
  common::Seconds next_capacity_change = kForever;
  sched::SchedContext ctx;

  // ---- Recovery state (process-local, never serialized). ----
  recovery::JournalWriter journal_;
  std::string journal_path_;
  /// Snapshot file image, reused by every checkpoint of the run.
  recovery::StateWriter snap_image_;
  /// Journal suffix a restored run verifies its regenerated events against.
  std::deque<recovery::JournalRecord> verify_;
  std::uint64_t journal_seq_ = 0;
  std::uint64_t event_count_ = 0;    // journaled events this *process*
  std::uint64_t snap_attempts_ = 0;  // snapshot writes this *process*
  std::uint64_t fingerprint_ = 0;
  std::uint64_t ckpt_every_ = 0;
  std::uint64_t restored_seq_ = 0;
  bool journal_on_ = false;
  const recovery::CrashPlan* crash_ = nullptr;
};

// ---- Recovery plumbing. ----

std::uint64_t Engine::compute_fingerprint() const {
  recovery::Fingerprint fp;
  fp.mix(std::string("swallow.sim.v1"));
  fp.mix(sched.name());
  fp.mix(config.slice);
  fp.mix(std::uint64_t(event_mode));
  fp.mix(std::uint64_t(config.codec != nullptr));
  if (config.codec != nullptr) {
    fp.mix(config.codec->name);
    fp.mix(config.codec->compress_speed);
    fp.mix(config.codec->decompress_speed);
    fp.mix(config.codec->ratio);
  }
  fp.mix(config.max_time);
  fp.mix(std::uint64_t(config.quantize_completions));
  fp.mix(std::uint64_t(config.model_decompression));
  fp.mix(config.utilization_sample_period);
  const fabric::DegradationConfig& dg = config.degradation;
  fp.mix(dg.rate);
  fp.mix(dg.seed);
  fp.mix(dg.epoch);
  fp.mix(dg.min_duration);
  fp.mix(dg.max_duration);
  fp.mix(dg.failure_fraction);
  fp.mix(dg.flap_fraction);
  fp.mix(dg.brownout_floor);
  fp.mix(dg.brownout_ceiling);
  fp.mix(dg.flap_half_period);
  fp.mix(std::uint64_t(config.admission.enabled));
  // Admission's reject margin (1), SLO share and expiry shedding (on) are
  // constants; their mixes stay so snapshot fingerprints do not move.
  fp.mix(1.0);
  fp.mix(core::kMaxSloShare);
  fp.mix(std::uint64_t{1});
  fp.mix(std::uint64_t(fabric.num_ports()));
  for (fabric::PortId p = 0; p < fabric.num_ports(); ++p) {
    fp.mix(fabric.nominal_ingress_capacity(p));
    fp.mix(fabric.nominal_egress_capacity(p));
  }
  fp.mix(std::uint64_t(coflows.size()));
  fp.mix(std::uint64_t(flows.size()));
  for (const SimCoflow& sc : coflows) {
    fp.mix(sc.trace_id);
    fp.mix(sc.job);
    fp.mix(sc.state.arrival);
    fp.mix(sc.state.deadline);
    fp.mix(std::uint64_t(sc.state.flows.size()));
  }
  for (const fabric::Flow& f : flows) {
    fp.mix(std::uint64_t(f.src));
    fp.mix(std::uint64_t(f.dst));
    fp.mix(f.original_bytes);
    fp.mix(f.arrival);
    fp.mix(std::uint64_t(f.compressible));
    fp.mix(f.compress_ratio);
  }
  return fp.value();
}

void Engine::setup_recovery() {
  const recovery::RecoveryOptions& opt = config.recovery;
  if (opt.dir.empty()) return;
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(opt.dir, ec);
  fingerprint_ = compute_fingerprint();
  ckpt_every_ = opt.checkpoint_every;
  journal_on_ = true;
  journal_path_ = opt.dir + "/journal.swj";
  crash_ = opt.crash;

  if (opt.restore) {
    auto snap = recovery::load_latest_snapshot(opt.dir, fingerprint_);
    if (snap.has_value()) {
      recovery::StateReader r(snap->payload);
      restore_state(r);
      restored_seq_ = snap->meta.seq;
      // The restored run owns a fresh DirtyTracker session: re-register
      // the active coflows and let the schedulers rebuild their memoized
      // rank state from scratch on first contact (byte-equivalent to the
      // warm memo the crashed run carried — the invariant test_recovery
      // pins).
      for (const std::size_t ci : active)
        tracker.coflow_arrived(&coflows[ci].state);
    }
    recovery::JournalScan scan;
    if (fs::exists(journal_path_, ec))
      scan = recovery::read_journal(journal_path_);
    if (scan.torn) recovery::truncate_torn_tail(journal_path_, scan);
    for (const recovery::JournalRecord& rec : scan.records)
      if (rec.seq >= journal_seq_) verify_.push_back(rec);
    if (!verify_.empty() && verify_.front().seq != journal_seq_) {
      // The journal does not reach back to the snapshot's cursor (e.g. a
      // rotated or separately damaged file). Determinism still yields a
      // correct run, so drop the cross-check and restart the journal at
      // the snapshot instead of failing the restore.
      verify_.clear();
      fs::remove(journal_path_, ec);
    }
    if (sink != nullptr)
      obs::emit_instant(sink, obs::sim_ts(seg_base), "restore", "recovery",
                        {{"seq", restored_seq_},
                         {"journal_suffix", verify_.size()}});
  } else {
    // Fresh run: a stale journal from a previous run in the same dir must
    // not be mistaken for this run's prefix.
    fs::remove(journal_path_, ec);
  }
  journal_.open(journal_path_);
}

void Engine::journal_event(recovery::JournalType type, common::Seconds time,
                           std::uint64_t a, std::uint64_t b, double x) {
  if (!journal_on_) return;
  recovery::JournalRecord rec;
  rec.seq = journal_seq_++;
  rec.type = type;
  rec.time = time;
  rec.a = a;
  rec.b = b;
  rec.x = x;
  if (!verify_.empty()) {
    // Replay verification: the regenerated stream must reproduce the
    // journal suffix exactly (those bytes are already on disk, so nothing
    // is re-appended). Divergence means the snapshot, trace or config does
    // not match what wrote the journal.
    const recovery::JournalRecord& want = verify_.front();
    if (!(rec == want))
      throw recovery::RecoveryError(
          std::string("recovery: journal divergence at seq ") +
          std::to_string(rec.seq) + " (journal: " +
          recovery::journal_type_name(want.type) + ", regenerated: " +
          recovery::journal_type_name(rec.type) + ")");
    verify_.pop_front();
  } else {
    journal_.append(rec);
  }
  ++event_count_;
  if (crash_ != nullptr && crash_->kill_at_event > 0 &&
      event_count_ == crash_->kill_at_event)
    do_crash("journal event " + std::to_string(event_count_));
}

void Engine::do_crash(const std::string& where) {
  journal_.abandon();
  if (crash_ != nullptr && crash_->torn_tail_bytes > 0) {
    // Model an append that only partially reached the disk.
    namespace fs = std::filesystem;
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(journal_path_, ec);
    if (!ec && size > 0) {
      const std::uintmax_t keep =
          size > crash_->torn_tail_bytes ? size - crash_->torn_tail_bytes : 0;
      fs::resize_file(journal_path_, keep, ec);
    }
  }
  throw recovery::CrashError("sim: injected crash at " + where);
}

void Engine::checkpoint(common::Seconds t) {
  // Write-ahead: the checkpoint marker lands in the journal before the
  // snapshot file exists, so a crash mid-snapshot leaves a journal the
  // previous snapshot's replay can still verify end-to-end.
  journal_event(recovery::JournalType::kCheckpoint, t, round);
  recovery::SnapshotMeta meta;
  meta.seq = round;
  meta.fingerprint = fingerprint_;
  recovery::begin_snapshot(snap_image_, meta);
  save_state(snap_image_);
  ++snap_attempts_;
  std::function<void()> crash_hook;
  if (crash_ != nullptr && crash_->kill_mid_snapshot > 0 &&
      snap_attempts_ == crash_->kill_mid_snapshot)
    crash_hook = [this] { do_crash("mid-snapshot"); };
  recovery::write_snapshot(config.recovery.dir, snap_image_, crash_hook);
  if (sink != nullptr) [[unlikely]]
    obs::emit_instant(sink, obs::sim_ts(t), "snapshot", "recovery",
                      {{"seq", round}, {"bytes", snap_image_.size()}});
}

template <class Self, class IO>
void Engine::fields(Self& e, IO& io) {
  // Only non-derivable state is listed: everything keyed to the
  // DirtyTracker session (scheduler rank indexes, memoized Γ caches) is
  // rebuilt from this state on first contact, and the segment tables are
  // always settled (seg_valid == false) at a checkpoint fold point.
  io.tag("ENGN");
  io.u64(e.journal_seq_);
  io.u64(e.round);
  io.u64(e.completed);
  io.u64(e.rejected);
  io.index(e.next_arrival, e.arrival_order.size() + 1, "arrival cursor");
  io.u64(e.stalled);
  io.boolean(e.need_schedule);
  io.boolean(e.coflow_event);
  io.f64(e.seg_base);
  io.u64(e.seg_j);
  io.f64(e.window_start);
  io.f64(e.window_sent_base);
  io.f64(e.next_capacity_change);

  io.tag("FLWS");
  io.expect(e.flows.size(), "flow count");
  for (auto& f : e.flows) {
    io.f64(f.raw_remaining);
    io.f64(f.compressed_pending);
    io.f64(f.sent);
    io.f64(f.sent_compressed);
    io.f64(f.completion);
  }

  io.tag("RATE");
  for (std::size_t i = 0; i < e.flows.size(); ++i) {
    io.f64(e.rate[i]);
    io.u8(e.compress[i]);
    io.u8(e.decided[i]);
  }

  io.tag("COFL");
  io.expect(e.coflows.size(), "coflow count");
  for (auto& sc : e.coflows) {
    io.f64(sc.state.priority);
    io.f64(sc.state.completion);
    io.enum_code(sc.state.slo, fabric::SloClass::kRejected, "SLO class");
    io.index(sc.unfinished, sc.state.flows.size() + 1,
             "unfinished flow count");
    io.f64(sc.completion_max);
  }

  const std::size_t num_coflows = e.coflows.size();
  io.tag("ACTV");
  io.vec(e.active, "active coflow", [&](auto& ci) {
    io.index(ci, num_coflows, "active coflow index");
  });

  io.tag("EXPH");
  io.vec(e.expiry, "expiry heap", [&](auto& entry) {
    io.f64(entry.first);
    io.index(entry.second, num_coflows, "expiry coflow index");
  });

  io.tag("FABR");
  fabric::Fabric::fields(e.live, io);

  io.tag("UTIL");
  io.vec(e.samples, "utilization sample", [&](auto& s) {
    io.f64(s.t);
    io.f64(s.egress_utilization);
  });

  io.tag("DSTA");
  io.u64(e.dstats.capacity_changes);
  io.u64(e.dstats.link_failures);
  io.u64(e.dstats.stalled_flow_slices);
  io.u64(e.dstats.compression_flips);

  io.tag("SSTA");
  io.u64(e.sstats.with_deadline);
  io.u64(e.sstats.admitted);
  io.u64(e.sstats.degraded);
  io.u64(e.sstats.deferred);
  io.u64(e.sstats.rejected);
  io.u64(e.sstats.shed_midflight);
  io.f64(e.sstats.shed_bytes);
  io.u64(e.sstats.repriced_shed);
  io.u64(e.sstats.repriced_demoted);

  io.tag("ADMS");
  io.expect_flag(e.admit_on, "admission layer");
  if (e.admit_on) io.state(e.admission, num_coflows, e.flows.size());

  io.tag("SCHD");
  io.expect_name(e.sched.name(), "scheduler");
  io.state(e.sched);

  io.tag("END!");
  io.end();
}

void Engine::save_state(recovery::StateWriter& w) const { fields(*this, w); }

void Engine::restore_state(recovery::StateReader& r) {
  fields(*this, r);
  // Snapshots are only cut at post-schedule fold points: the segment
  // tables restart empty and the next loop iteration re-snapshots at the
  // same boundary the crashed run did, without a round. So the member list
  // and the stall census that round left are re-listed here from the
  // restored decision tables, in the post-schedule pass's order.
  seg_valid = false;
  seg_epoch = 0;
  seg_flows.clear();
  seg_stall_count = 0;
  const bool any_port_degraded = degrade_on && live.degraded();
  for (const std::size_t ci : active)
    for (const fabric::FlowId fid : coflows[ci].state.flows)
      if (!flows[fid].done()) list_flow(flows[fid], any_port_degraded);
}

// ---- The main loop. ----

Metrics Engine::run() {
  setup_recovery();

  while (completed + rejected < coflows.size()) {
    const common::Seconds t = slice_time(seg_j);
    if (due(kMaxTime, t)) throw SimError("sim: exceeded max_time");

    // Apply capacity changes due by this boundary. Sampling the schedule's
    // absolute state at `t` also catches up after idle-time jumps.
    if (due(kCapacityChange, t)) {
      apply_capacity(t);
      next_capacity_change = degrade.next_change_after(t);
    }

    // Activate arrivals due by now, gating each through admission when the
    // SLO layer is on. Verdicts are priced at the coflow's own arrival
    // instant against the live fabric — both mode-independent quantities,
    // so event and slice engines reach identical decisions.
    while (due(kArrival, t)) {
      const std::size_t ci = arrival_order[next_arrival];
      SimCoflow& sc = coflows[ci];
      ++next_arrival;
      journal_event(recovery::JournalType::kArrival, sc.state.arrival,
                    sc.trace_id, sc.state.flows.size());
      if (sink != nullptr) [[unlikely]]
        obs::emit_instant(
            sink, obs::sim_ts(sc.state.arrival), "coflow_arrival", "sim",
            {{"coflow", sc.trace_id}, {"width", sc.state.flows.size()}});
      if (admit_on && sc.state.has_deadline()) {
        ++sstats.with_deadline;
        const core::AdmissionDecision d = admission.admit(
            sc.state, flows, live, cpu, config.codec, sc.state.arrival);
        journal_event(recovery::JournalType::kAdmissionVerdict,
                      sc.state.arrival, sc.trace_id,
                      static_cast<std::uint64_t>(d.verdict),
                      sc.state.deadline - sc.state.arrival);
        if (sink != nullptr) [[unlikely]] {
          static constexpr const char* kVerdictNames[] = {"admit", "degrade",
                                                          "defer", "reject"};
          obs::emit_instant(
              sink, obs::sim_ts(sc.state.arrival), "admission_verdict", "slo",
              {{"coflow", sc.trace_id},
               {"verdict", kVerdictNames[static_cast<std::uint8_t>(d.verdict)]},
               {"reason", d.reason},
               {"slack", sc.state.deadline - sc.state.arrival}});
        }
        if (d.verdict == core::AdmissionVerdict::kReject) {
          // Dropped at the door: never enters the active set, the tracker
          // never hears of it. The arrival still counts as a coflow event.
          mark_rejected(sc, /*midflight=*/false, sc.state.arrival);
          need_schedule = true;
          coflow_event = true;
          continue;
        }
        switch (d.verdict) {
          case core::AdmissionVerdict::kAdmit:
            sc.state.slo = fabric::SloClass::kAdmitted;
            ++sstats.admitted;
            break;
          case core::AdmissionVerdict::kDegrade:
            sc.state.slo = fabric::SloClass::kDegraded;
            ++sstats.degraded;
            break;
          default:
            sc.state.slo = fabric::SloClass::kDeferred;
            ++sstats.deferred;
            break;
        }
        push_expiry(sc.state.deadline, ci);
      }
      active.push_back(ci);
      tracker.coflow_arrived(&sc.state);
      need_schedule = true;
      coflow_event = true;
    }

    if (active.empty()) {
      if (next_arrival >= arrival_order.size()) break;  // nothing left
      seg_base = source_time(kArrival);
      seg_j = 0;
      seg_valid = false;
      continue;
    }

    // Fold: settle the running segment before any decision that changes
    // the constants it was snapshot under. The CPU promise expiring is a
    // fold without a schedule round (rates stand, effective compression
    // speed is re-read); both folds are boundary-exact and
    // mode-independent. Expiry shedding must also fold first: zeroing a
    // shed flow's pools under a live snapshot would be undone by the next
    // materialize.
    const bool shed_due = due(kDeadlineExpiry, t);
    const bool cpu_fold_due = seg_valid && seg_j > 0 && due(kCpuPromise, t);
    if (seg_valid && (need_schedule || cpu_fold_due || shed_due))
      materialize_segment();

    if (shed_due) {
      // Shed every coflow whose deadline passed by this boundary (the
      // event horizon stops at the next expiry, so both modes shed at the
      // same first boundary at-or-past the deadline).
      while (due(kDeadlineExpiry, t)) {
        const std::size_t ci = expiry.front().second;
        std::pop_heap(expiry.begin(), expiry.end(),
                      std::greater<ExpiryEntry>{});
        expiry.pop_back();
        mark_rejected(coflows[ci], /*midflight=*/true, t);
        need_schedule = true;
        coflow_event = true;
      }
      retire_finished();
      if (active.empty()) continue;  // the loop top exits or re-bases
    }

    // Capacity-change re-pricing: arrival verdicts were priced against the
    // fabric as it stood then, so a brownout can strand commitments the
    // degraded fabric can no longer honor — they block feasible arrivals
    // via the EDF demand bound and drain doomed bytes until expiry. Runs
    // at the fold boundary right after apply_capacity (volumes settled,
    // pre-schedule, pre-checkpoint), on remaining volumes, in sorted
    // commitment order: a pure function of folded state at `t`, identical
    // across engine modes.
    if (admit_on && reprice_due) {
      reprice_due = false;
      const core::AdmissionController::RepriceOutcome outcome =
          admission.reprice(flows, live, cpu, config.codec, t,
                            [&](fabric::CoflowId id) -> const fabric::Coflow& {
                              return coflows[id].state;
                            });
      for (const fabric::CoflowId id : outcome.shed) {
        SimCoflow& sc = coflows[id];
        mark_rejected(sc, /*midflight=*/true, t);
        ++sstats.repriced_shed;
        need_schedule = true;
        coflow_event = true;
      }
      for (const fabric::CoflowId id : outcome.demoted) {
        SimCoflow& sc = coflows[id];
        ++sstats.repriced_demoted;
        // kAdmitted drops to kDeferred (unpromised, served by leftovers) —
        // allocations do not key on the difference, so no extra round. A
        // kDegraded coflow keeps its class: the beta-force must persist
        // for its lifetime even after the commitment is withdrawn.
        if (sc.state.slo == fabric::SloClass::kAdmitted)
          sc.state.slo = fabric::SloClass::kDeferred;
      }
      if (!outcome.shed.empty()) {
        retire_finished();
        if (active.empty()) continue;  // the loop top exits or re-bases
      }
    }

    if (need_schedule) {
      build_context();
      ctx.coflow_event = coflow_event;
      // The cached Γ terms read CPU headroom through Eq. 3/7; sampling here
      // (value-compared per port) dirties exactly the coflows sourced at
      // ports whose headroom or compress gate moved since the last round.
      tracker.sample_cpu(cpu, ctx.now);
      if (sink != nullptr) [[unlikely]]
        obs::emit_instant(sink, obs::sim_ts(t), "schedule_round", "sim",
                          {{"round", round}, {"scheduler", sched_name},
                           {"coflows", ctx.coflows.size()},
                           {"flows", ctx.flows.size()}});
      fabric::Allocation alloc;
      {
        obs::ProfileScope scope(sink, "sim.schedule");
        alloc = sched.schedule(ctx);
      }
      if (!feasible(alloc, ctx.flows, live))
        throw SimError("sim: scheduler " + sched.name() +
                       " violated port capacities");
      seg_flows.clear();
      seg_stall_count = 0;
      const bool any_port_degraded = degrade_on && live.degraded();
      for (const fabric::Flow* f : ctx.flows) {
        const double new_rate = alloc.rate(f->id);
        const bool new_compress = alloc.compress(f->id);
        // A flow that loses its bandwidth mid-life (without switching to
        // compression) was preempted by a shorter coflow.
        if (sink != nullptr && rate[f->id] > kTiny && new_rate <= kTiny &&
            !new_compress) [[unlikely]]
          obs::emit_instant(
              sink, obs::sim_ts(t), "preemption", "sim",
              {{"flow", f->id}, {"coflow", coflows[f->coflow].trace_id}});
        // An Eq. 3 decision that reversed while raw volume remains: the
        // bottleneck B moved across the R_eff * (1 - xi) threshold (both
        // directions happen under brownouts and recoveries).
        if (decided[f->id] && (compress[f->id] != 0) != new_compress &&
            f->raw_remaining > fabric::kVolumeEpsilon)
          ++dstats.compression_flips;
        decided[f->id] = 1;
        rate[f->id] = new_rate;
        compress[f->id] = new_compress ? 1 : 0;
        // Served flows drain volume over the coming segment, so their Γ
        // terms are stale by the next decision point. Zero-rate flows do
        // not move — in a saturated fabric this keeps the dirty set near
        // O(ports served), not O(coflows).
        if (new_rate > kTiny || new_compress)
          tracker.flow_progressed(f->coflow);
        list_flow(*f, any_port_degraded);
      }
      need_schedule = false;
      coflow_event = false;
      ++round;
      // Post-schedule fold point: the segment is settled (seg_valid just
      // went false above) and nothing is pending, so re-entering the loop
      // top from this state replays the rest of the iteration identically.
      // Checkpointing anywhere else would add fold points the uncrashed
      // run never had and break byte-identity.
      if (ckpt_every_ > 0 && round % ckpt_every_ == 0) checkpoint(t);
    }

    if (!seg_valid) {
      seg_base = t;
      seg_j = 0;
      snapshot_segment();
    }

    // ---- Advance k slices in one closed-form step. ----
    // Interior boundaries are provably eventless: the batch stops at the
    // first boundary where a flow event is due, a timed source is reached
    // (by the test the loop top fires it with) or the stall verdict is due.
    // The slice-stepped reference simply pins k = 1 and therefore visits
    // every boundary — evaluating the same formulas either way.
    std::uint64_t k = 1;
    if (event_mode) {
      std::uint64_t cap =
          seg_min_event_j == kNoEvent ? kNoEvent : seg_min_event_j - seg_j;
      for (const Source s : kSources) {
        const common::Seconds at = source_time(s);
        if (!std::isfinite(at)) continue;
        cap = std::min(
            cap, first_true_near(
                     (at - seg_base) / config.slice - double(seg_j),
                     [&](std::uint64_t n) {
                       return reached(s, at, slice_time(seg_j + n));
                     }));
      }
      if (seg_progress_step <= kTiny && !waiting_on_failed_link())
        cap = std::min(
            cap, static_cast<std::uint64_t>(kMaxStalledSlices - stalled + 1));
      if (seg_has_blocked) cap = 1;
      k = std::max<std::uint64_t>(1, cap);
    }

    const std::uint64_t target = seg_j + k;
    if (seg_min_event_j == target) {
      // Flow events land in slice `target` (the slice starting at
      // target - 1 boundaries past the segment base). seg_flows keeps the
      // coflow-then-flow order of the historical per-slice loop; idle flows
      // have no events.
      const common::Seconds start =
          slice_time(0) + static_cast<double>(target - 1) * config.slice;
      for (const fabric::FlowId fid : seg_flows) {
        FlowSeg& s = seg[fid];
        if (s.epoch != seg_epoch || s.event_j != target) continue;
        fabric::Flow& f = flows[fid];
        SimCoflow& sc = coflows[f.coflow];
        if (s.mode == FlowSeg::kTransmit) {
          const double V0 = s.d0 + s.D0;
          const double w_prev =
              std::min(V0, static_cast<double>(target - 1) * s.step);
          const double wc_prev = std::min(s.D0, w_prev);
          const double v_start = V0 - w_prev;
          const double dc_start = s.D0 - wc_prev;
          const bool whole = v_start <= s.step + kTiny;
          f.sent = s.sent0 + w_prev + v_start;
          f.sent_compressed =
              s.sentc0 + wc_prev +
              (whole ? dc_start : std::min(dc_start, s.step));
          s.epoch = 0;
          finalize_flow(f, sc, start + v_start / s.rate);
        } else {  // kCompress: raw pool exhausted this slice
          const double cc =
              std::min(s.d0, static_cast<double>(target) * s.step);
          f.raw_remaining = 0;
          f.compressed_pending = s.D0 + cc * s.ratio;
          s.epoch = 0;
          need_schedule = true;  // compression finished: hand out a rate
          // The round that switched this flow to compression already left
          // a pending flow_progressed mark, so this re-mark is redundant
          // today — kept so the dirty feed stays correct even if marks
          // are ever consumed between here and that round.
          tracker.flow_progressed(f.coflow);
          if (sink != nullptr) [[unlikely]]
            obs::emit_instant(sink, obs::sim_ts(start), "compression_done",
                              "sim",
                              {{"flow", f.id}, {"coflow", sc.trace_id},
                               {"compressed_bytes", f.compressed_pending}});
          if (f.done()) {
            // Degenerate codec (ratio ~ 0) removed the whole volume.
            const double d_prev = s.d0 -
                std::min(s.d0, static_cast<double>(target - 1) * s.step);
            const double consumed = std::min(d_prev, s.step);
            finalize_flow(f, sc, start + consumed / s.rate);
          }
        }
      }
    }
    if (seg_has_blocked) need_schedule = true;
    retire_finished();

    // Stall accounting, k slices at once: interior slices of a segment all
    // dispose the same seg_progress_step bytes, and a slice with a flow
    // event always has progress (the completing flow's residual volume),
    // so the per-slice verdicts are segment-constant.
    dstats.stalled_flow_slices += seg_stall_count * k;
    if (seg_progress_step <= kTiny && !active.empty()) {
      if (waiting_on_failed_link()) {
        stalled = 0;
      } else {
        stalled += static_cast<std::int64_t>(k);
        if (stalled > kMaxStalledSlices)
          throw SimError("sim: no progress for too long (scheduler " +
                         sched.name() + " deadlocked?)");
      }
    } else {
      stalled = 0;
    }

    seg_j += k;
    maybe_sample(slice_time(seg_j));
  }

  if (!verify_.empty())
    throw recovery::RecoveryError(
        "recovery: journal holds " + std::to_string(verify_.size()) +
        " record(s) the restored run never regenerated (next seq " +
        std::to_string(verify_.front().seq) + ")");
  journal_.close();

  // ---- Emit records. ----
  Metrics metrics;
  metrics.utilization = std::move(samples);
  metrics.degradation = dstats;
  metrics.flows.reserve(flows.size());
  for (const auto& f : flows) {
    FlowRecord rec;
    rec.id = f.id;
    rec.coflow = coflows[f.coflow].trace_id;
    rec.job = coflows[f.coflow].job;
    rec.original_bytes = f.original_bytes;
    rec.wire_bytes = f.sent;
    rec.arrival = f.arrival;
    rec.completion = f.completion;
    metrics.flows.push_back(rec);
  }
  metrics.coflows.reserve(coflows.size());
  for (const auto& sc : coflows) {
    CoflowRecord rec;
    rec.id = sc.trace_id;
    rec.job = sc.job;
    rec.width = sc.state.flows.size();
    rec.arrival = sc.state.arrival;
    rec.completion = sc.state.completion;
    rec.isolation_bound = sc.isolation_bound;
    rec.deadline = sc.state.deadline;
    rec.rejected = sc.state.slo == fabric::SloClass::kRejected;
    for (const fabric::FlowId fid : sc.state.flows) {
      rec.original_bytes += flows[fid].original_bytes;
      rec.wire_bytes += flows[fid].sent;
    }
    metrics.coflows.push_back(rec);
  }
  metrics.slo = sstats;
  return metrics;
}

}  // namespace

Metrics run_simulation(const workload::Trace& trace,
                       const fabric::Fabric& fabric,
                       const cpu::CpuProvider& cpu, sched::Scheduler& sched,
                       const SimConfig& config) {
  if (config.slice <= 0) throw std::invalid_argument("sim: non-positive slice");
  if (!std::isfinite(config.slice))
    throw std::invalid_argument("sim: non-finite slice");
  if (fabric.num_ports() < trace.num_ports)
    throw std::invalid_argument("sim: fabric smaller than trace needs");
  Engine engine(trace, fabric, cpu, sched, config);
  return engine.run();
}

}  // namespace swallow::sim
