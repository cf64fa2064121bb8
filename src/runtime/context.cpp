#include "runtime/context.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

#include "codec/null_codec.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace swallow::runtime {

Cluster::Cluster(const ClusterConfig& config)
    : config_(config),
      codec_(codec::make_codec(config.codec)),
      master_(config.num_workers, config.nic_rate, config.codec_model,
              kCpuHeadroom, config.smart_compress, config.sink,
              config.retry.degrade_after),
      injector_(config.fault, &fault_counters_, config.sink) {
  if (config.num_workers == 0)
    throw std::invalid_argument("Cluster: zero workers");
  if (config.chunk_bytes == 0)
    throw std::invalid_argument("Cluster: zero chunk_bytes");
  chunk_pool_ = std::make_unique<codec::ChunkPool>(config.codec_threads,
                                                   config.sink);
  workers_.reserve(config.num_workers);
  for (std::size_t i = 0; i < config.num_workers; ++i) {
    workers_.push_back(
        std::make_unique<Worker>(static_cast<WorkerId>(i), config.nic_rate));
    workers_.back()->egress_gate().set_holder_timeout(
        config.retry.gate_holder_timeout);
  }
}

Worker& Cluster::worker(WorkerId id) { return *workers_.at(id); }

std::size_t Cluster::total_wire_bytes() const {
  std::size_t total = 0;
  for (const auto& w : workers_) total += w->wire_bytes_sent();
  return total;
}

std::size_t Cluster::total_raw_bytes() const {
  std::size_t total = 0;
  for (const auto& w : workers_) total += w->raw_bytes_sent();
  return total;
}

void Cluster::kill_worker(WorkerId id) {
  if (id >= workers_.size()) return;
  Worker& victim = *workers_[id];
  if (victim.dead()) return;
  std::size_t alive = 0;
  for (const auto& w : workers_)
    if (!w->dead()) ++alive;
  if (alive <= 1) return;  // someone must survive to route around the dead
  victim.mark_dead();
  victim.store().clear();
  fault_counters_.on_injected(FaultKind::kWorkerKill);
  if (config_.sink != nullptr)
    obs::emit_instant(config_.sink, obs::wall_now_us(), "fault.worker_kill",
                      "fault", {{"worker", id}}, obs::kWallPid,
                      obs::current_thread_tid());
}

WorkerId Cluster::effective_worker(WorkerId id) const {
  const auto n = static_cast<WorkerId>(workers_.size());
  for (WorkerId k = 0; k < n; ++k) {
    const WorkerId candidate = static_cast<WorkerId>((id + k) % n);
    if (!workers_[candidate]->dead()) return candidate;
  }
  return id;  // unreachable: kill_worker never kills the last survivor
}

bool Cluster::restore_master(const std::string& dir) {
  const bool from_snapshot = master_.restore_from(dir);

  std::vector<std::map<CoflowRef, std::vector<FlowInfo>>> logs;
  logs.reserve(workers_.size());
  for (const auto& w : workers_) logs.push_back(w->registration_log());

  // remove() forgets a ref on every worker, dead ones included, so a
  // snapshot coflow that no log holds was removed after the snapshot. It
  // must not come back: its flow ids would stay registered.
  for (const CoflowRef ref : master_.coflow_refs())
    if (std::none_of(logs.begin(), logs.end(),
                     [ref](const auto& log) { return log.contains(ref); }))
      master_.remove(ref);

  // Cold half of the fail-over: coflows the snapshot missed (or every
  // coflow, when no snapshot loaded) are re-announced from the live
  // workers' logs, which add() keyed by the original ref.
  std::map<CoflowRef, CoflowInfo> rebuilt;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (workers_[w]->dead()) continue;
    for (const auto& [ref, flows] : logs[w]) {
      if (master_.has_coflow(ref)) continue;
      auto& into = rebuilt[ref].flows;
      into.insert(into.end(), flows.begin(), flows.end());
    }
  }
  for (auto& [ref, info] : rebuilt) master_.restore_coflow(ref, std::move(info));

  if (config_.sink != nullptr)
    obs::emit_instant(config_.sink, obs::wall_now_us(), "master_failover",
                      "recovery",
                      {{"snapshot", from_snapshot},
                       {"reregistered", rebuilt.size()}},
                      obs::kWallPid, obs::current_thread_tid());
  return from_snapshot;
}

FaultStats Cluster::fault_stats() const {
  FaultStats stats = fault_counters_.snapshot();
  for (const auto& w : workers_)
    stats.gate_evictions += w->egress_gate().evictions();
  stats.degraded_flows = master_.degraded_flows();
  return stats;
}

void SwallowContext::register_flow(const FlowInfo& info) {
  std::lock_guard<std::mutex> lock(pending_mutex_);
  pending_.at(info.src).push_back(info);
}

std::vector<FlowInfo> SwallowContext::hook(WorkerId executor) {
  std::lock_guard<std::mutex> lock(pending_mutex_);
  return std::exchange(pending_.at(executor), {});
}

CoflowInfo SwallowContext::aggregate(std::vector<FlowInfo> flows) {
  CoflowInfo info;
  info.flows = std::move(flows);
  return info;
}

CoflowRef SwallowContext::add(CoflowInfo info) {
  const CoflowRef ref = cluster_->master().add(info);
  for (const FlowInfo& f : info.flows) cluster_->worker(f.src).log_flow(ref, f);
  return ref;
}

void SwallowContext::remove(CoflowRef ref) {
  cluster_->master().remove(ref);
  for (WorkerId w = 0; w < cluster_->size(); ++w) {
    cluster_->worker(w).forget(ref);
    cluster_->worker(w).store().drop_coflow(ref);
  }
  cluster_->retention().drop_coflow(ref);
}

SchedResult SwallowContext::scheduling(const std::vector<CoflowRef>& refs) {
  return cluster_->master().scheduling(refs);
}

void SwallowContext::alloc(const SchedResult& result) {
  cluster_->master().alloc(result);
}

bool SwallowContext::transfer_once(CoflowRef ref, BlockId block,
                                   std::span<const std::uint8_t> data,
                                   WorkerId src, WorkerId dst, int attempt,
                                   FrameMemo* memo) {
  FaultInjector& injector = cluster_->injector();
  obs::Tracer* const sink = cluster_->sink();
  // Dead workers are routed around: a killed sender's retained blocks go
  // out through a survivor, a killed receiver's partitions land on its
  // replacement (where the re-pull finds them).
  const WorkerId esrc = cluster_->effective_worker(src);
  const WorkerId edst = cluster_->effective_worker(dst);
  Worker& sender = cluster_->worker(esrc);
  Worker& receiver = cluster_->worker(edst);

  // blockId encodes the flow: the master keyed its decision on it. Blocks
  // travel as checksummed SWF2 chunk frames (codec/chunk.hpp), so wire
  // corruption is detected at pull time rather than silently reducing
  // garbage.
  const FlowDecision decision = cluster_->master().decision_of(block);
  const codec::NullCodec null;
  const codec::Codec& chosen =
      decision.compress ? cluster_->codec()
                        : static_cast<const codec::Codec&>(null);
  // Injected CPU-side failure: only a real compressor can crash; a
  // degraded (uncompressed) flow is immune, which is what makes the
  // degradation ladder terminate.
  if (decision.compress &&
      injector.inject(FaultKind::kCodecFail, block, attempt))
    throw codec::CodecError("injected codec failure");

  Frame* const kept = memo != nullptr ? &(*memo)[decision.compress] : nullptr;
  codec::Buffer wire;
  {
    // Pipelined chunked path (DESIGN.md §14): chunk N crosses the NIC
    // limiters while chunk N+1 encodes on the shared pool, overlapping the
    // paper's compression and transmission stages inside one block. The
    // SWF2 framing is deterministic (byte-identical to the one-shot serial
    // encode), so a frame kept from an earlier target of the same push is
    // the frame this target would encode. Corrupt injection is a pure
    // function of (seed, kind, block, attempt), so flipping bytes on the
    // assembled wire after transfer is equivalent to corrupt-then-send.
    obs::ProfileScope scope(sink, "runtime.push.transfer", "runtime");
    PortGate::Ticket ticket = 0;
    {
      obs::ProfileScope wait(sink, "runtime.push.gate_wait", "runtime");
      ticket =
          sender.egress_gate().acquire({cluster_->master().key_of(ref), ref});
    }
    const auto send = [&](std::span<const std::uint8_t> piece) {
      {
        obs::ProfileScope nic(sink, "runtime.push.nic", "runtime");
        sender.egress().acquire(piece.size());
        receiver.ingress().acquire(piece.size());
      }
      wire.insert(wire.end(), piece.begin(), piece.end());
    };
    std::vector<std::size_t> pieces;  // a fresh encode that will be kept
    try {
      if (kept != nullptr && !kept->pieces.empty()) {
        wire.reserve(kept->bytes.size());
        std::span<const std::uint8_t> rest = kept->bytes;
        for (const std::size_t n : kept->pieces) {
          send(rest.first(n));
          rest = rest.subspan(n);
        }
      } else {
        codec::ChunkEncoder enc(chosen, data, cluster_->config().chunk_bytes,
                                cluster_->chunk_pool(), &cluster_->ledger());
        while (enc.has_next()) {
          codec::Buffer piece;
          {
            obs::ProfileScope wait(sink, "runtime.push.encode_wait",
                                   "runtime");
            piece = enc.next();
          }
          send(piece);
          if (kept != nullptr) pieces.push_back(piece.size());
        }
      }
    } catch (...) {
      sender.egress_gate().release(ticket);
      throw;
    }
    sender.egress_gate().release(ticket);
    wire.shrink_to_fit();
    // Kept only once the whole stream encoded, and before corruption
    // touches this target's copy.
    if (kept != nullptr && !pieces.empty())
      *kept = Frame{wire, std::move(pieces)};
    if (injector.inject(FaultKind::kCorrupt, block, attempt))
      injector.corrupt(wire, block, attempt);
  }

  // Straggler: the frame crossed the NICs but dawdles before landing.
  if (injector.inject(FaultKind::kStall, block, attempt))
    std::this_thread::sleep_for(
        std::chrono::duration<double>(injector.stall_duration()));

  // The bytes crossed the (rate-limited) wire either way; loss happens
  // past the NICs, so dropped and duplicate transfers still cost traffic.
  sender.account_transfer(data.size(), wire.size());

  if (injector.inject(FaultKind::kDrop, block, attempt)) return false;

  receiver.store().put(BlockKey{ref, block}, std::move(wire));

  // Configured kill point: a worker dies right after this delivery. When
  // the victim is this sender and kill_holding_gate is set, it "crashes"
  // while still holding its egress gate on a fresh acquire — the deadlock
  // class the PortGate holder timeout exists to break.
  if (injector.count_delivery_and_check_kill()) {
    const FaultConfig& fc = injector.config();
    if (fc.kill_holding_gate && cluster_->effective_worker(fc.kill_worker) ==
                                    cluster_->effective_worker(esrc)) {
      (void)sender.egress_gate().acquire({0, 0});  // abandoned on purpose
      cluster_->kill_worker(fc.kill_worker);
      return true;  // gate intentionally left busy; eviction recovers it
    }
    cluster_->kill_worker(fc.kill_worker);
  }
  return true;
}

bool SwallowContext::resend(BlockKey key,
                            const RetentionStore::Retained& copy,
                            int attempt) {
  cluster_->fault_counters().on_retransmit();
  try {
    transfer_once(key.coflow, key.block, copy.raw, copy.src, copy.dst,
                  attempt);
    return true;
  } catch (const codec::CodecError&) {
    cluster_->master().record_flow_failure(key.block);
    return false;
  }
}

void SwallowContext::retry_step(ShuffleFailure failure, CoflowRef ref,
                                BlockId block, int attempt,
                                common::Rng& jitter, bool retransmit) {
  const RetryPolicy& retry = cluster_->config().retry;
  if (attempt + 1 >= retry.max_attempts)
    throw ShuffleError(failure, ref, block, block);
  cluster_->fault_counters().on_retry();
  const BlockKey key{ref, block};
  if (retransmit)
    if (const auto copy = cluster_->retention().lookup(key))
      resend(key, *copy, attempt + 1);
  std::this_thread::sleep_for(std::chrono::duration<double>(
      backoff_delay(retry, attempt + 1, jitter)));
}

std::size_t SwallowContext::replay_in_flight() {
  std::size_t replayed = 0;
  for (const BlockKey& key : cluster_->retention().keys()) {
    const auto retained = cluster_->retention().lookup(key);
    if (!retained) continue;  // raced with a remove(); nothing to replay
    const WorkerId edst = cluster_->effective_worker(retained->dst);
    if (cluster_->worker(edst).store().contains(key)) continue;
    if (resend(key, *retained, /*attempt=*/0)) ++replayed;
  }
  return replayed;
}

void SwallowContext::push(CoflowRef ref, const std::vector<PushTarget>& targets,
                          std::span<const std::uint8_t> data, WorkerId src) {
  obs::ProfileScope push_scope(cluster_->sink(), "runtime.push", "runtime");
  // A single target has no later one to share its frame with.
  FrameMemo memo;
  FrameMemo* const shared = targets.size() > 1 ? &memo : nullptr;
  for (const auto& [block, dst] : targets) {
    // Retain before the first attempt so even a sender crash mid-transfer
    // leaves the bytes recoverable (only when faults can actually happen —
    // the disabled path keeps zero copies).
    if (cluster_->injector().enabled())
      cluster_->retention().retain(BlockKey{ref, block}, src, dst, data);

    common::Rng jitter_rng(cluster_->config().fault.seed ^
                           (block * 0x9e37ULL));
    for (int attempt = 0;; ++attempt) {
      try {
        transfer_once(ref, block, data, src, dst, attempt, shared);
        break;  // delivered — or silently lost, which the pull side recovers
      } catch (const codec::CodecError&) {
        cluster_->master().record_flow_failure(block);
        retry_step(ShuffleFailure::kCodecFailure, ref, block, attempt,
                   jitter_rng, /*retransmit=*/false);
      }
    }
  }
}

codec::Buffer SwallowContext::pull(CoflowRef ref, BlockId block, WorkerId dst,
                                   BufferPool* wire_reclaim) {
  obs::ProfileScope pull_scope(cluster_->sink(), "runtime.pull", "runtime");
  const RetryPolicy& retry = cluster_->config().retry;
  common::Rng jitter_rng(cluster_->config().fault.seed ^
                         (block * 0x85ebca6bULL));
  for (int attempt = 0;; ++attempt) {
    const WorkerId edst = cluster_->effective_worker(dst);
    std::optional<codec::Buffer> wire =
        cluster_->worker(edst).store().take_for(BlockKey{ref, block},
                                                retry.pull_timeout);
    if (!wire) {
      cluster_->fault_counters().on_pull_timeout();
      retry_step(ShuffleFailure::kPullTimeout, ref, block, attempt,
                 jitter_rng, /*retransmit=*/true);
      continue;
    }

    codec::Buffer data;
    try {
      obs::ProfileScope scope(cluster_->sink(), "runtime.pull.decompress",
                              "runtime");
      data = codec::chunk_decompress(*wire, cluster_->chunk_pool(),
                                     &cluster_->ledger());
    } catch (const codec::CodecError&) {
      // Wire corruption caught by the frame checksums: count it against
      // the flow (the degradation ladder flips persistent offenders to
      // uncompressed) and ask for a retransmit.
      cluster_->fault_counters().on_corrupt_frame();
      cluster_->master().record_flow_failure(block);
      retry_step(ShuffleFailure::kCorruption, ref, block, attempt,
                 jitter_rng, /*retransmit=*/true);
      continue;
    }
    if (wire_reclaim != nullptr) wire_reclaim->release(std::move(*wire));
    return data;
  }
}

}  // namespace swallow::runtime
