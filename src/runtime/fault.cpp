#include "runtime/fault.hpp"

#include <algorithm>

#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace swallow::runtime {

common::Seconds backoff_delay(const RetryPolicy& retry, int attempt,
                              common::Rng& rng) {
  double delay = retry.base_backoff;
  for (int i = 1; i < attempt; ++i) delay *= retry.backoff_multiplier;
  delay = std::min(delay, retry.max_backoff);
  return delay * (1.0 - retry.jitter * rng.uniform());
}

const char* shuffle_failure_name(ShuffleFailure kind) {
  switch (kind) {
    case ShuffleFailure::kVerification: return "verification";
    case ShuffleFailure::kPullTimeout: return "pull_timeout";
    case ShuffleFailure::kCorruption: return "corruption";
    case ShuffleFailure::kCodecFailure: return "codec_failure";
  }
  return "unknown";
}

ShuffleError::ShuffleError(ShuffleFailure kind, CoflowRef coflow,
                           RtFlowId flow, BlockId block)
    : std::runtime_error(std::string("shuffle: ") +
                         shuffle_failure_name(kind) + " (coflow " +
                         std::to_string(coflow) + ", flow " +
                         std::to_string(flow) + ", block " +
                         std::to_string(block) + ")"),
      kind_(kind),
      coflow_(coflow),
      flow_(flow),
      block_(block) {}

void FaultCounters::on_injected(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop: drops_.fetch_add(1); break;
    case FaultKind::kCorrupt: corruptions_.fetch_add(1); break;
    case FaultKind::kStall: stalls_.fetch_add(1); break;
    case FaultKind::kCodecFail: codec_failures_.fetch_add(1); break;
    case FaultKind::kWorkerKill: kills_.fetch_add(1); break;
  }
}

void FaultCounters::on_retry() { retries_.fetch_add(1); }

void FaultCounters::on_retransmit() { retransmits_.fetch_add(1); }

void FaultCounters::on_corrupt_frame() { corrupt_frames_.fetch_add(1); }

void FaultCounters::on_pull_timeout() { pull_timeouts_.fetch_add(1); }

FaultStats FaultCounters::snapshot() const {
  FaultStats stats;
  stats.injected_drops = drops_.load();
  stats.injected_corruptions = corruptions_.load();
  stats.injected_stalls = stalls_.load();
  stats.injected_codec_failures = codec_failures_.load();
  stats.worker_kills = kills_.load();
  stats.retries = retries_.load();
  stats.retransmits = retransmits_.load();
  stats.corrupt_frames = corrupt_frames_.load();
  stats.pull_timeouts = pull_timeouts_.load();
  return stats;
}

FaultInjector::FaultInjector(const FaultConfig& config,
                             FaultCounters* counters, obs::Tracer* sink)
    : config_(config), counters_(counters), sink_(sink) {}

double FaultInjector::rate_of(FaultKind kind) const {
  switch (kind) {
    case FaultKind::kDrop: return config_.drop_rate;
    case FaultKind::kCorrupt: return config_.corrupt_rate;
    case FaultKind::kStall: return config_.stall_rate;
    case FaultKind::kCodecFail: return config_.codec_fail_rate;
    case FaultKind::kWorkerKill: return 0;  // point-triggered, not a rate
  }
  return 0;
}

bool FaultInjector::fires(FaultKind kind, BlockId block, int attempt) const {
  if (!config_.enabled) return false;
  const double rate = rate_of(kind);
  if (rate <= 0) return false;
  common::Rng rng(common::mix64(config_.seed,
                                static_cast<std::uint64_t>(kind) + 1, block,
                                static_cast<std::uint64_t>(attempt)));
  return rng.uniform() < rate;
}

bool FaultInjector::inject(FaultKind kind, BlockId block, int attempt) {
  if (!fires(kind, block, attempt)) return false;
  if (counters_ != nullptr) counters_->on_injected(kind);
  static constexpr const char* kEventNames[] = {
      "fault.drop", "fault.corrupt", "fault.stall", "fault.codec_fail",
      "fault.worker_kill"};
  if (sink_ != nullptr)
    obs::emit_instant(sink_, obs::wall_now_us(),
                      kEventNames[static_cast<std::uint8_t>(kind)], "fault",
                      {{"block", block}, {"attempt", attempt}},
                      obs::kWallPid, obs::current_thread_tid());
  return true;
}

void FaultInjector::corrupt(std::span<std::uint8_t> wire, BlockId block,
                            int attempt) const {
  // Frame layout: 4-byte magic, then sizes / codec ids / checksums /
  // payload. Flip one byte past the magic so decoding proceeds far enough
  // to hit the per-record validation instead of dying on is_chunk_frame().
  constexpr std::size_t kMagicBytes = 4;
  if (wire.size() <= kMagicBytes) return;
  const std::uint64_t h = common::mix64(config_.seed, 0x5bd1e995, block,
                                        static_cast<std::uint64_t>(attempt));
  const std::size_t offset =
      kMagicBytes + static_cast<std::size_t>(h % (wire.size() - kMagicBytes));
  wire[offset] ^= 0xFF;
}

bool FaultInjector::count_delivery_and_check_kill() {
  const std::size_t delivered = deliveries_.fetch_add(1) + 1;
  if (!config_.enabled || !config_.kill_enabled) return false;
  if (delivered < config_.kill_after_deliveries) return false;
  if (kill_fired_.exchange(true)) return false;
  return true;
}

void RetentionStore::retain(BlockKey key, WorkerId src, WorkerId dst,
                            std::span<const std::uint8_t> raw) {
  Retained entry{src, dst, codec::Buffer(raw.begin(), raw.end())};
  std::lock_guard<std::mutex> lock(mutex_);
  blocks_[key] = std::move(entry);
}

std::optional<RetentionStore::Retained> RetentionStore::lookup(
    BlockKey key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = blocks_.find(key);
  if (it == blocks_.end()) return std::nullopt;
  return it->second;
}

std::vector<BlockKey> RetentionStore::keys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<BlockKey> out;
  out.reserve(blocks_.size());
  for (const auto& [key, retained] : blocks_) out.push_back(key);
  return out;
}

std::size_t RetentionStore::drop_coflow(CoflowRef coflow) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t freed = 0;
  for (auto it = blocks_.lower_bound({coflow, 0});
       it != blocks_.end() && it->first.coflow == coflow;) {
    freed += it->second.raw.size();
    it = blocks_.erase(it);
  }
  return freed;
}

std::size_t RetentionStore::block_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return blocks_.size();
}

std::size_t RetentionStore::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [key, entry] : blocks_) total += entry.raw.size();
  return total;
}

}  // namespace swallow::runtime
