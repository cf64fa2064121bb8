#include "runtime/block_store.hpp"

#include <chrono>
#include <cstring>
#include <ctime>

namespace swallow::runtime {

void BlockStore::put(BlockKey key, codec::Buffer data) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    resident_bytes_ += data.size();
    auto [it, inserted] = blocks_.try_emplace(key, std::move(data));
    if (!inserted) {
      resident_bytes_ -= it->second.size();
      it->second = std::move(data);
    }
  }
  cv_.notify_all();
}

std::optional<codec::Buffer> BlockStore::take_for(BlockKey key,
                                                  common::Seconds timeout) {
  // Absolute deadline computed once, then a wait_until loop: a spurious
  // wakeup re-waits for the *remaining* time instead of granting the full
  // timeout again (the drift a bare wait_for in a loop would accumulate).
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout));
  std::unique_lock<std::mutex> lock(mutex_);
  while (blocks_.count(key) == 0) {
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
        blocks_.count(key) == 0)
      return std::nullopt;
  }
  auto it = blocks_.find(key);
  codec::Buffer data = std::move(it->second);
  resident_bytes_ -= data.size();
  blocks_.erase(it);
  return data;
}

bool BlockStore::contains(BlockKey key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return blocks_.count(key) > 0;
}

std::size_t BlockStore::drop_coflow(CoflowRef coflow) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t freed = 0;
  for (auto it = blocks_.lower_bound({coflow, 0});
       it != blocks_.end() && it->first.coflow == coflow;) {
    freed += it->second.size();
    it = blocks_.erase(it);
  }
  resident_bytes_ -= freed;
  return freed;
}

std::size_t BlockStore::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t freed = resident_bytes_;
  blocks_.clear();
  resident_bytes_ = 0;
  return freed;
}

std::size_t BlockStore::block_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return blocks_.size();
}

std::size_t BlockStore::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_bytes_;
}

codec::Buffer BufferPool::allocate(std::size_t bytes) {
  codec::Buffer buffer(bytes);
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.allocations;
  stats_.bytes_allocated += bytes;
  return buffer;
}

void BufferPool::release(codec::Buffer buffer) {
  // Thread CPU time: reclaim cost must not include preemption by the
  // transfer threads sharing the core.
  timespec ts0{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts0);
  // Scrub before returning memory: byte-proportional reclaim work, the
  // runtime's analog of a collector touching the dead buffer.
  if (!buffer.empty()) std::memset(buffer.data(), 0, buffer.size());
  const std::size_t bytes = buffer.size();
  buffer.clear();
  buffer.shrink_to_fit();
  timespec ts1{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts1);
  const double elapsed = static_cast<double>(ts1.tv_sec - ts0.tv_sec) +
                         static_cast<double>(ts1.tv_nsec - ts0.tv_nsec) * 1e-9;

  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.releases;
  stats_.bytes_released += bytes;
  stats_.reclaim_time += elapsed;
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace swallow::runtime
