// Addressable ordered index over coflows: the "indexed priority structure"
// of the incremental scheduling core (DESIGN.md section 11).
//
// Every ranking the schedulers use — FVDF's adjusted Γ_C, SEBF's effective
// bottleneck time, Aalo's queue level — reduces to the same strict total
// order: (primary key, arrival, coflow id). RankIndex keeps coflows in a
// flat array sorted under that order and settles it lazily: a re-key or
// erase is O(1) (store the key, mark the coflow moved), and the first walk
// after a change drops the moved coflows' entries, sorts only the k keys
// still present and merges them back, O(n + k log k). A full sort and an
// ordered walk of this index therefore produce the *same sequence* (the id
// tiebreak makes the order unique), which is what lets the schedulers
// reproduce a naive per-round sort-and-allocate (the test-only reference)
// bit-for-bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "fabric/coflow.hpp"

namespace swallow::sched {

/// The shared ranking key. `primary` compares exactly like the schedulers'
/// historical sort comparators: infinities tie (a down-link coflow ranks by
/// arrival among its peers), and the id tiebreak makes the order total.
struct CoflowRankKey {
  double primary = 0;  ///< adjusted Γ_C / SEBF Γ / Aalo queue level
  common::Seconds arrival = 0;
  fabric::CoflowId id = 0;

  bool operator<(const CoflowRankKey& o) const {
    if (primary != o.primary) return primary < o.primary;
    if (arrival != o.arrival) return arrival < o.arrival;
    return id < o.id;
  }
};

/// Sorted array of CoflowRankKey with a dense per-coflow key table. Coflow
/// ids must be dense (the engine's are): the key table is a flat vector.
/// Every buffer is reused, so a steady-state walk allocates nothing.
class RankIndex {
 public:
  bool contains(fabric::CoflowId id) const {
    return id < slots_.size() && slots_[id].present;
  }

  /// Inserts the coflow or moves it to its new rank (decrease/increase-key).
  /// A re-insert with an unchanged key is a no-op.
  void insert_or_update(fabric::CoflowId id, const CoflowRankKey& key) {
    if (id >= slots_.size()) slots_.resize(id + 1);
    Slot& s = slots_[id];
    if (s.present) {
      if (!(s.key < key) && !(key < s.key)) return;
    } else {
      s.present = true;
      ++size_;
    }
    s.key = key;
    mark_moved(id);
  }

  void erase(fabric::CoflowId id) {
    if (!contains(id)) return;
    slots_[id].present = false;
    --size_;
    mark_moved(id);
  }

  std::size_t size() const { return size_; }

  void clear() {
    sorted_.clear();
    slots_.clear();
    moved_.clear();
    size_ = 0;
  }

  /// Walks coflow ids in ascending key order — the admission order.
  template <typename Fn>
  void for_each(Fn&& fn) {
    settle();
    for (const CoflowRankKey& k : sorted_) fn(k.id);
  }

  /// Like for_each, but `fn` returns false to stop the walk. Greedy
  /// allocators break out the moment the fabric is exhausted instead of
  /// visiting every remaining coflow just to grant it zero.
  template <typename Fn>
  void for_each_while(Fn&& fn) {
    settle();
    for (const CoflowRankKey& k : sorted_)
      if (!fn(k.id)) return;
  }

 private:
  struct Slot {
    CoflowRankKey key;     ///< current key, valid iff present
    bool present = false;
    bool moved = false;    ///< listed in moved_: sorted_ may be stale for it
  };

  void mark_moved(fabric::CoflowId id) {
    if (slots_[id].moved) return;
    slots_[id].moved = true;
    moved_.push_back(id);
  }

  // Drops every moved coflow's old entry, then merges the present ones back
  // at their current keys. Keys are unique, so the result is the one
  // sorted sequence of the present keys.
  void settle() {
    if (moved_.empty()) return;
    // One pass keeps the unmoved entries and collects the moved coflows'
    // current keys in their old order. Keys mostly drift a little between
    // walks (a served coflow's Γ shrinks as it drains), so the collected
    // keys arrive nearly sorted and the sort below is cheap.
    fresh_.clear();
    std::size_t kept = 0;
    for (const CoflowRankKey& k : sorted_) {
      Slot& s = slots_[k.id];
      if (!s.moved) {
        sorted_[kept++] = k;
        continue;
      }
      s.moved = false;
      if (s.present) fresh_.push_back(s.key);
    }
    sorted_.resize(kept);
    // Coflows still marked had no entry: they were inserted since the last
    // walk.
    for (const fabric::CoflowId id : moved_) {
      Slot& s = slots_[id];
      if (!s.moved) continue;
      s.moved = false;
      if (s.present) fresh_.push_back(s.key);
    }
    moved_.clear();
    std::sort(fresh_.begin(), fresh_.end());
    merged_.resize(sorted_.size() + fresh_.size());
    std::merge(sorted_.begin(), sorted_.end(), fresh_.begin(), fresh_.end(),
               merged_.begin());
    sorted_.swap(merged_);
  }

  std::vector<CoflowRankKey> sorted_;  ///< settled walk order
  std::vector<Slot> slots_;            ///< by coflow id
  std::vector<fabric::CoflowId> moved_;
  std::vector<CoflowRankKey> fresh_;   ///< settle buffer: moved keys
  std::vector<CoflowRankKey> merged_;  ///< settle buffer: merge target
  std::size_t size_ = 0;
};

}  // namespace swallow::sched
