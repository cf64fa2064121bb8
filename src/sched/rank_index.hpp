// Addressable ordered index over coflows: the "indexed priority structure"
// of the incremental scheduling core (DESIGN.md section 11).
//
// Every ranking the schedulers use — FVDF's adjusted Γ_C, SEBF's effective
// bottleneck time, Aalo's queue level — reduces to the same strict total
// order: (primary key, arrival, coflow id). RankIndex keeps coflows sorted
// under that order and supports O(log n) decrease/increase-key for the
// coflows a dirty set touches, plus ordered iteration for admission. A full
// sort and an ordered walk of this index therefore produce the *same
// sequence* (the id tiebreak makes the order unique), which is what lets
// the schedulers reproduce a naive per-round sort-and-allocate (the
// test-only reference) bit-for-bit.
#pragma once

#include <cstddef>
#include <map>
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

/// Ordered map keyed on CoflowRankKey with a dense per-coflow handle table,
/// so update/erase by coflow id are O(log n) without a lookup pass. Coflow
/// ids must be dense (the engine's are): the handle table is a flat vector.
class RankIndex {
 public:
  bool contains(fabric::CoflowId id) const {
    return id < present_.size() && present_[id] != 0;
  }

  /// Inserts the coflow or moves it to its new rank (decrease/increase-key).
  /// A re-insert with an unchanged key is a no-op.
  void insert_or_update(fabric::CoflowId id, const CoflowRankKey& key) {
    if (id >= present_.size()) {
      present_.resize(id + 1, 0);
      where_.resize(id + 1);
    }
    if (present_[id] != 0) {
      const CoflowRankKey& cur = where_[id]->first;
      if (!(cur < key) && !(key < cur)) return;
      order_.erase(where_[id]);
    }
    where_[id] = order_.emplace(key, id).first;
    present_[id] = 1;
  }

  void erase(fabric::CoflowId id) {
    if (!contains(id)) return;
    order_.erase(where_[id]);
    present_[id] = 0;
  }

  std::size_t size() const { return order_.size(); }

  void clear() {
    order_.clear();
    where_.clear();
    present_.clear();
  }

  /// Walks coflow ids in ascending key order — the admission order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [key, id] : order_) fn(id);
  }

  /// Like for_each, but `fn` returns false to stop the walk. Greedy
  /// allocators break out the moment the fabric is exhausted instead of
  /// visiting every remaining coflow just to grant it zero.
  template <typename Fn>
  void for_each_while(Fn&& fn) const {
    for (const auto& [key, id] : order_)
      if (!fn(id)) return;
  }

 private:
  using Order = std::map<CoflowRankKey, fabric::CoflowId>;
  Order order_;
  std::vector<Order::iterator> where_;  ///< by coflow id, valid iff present_
  std::vector<char> present_;
};

}  // namespace swallow::sched
