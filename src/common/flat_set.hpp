#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace osap {

/// Sorted vector of strong ids with set semantics: ascending iteration,
/// no duplicates. The hot-path indexes (per-job task sets, the running-job
/// set) hold at most a few dozen elements, where a contiguous vector beats
/// a node-based tree on every operation that matters — iteration most of
/// all, and these sets are iterated on every heartbeat (docs/PERF.md).
/// Iteration order is identical to std::set over the same ids, so swapping
/// one for the other cannot perturb the event stream.
template <typename Id>
class FlatIdSet {
 public:
  using const_iterator = typename std::vector<Id>::const_iterator;

  [[nodiscard]] const_iterator begin() const noexcept { return v_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return v_.end(); }
  [[nodiscard]] bool empty() const noexcept { return v_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
  /// The i-th smallest id; lets a walk step by position while the set
  /// drops the element it is visiting.
  [[nodiscard]] Id operator[](std::size_t i) const noexcept { return v_[i]; }

  [[nodiscard]] bool contains(Id id) const noexcept {
    const auto it = std::lower_bound(v_.begin(), v_.end(), id);
    return it != v_.end() && *it == id;
  }

  /// Insert keeping order; duplicate inserts are no-ops (set semantics).
  void insert(Id id) {
    const auto it = std::lower_bound(v_.begin(), v_.end(), id);
    if (it == v_.end() || *it != id) v_.insert(it, id);
  }

  /// Erase by value; absent ids are a no-op.
  void erase(Id id) {
    const auto it = std::lower_bound(v_.begin(), v_.end(), id);
    if (it != v_.end() && *it == id) v_.erase(it);
  }

  [[nodiscard]] friend bool operator==(const FlatIdSet& a, const FlatIdSet& b) {
    return a.v_ == b.v_;
  }

 private:
  std::vector<Id> v_;
};

}  // namespace osap
