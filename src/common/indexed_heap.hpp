// IndexedMinHeap: a binary min-heap of (key, id) entries, at most one per
// id, that records where each id sits so an entry is re-keyed or removed
// in O(log n) without a search.
//
// Entries order by (key, id), the order a std::set<std::pair<Key, Id>>
// keeps, so top() is that set's begin(): a tie on the key goes to the
// lower id. Only the top is ordered; there is no sorted walk. Ids are
// StrongIds with dense values: the position table is indexed by value,
// and it grows to the largest id ever set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace osap {

template <typename Key, typename Id>
class IndexedMinHeap {
 public:
  struct Entry {
    Key key;
    Id id;
  };

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  /// The least (key, id) entry. Precondition: !empty().
  [[nodiscard]] const Entry& top() const noexcept { return heap_.front(); }

  [[nodiscard]] bool contains(Id id) const noexcept { return position(id) != kAbsent; }
  /// The key `id` is filed under. Precondition: contains(id).
  [[nodiscard]] const Key& key(Id id) const noexcept { return heap_[position(id)].key; }

  /// File `id` under `key`: insert it, or move it from its current key.
  void set(Id id, const Key& key) {
    const std::size_t at = position(id);
    if (at == kAbsent) {
      if (id.value() >= pos_.size()) pos_.resize(id.value() + 1, kAbsent);
      heap_.push_back(Entry{key, id});
      sift_up(heap_.size() - 1);
      return;
    }
    const bool up = key < heap_[at].key;
    heap_[at].key = key;
    if (up) {
      sift_up(at);
    } else {
      sift_down(at);
    }
  }

  /// Remove `id`; an id not filed is a no-op.
  void erase(Id id) {
    const std::size_t at = position(id);
    if (at == kAbsent) return;
    pos_[id.value()] = kAbsent;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (at == heap_.size()) return;
    heap_[at] = last;
    pos_[last.id.value()] = at;
    // The moved entry may belong above or below the hole.
    sift_up(at);
    sift_down(pos_[last.id.value()]);
  }

  /// Whether every entry orders at or after its parent and the position
  /// table agrees with the entries (audits).
  [[nodiscard]] bool valid() const {
    std::size_t filed = 0;
    for (std::size_t p : pos_) filed += p != kAbsent ? 1 : 0;
    if (filed != heap_.size()) return false;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      if (position(heap_[i].id) != i) return false;
      if (i > 0 && before(heap_[i], heap_[(i - 1) / 2])) return false;
    }
    return true;
  }

 private:
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    return a.key < b.key || (a.key == b.key && a.id < b.id);
  }
  [[nodiscard]] std::size_t position(Id id) const noexcept {
    return id.value() < pos_.size() ? pos_[id.value()] : kAbsent;
  }

  void sift_up(std::size_t i) noexcept {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      pos_[heap_[i].id.value()] = i;
      i = parent;
    }
    heap_[i] = e;
    pos_[e.id.value()] = i;
  }

  void sift_down(std::size_t i) noexcept {
    const Entry e = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], e)) break;
      heap_[i] = heap_[child];
      pos_[heap_[i].id.value()] = i;
      i = child;
    }
    heap_[i] = e;
    pos_[e.id.value()] = i;
  }

  std::vector<Entry> heap_;
  /// Heap position by id value; kAbsent when the id is not filed.
  std::vector<std::size_t> pos_;
};

}  // namespace osap
