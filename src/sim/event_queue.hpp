// 4-ary min-heap of timestamped events, plus FIFO lanes beside it, with
// stable FIFO tie-breaking and O(1) cancellation that releases the
// closure eagerly.
//
// Entries are 16-byte PODs {time, handle}. A handle is
// (sequence << 32) | slot: the sequence numbers pushes from 1 and the
// slot indexes the closure arena. Sequences are unique, so ordering
// entries by (time, handle) orders them by (time, insertion sequence) —
// the binary heap's order, so the event-stream digest is unchanged by
// construction (docs/PERF.md). Four children per node make the heap half
// as deep as a binary one, and the four sit side by side in memory.
//
// A lane is a FIFO of entries whose pushes come in non-decreasing time
// (checked). Each push takes a later sequence than the one before, so a
// lane is sorted by (time, handle) by construction and its front is its
// least entry: a lane push or pop costs O(1), not a sift. pop() and
// next_time() take the least (time, handle) among the heap top and the
// lane fronts, so the pop order is the one a single heap would give.
//
// Closures live in the slot arena, not in the heap or a lane. cancel()
// checks the handle's sequence against its slot and frees the slot (and
// the std::function plus everything it captures) immediately. The entry
// stays behind as a POD tombstone, recognised by the sequence mismatch
// and pruned when it reaches the heap top or a lane front; once at least
// 64 tombstones outnumber live events the survivors are compacted (the
// heap re-heapified, each lane filtered in order), and the last live pop
// drops whatever tombstones remain.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace osap {

/// Handle for a scheduled event; usable to cancel it before it fires.
/// 0 is never issued, so it serves as the "no event" sentinel.
using EventId = std::uint64_t;

class EventQueue {
 public:
  /// Index of a FIFO lane, as add_lane() returned it.
  using Lane = std::uint32_t;

  /// Schedule `fn` at absolute time `t` on the heap. Events at equal
  /// times fire in insertion order.
  EventId push(SimTime t, std::function<void()> fn);

  /// Open a FIFO lane beside the heap.
  Lane add_lane();

  /// Schedule `fn` at `t` on `lane`. `t` must not precede the time of the
  /// lane's last entry; the order events fire in is push()'s.
  EventId push(Lane lane, SimTime t, std::function<void()> fn);

  /// Cancel a pending event, releasing its closure immediately.
  /// Cancelling an already-fired, already-cancelled or never-issued
  /// handle is a harmless no-op: a reused slot carries a later sequence.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Time of the earliest pending event; kTimeNever when empty. Prunes
  /// tombstones off the heap top and lane fronts in passing, hence
  /// non-const.
  [[nodiscard]] SimTime next_time();

  /// Remove and return the earliest pending event.
  /// Precondition: !empty().
  struct Fired {
    SimTime time;
    EventId id;          ///< the handle push() returned
    std::uint64_t seq;   ///< insertion sequence: what the trace digest folds
    std::function<void()> fn;
    /// Heap levels sifted down plus tombstones pruned since the previous
    /// pop (next_time() prunes too): deterministic queue work. A lane
    /// pop sifts nothing.
    std::uint64_t work;
  };
  Fired pop();

  [[nodiscard]] std::size_t pending() const noexcept { return live_; }

  /// Cancelled tombstones still in the heap and the lanes (their closures
  /// are already freed). Bounded by compaction; exposed for the
  /// cancellation-storm stress test.
  [[nodiscard]] std::size_t cancelled_entries() const noexcept { return cancelled_; }

  /// Debug view of pending (time, id) pairs, unordered.
  [[nodiscard]] std::vector<std::pair<SimTime, EventId>> pending_events() const;

 private:
  /// POD heap or lane entry; the closure lives in arena_[slot_of(handle)].
  struct Entry {
    SimTime time;
    EventId handle;
  };
  struct Slot {
    std::function<void()> fn;
    std::uint32_t seq = 0;  ///< sequence of the pending event; 0 = free
    std::uint32_t next_free = kNoSlot;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  [[nodiscard]] static std::uint32_t seq_of(EventId h) noexcept {
    return static_cast<std::uint32_t>(h >> 32);
  }
  [[nodiscard]] static std::uint32_t slot_of(EventId h) noexcept {
    return static_cast<std::uint32_t>(h);
  }
  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    return a.time < b.time || (a.time == b.time && a.handle < b.handle);
  }
  [[nodiscard]] bool stale(const Entry& e) const noexcept {
    return arena_[slot_of(e.handle)].seq != seq_of(e.handle);
  }

  /// Marks the heap as the source of the earliest entry in earliest().
  static constexpr std::size_t kHeap = ~std::size_t{0};

  /// Take a sequence and an arena slot for `fn`; returns the handle.
  EventId allot(std::function<void()> fn);
  void sift_up(std::size_t i, Entry e) noexcept;
  /// Fill the hole at `i` with `e`; returns the levels it moved down.
  std::uint64_t sift_down(std::size_t i, Entry e) noexcept;
  /// Remove heap_[0]; returns the levels the refill sifted down.
  std::uint64_t remove_top() noexcept;
  /// Remove the least entry of `from` (kHeap or a lane index) and
  /// account its queue work.
  void remove_from(std::size_t from) noexcept;
  /// Where the least live entry is: kHeap or a lane index. Removes the
  /// tombstones that come before it. Precondition: live_ > 0.
  std::size_t earliest() noexcept;
  /// Free the slot and the closure in it.
  void release(std::uint32_t slot) noexcept;

  std::vector<Entry> heap_;
  std::vector<std::deque<Entry>> lanes_;
  std::size_t live_ = 0;       ///< pending, non-cancelled events
  std::size_t cancelled_ = 0;  ///< tombstone entries still in heap_ and lanes_
  std::uint64_t work_ = 0;     ///< queue work not yet reported in a Fired

  std::vector<Slot> arena_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 1;
};

}  // namespace osap
