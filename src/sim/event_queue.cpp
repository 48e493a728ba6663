#include "sim/event_queue.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace osap {

namespace {

constexpr std::size_t kArity = 4;

/// Tombstones are compacted away only past this floor, so small queues
/// skip the churn.
constexpr std::size_t kMinTombstones = 64;

}  // namespace

EventId EventQueue::allot(Callback&& fn) {
  // The sequence fills the handle's upper 32 bits. Every pending event
  // holds its own sequence, so the arena never outgrows 32-bit slots.
  OSAP_CHECK_MSG(next_seq_ <= ~std::uint32_t{0}, "event sequence overflow after "
                                                     << next_seq_ - 1 << " events");
  const auto seq = static_cast<std::uint32_t>(next_seq_++);

  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = arena_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(arena_.size());
    arena_.emplace_back();
  }
  arena_[slot].fn = std::move(fn);
  arena_[slot].seq = seq;
  ++live_;
  return (EventId{seq} << 32) | slot;
}

EventId EventQueue::push(SimTime t, Callback&& fn) {
  OSAP_CHECK_MSG(t >= 0 && t < kTimeNever, "event time must be finite, got " << t);
  const EventId id = allot(std::move(fn));
  heap_.push_back(Entry{t, id});
  sift_up(heap_.size() - 1, heap_.back());
  return id;
}

EventQueue::Lane EventQueue::add_lane() {
  lanes_.emplace_back();
  return static_cast<Lane>(lanes_.size() - 1);
}

EventId EventQueue::push(Lane lane, SimTime t, Callback&& fn) {
  OSAP_CHECK_MSG(t >= 0 && t < kTimeNever, "event time must be finite, got " << t);
  OSAP_CHECK_MSG(lane < lanes_.size(), "no lane " << lane);
  RingQueue<Entry>& fifo = lanes_[lane];
  // Non-decreasing times plus increasing sequences keep the lane sorted
  // by (time, handle), which is what lets pop() read only its front.
  OSAP_CHECK_MSG(fifo.empty() || fifo.back().time <= t,
                 "lane " << lane << " push at " << t << " precedes its tail at "
                         << fifo.back().time);
  const EventId id = allot(std::move(fn));
  fifo.push_back(Entry{t, id});
  return id;
}

void EventQueue::cancel(EventId id) {
  // Periodic re-arm patterns cancel their own just-fired timer; such a
  // handle's slot is free (seq 0) or holds a later event. Sequence 0 is
  // never issued, which covers the 0 sentinel.
  const std::uint32_t slot = slot_of(id);
  if (seq_of(id) == 0 || slot >= arena_.size() || arena_[slot].seq != seq_of(id)) return;
  release(slot);
  --live_;
  ++cancelled_;
  if (cancelled_ >= kMinTombstones && cancelled_ > live_) {
    const auto dead = [this](const Entry& e) { return stale(e); };
    // Floyd's heapify of the survivors, deepest node first. Filtering a
    // lane keeps it in order, hence sorted.
    std::erase_if(heap_, dead);
    for (std::size_t i = heap_.size(); i-- > 0;) sift_down(i, heap_[i]);
    for (RingQueue<Entry>& fifo : lanes_) fifo.erase_if(dead);
    cancelled_ = 0;
  }
}

void EventQueue::release(std::uint32_t slot) noexcept {
  arena_[slot].fn = nullptr;
  arena_[slot].seq = 0;
  arena_[slot].next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::sift_up(std::size_t i, Entry e) noexcept {
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

std::uint64_t EventQueue::sift_down(std::size_t i, Entry e) noexcept {
  const std::size_t n = heap_.size();
  std::uint64_t levels = 0;
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
    ++levels;
  }
  heap_[i] = e;
  return levels;
}

std::uint64_t EventQueue::remove_top() noexcept {
  const Entry last = heap_.back();
  heap_.pop_back();
  return heap_.empty() ? 0 : sift_down(0, last);
}

void EventQueue::remove_from(std::size_t from) noexcept {
  if (from == kHeap) {
    work_ += remove_top();
  } else {
    lanes_[from].pop_front();
  }
}

std::size_t EventQueue::earliest() noexcept {
  for (;;) {
    std::size_t from = kHeap;
    const Entry* best = heap_.empty() ? nullptr : &heap_.front();
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      const RingQueue<Entry>& fifo = lanes_[i];
      if (!fifo.empty() && (best == nullptr || before(fifo.front(), *best))) {
        best = &fifo.front();
        from = i;
      }
    }
    if (!stale(*best)) return from;
    remove_from(from);
    ++work_;
    --cancelled_;
  }
}

SimTime EventQueue::next_time() {
  if (live_ == 0) return kTimeNever;
  const std::size_t from = earliest();
  return from == kHeap ? heap_.front().time : lanes_[from].front().time;
}

std::vector<std::pair<SimTime, EventId>> EventQueue::pending_events() const {
  std::vector<std::pair<SimTime, EventId>> out;
  out.reserve(live_);
  const auto collect = [&](const Entry& e) {
    if (!stale(e)) out.emplace_back(e.time, e.handle);
  };
  for (const Entry& e : heap_) collect(e);
  for (const RingQueue<Entry>& fifo : lanes_) {
    for (std::size_t i = 0; i < fifo.size(); ++i) collect(fifo[i]);
  }
  return out;
}

EventQueue::Fired EventQueue::pop() {
  OSAP_CHECK(live_ > 0);
  const std::size_t from = earliest();
  const Entry top = from == kHeap ? heap_.front() : lanes_[from].front();
  remove_from(from);
  const std::uint32_t slot = slot_of(top.handle);
  Fired fired{top.time, top.handle, seq_of(top.handle), std::move(arena_[slot].fn),
              std::exchange(work_, 0)};
  release(slot);
  if (--live_ == 0) {
    // Whatever is left is tombstones.
    heap_.clear();
    for (RingQueue<Entry>& fifo : lanes_) fifo.clear();
    cancelled_ = 0;
  }
  return fired;
}

}  // namespace osap
