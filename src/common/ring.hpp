// RingQueue: a FIFO over one circular buffer.
//
// std::deque allocates a block each time its back crosses a block
// boundary and frees one each time its front leaves one, so a queue that
// only ever holds a handful of entries still allocates for as long as it
// is used. A ring allocates only when it outgrows its largest size so far
// (doubling), and never shrinks.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace osap {

template <typename T>
class RingQueue {
 public:
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The i-th entry from the front. Precondition: i < size().
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return buf_[wrap(head_ + i)]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return buf_[wrap(head_ + i)];
  }
  [[nodiscard]] const T& front() const noexcept { return buf_[head_]; }
  [[nodiscard]] const T& back() const noexcept { return (*this)[size_ - 1]; }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    buf_[wrap(head_ + size_)] = std::move(value);
    ++size_;
  }

  /// Precondition: !empty().
  void pop_front() noexcept {
    head_ = wrap(head_ + 1);
    --size_;
  }

  /// Remove the i-th entry, keeping the others in order.
  void erase(std::size_t i) {
    for (; i + 1 < size_; ++i) (*this)[i] = std::move((*this)[i + 1]);
    --size_;
  }

  /// Remove every entry `pred` holds for, keeping the rest in order.
  template <typename Pred>
  void erase_if(Pred pred) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      if (pred((*this)[i])) continue;
      if (kept != i) (*this)[kept] = std::move((*this)[i]);
      ++kept;
    }
    size_ = kept;
  }

  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

 private:
  /// Capacity is zero or a power of two, so wrapping is a mask.
  [[nodiscard]] std::size_t wrap(std::size_t i) const noexcept { return i & (buf_.size() - 1); }

  void grow() {
    std::vector<T> bigger(buf_.empty() ? 8 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace osap
