// Callback: the move-only `void()` closure every scheduled event holds.
//
// An event's closure lives in the queue's slot arena from push to pop.
// A closure of up to kInlineBytes is built in the Callback itself, so
// scheduling it allocates nothing; that covers the heartbeat's status
// closure (the tracker plus a TrackerStatus), the largest one the model
// schedules on every period. A larger closure, an over-aligned one, or one
// whose move may throw is built on the heap and the Callback holds the
// pointer. Moving a Callback moves the closure (or the pointer); a
// closure whose bytes can be copied as they are is moved by one memcpy.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace osap {

class Callback {
 public:
  /// Inline capacity in bytes: the heartbeat status closure fits.
  static constexpr std::size_t kInlineBytes = 64;

  /// Whether a closure of type F is stored inline (no heap allocation).
  template <typename F>
  [[nodiscard]] static constexpr bool stores_inline() noexcept {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineBytes && alignof(D) <= kAlign &&
           std::is_nothrow_move_constructible_v<D>;
  }

  Callback() noexcept = default;

  template <typename F, typename D = std::decay_t<F>>
    requires(!std::is_same_v<D, Callback> && std::is_invocable_r_v<void, D&>)
  Callback(F&& f) {  // NOLINT(google-explicit-constructor): closures convert implicitly
    if constexpr (stores_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInline<D>;
    } else {
      D* on_heap = new D(std::forward<F>(f));
      std::memcpy(buf_, &on_heap, sizeof on_heap);
      ops_ = &kHeap<D>;
    }
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }
  /// Run the closure. Precondition: it holds one.
  void operator()() { ops_->invoke(buf_); }

  /// True when the closure lives on the heap (tests, diagnostics).
  [[nodiscard]] bool on_heap() const noexcept { return ops_ != nullptr && ops_->heap; }

 private:
  static constexpr std::size_t kAlign = alignof(void*);

  struct Ops {
    void (*invoke)(void* buf);
    /// Move the closure in `src` into the raw buffer `dst` and end the
    /// source's lifetime; nullptr when copying the bytes does both.
    void (*relocate)(void* dst, void* src) noexcept;
    /// End the closure's lifetime; nullptr when there is nothing to do.
    void (*destroy)(void* buf) noexcept;
    bool heap;
  };

  template <typename D>
  static constexpr Ops kInline{
      [](void* buf) { (*std::launder(static_cast<D*>(buf)))(); },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              D* from = std::launder(static_cast<D*>(src));
              ::new (dst) D(std::move(*from));
              from->~D();
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* buf) noexcept { std::launder(static_cast<D*>(buf))->~D(); },
      false};

  template <typename D>
  static D* heap_ptr(void* buf) noexcept {
    D* p;
    std::memcpy(&p, buf, sizeof p);
    return p;
  }

  template <typename D>
  static constexpr Ops kHeap{[](void* buf) { (*heap_ptr<D>(buf))(); }, nullptr,
                             [](void* buf) noexcept { delete heap_ptr<D>(buf); }, true};

  void take(Callback& other) noexcept {
    ops_ = std::exchange(other.ops_, nullptr);
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  alignas(kAlign) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace osap
