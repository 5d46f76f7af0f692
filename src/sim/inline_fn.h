// InlineFn: a move-only `void()` callable with small-buffer storage.
//
// Every event the simulator schedules used to be a std::function, and
// libstdc++ only stores pointer-like callables inline - every lambda
// capturing as little as a coroutine handle heap-allocated. The event
// queue is the hottest loop in the simulator, so InlineFn gives closures
// up to kInlineSize bytes (88, covering every capture in sim/, gpu/ and
// pcie/) inline storage inside the event queue's callback slot; larger
// callables fall back to a single heap allocation.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace pg::sim {

class InlineFn {
 public:
  /// Closures up to this size (and max_align_t alignment) are stored
  /// inline; anything larger goes through one heap allocation. 88 bytes
  /// covers every closure the simulator schedules on its hot paths,
  /// including the PCIe fabric's read-completion continuations.
  static constexpr std::size_t kInlineSize = 88;

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_))
          Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  InlineFn(InlineFn&& other) noexcept : ops_(other.ops_) {
    if (ops_) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_) {
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Destroys the callable, leaving this empty.
  void reset() noexcept {
    if (ops_) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs `dst` from `src` and destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* self) { (*static_cast<Fn*>(self))(); },
      [](void* dst, void* src) noexcept {
        Fn* s = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
      },
      [](void* self) noexcept { static_cast<Fn*>(self)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* self) { (**static_cast<Fn**>(self))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* self) noexcept { delete *static_cast<Fn**>(self); },
  };

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace pg::sim
