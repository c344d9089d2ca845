#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

/// \file callback.hpp
/// Small-buffer-only callable for the event engine's hot path.
///
/// `std::function<void()>` heap-allocates any capture larger than its
/// (implementation-defined, ~16 byte) inline buffer, which put two
/// allocations on every packet's path through an egress port. Callback
/// instead embeds the closure in the event slot itself and refuses —
/// at compile time — captures that do not fit, so a capture that would
/// silently reintroduce a per-event allocation becomes a build error.
/// Large payloads (the in-flight Packet) travel through a generation-
/// checked pool and the closure captures only the pool handle.

namespace powertcp::sim {

class Callback {
 public:
  /// Inline closure capacity. Sized for the engine's real customers —
  /// a captured `std::function` copy (32 bytes on libstdc++) or a
  /// handful of references/ids, never a whole Packet. With the ops
  /// pointer and the 16-byte buffer alignment a Callback is 64 bytes,
  /// and a Simulator event slot (8-byte seq + Callback) is 80.
  static constexpr std::size_t kCapacity = 48;
  static constexpr std::size_t kAlign = alignof(std::max_align_t);

  Callback() = default;
  Callback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  /// Constructs `f` directly in the inline buffer, destroying any
  /// closure held before. The engine builds each event's closure in its
  /// slot this way, so scheduling moves nothing through temporaries. A
  /// Callback argument is moved in (one relocation).
  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (std::is_same_v<Fn, Callback>) {
      *this = std::forward<F>(f);
    } else {
      static_assert(std::is_invocable_r_v<void, Fn&>,
                    "event callbacks take no arguments");
      static_assert(sizeof(Fn) <= kCapacity,
                    "capture too large for the event slot: move bulky state "
                    "(e.g. a Packet) into a pool and capture the handle");
      static_assert(alignof(Fn) <= kAlign,
                    "over-aligned capture in event callback");
      static_assert(std::is_nothrow_move_constructible_v<Fn>,
                    "event callbacks must be nothrow-movable (slots relocate "
                    "when the slot table grows)");
      reset();
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = ops_for<Fn>();
    }
  }

  Callback(Callback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.buf_, buf_);
        other.ops_ = nullptr;
      }
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

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const { return ops_ != nullptr; }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs the closure at `to` from `from`, destroying the
    /// source (a destructive move, used when the slot table reallocates).
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static const Ops* ops_for() {
    static constexpr Ops kOps = {
        [](void* p) { (*static_cast<Fn*>(p))(); },
        [](void* from, void* to) noexcept {
          Fn* src = static_cast<Fn*>(from);
          ::new (to) Fn(std::move(*src));
          src->~Fn();
        },
        [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
    };
    return &kOps;
  }

  alignas(kAlign) unsigned char buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace powertcp::sim
