#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/packet.hpp"

/// \file packet_pool.hpp
/// Generation-checked parking lot for in-flight Packets.
///
/// A Packet is ~350 bytes (mostly the 8-hop INT header), so capturing
/// one by value in an event closure forces a heap allocation per event.
/// Instead the owner parks the packet here and captures only the 8-byte
/// Handle; a later event may read or fill it in place with get()/ref()
/// and the last one hands it on with lend() or frees it with release().
/// Generations catch use-after-release and double release at the call
/// site instead of silently reading recycled storage. Storage grows to
/// the high-water mark of simultaneously in-flight packets and is
/// recycled thereafter — the steady-state path allocates nothing.

namespace powertcp::net {

class PacketPool {
 public:
  struct Handle {
    std::uint32_t index = 0;
    std::uint32_t gen = 0;
  };

  /// Parks a packet; the returned handle redeems it exactly once.
  Handle put(Packet&& pkt) {
    const Handle h = acquire();
    entries_[h.index].pkt = std::move(pkt);
    return h;
  }

  /// Claims a slot without filling it: the caller writes the packet in
  /// place through ref(), so nothing is moved through a temporary. The
  /// slot's contents are unspecified until then.
  Handle acquire() {
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      // Growth may reallocate, which would leave a lent reference
      // dangling; a recycled slot never moves the others.
      if (lending_ != 0) {
        throw std::logic_error(
            "PacketPool: storage must not grow while a slot is lent");
      }
      idx = static_cast<std::uint32_t>(entries_.size());
      entries_.emplace_back();
    }
    ++live_;
    return Handle{idx, entries_[idx].gen};
  }

  /// Reads a parked packet without redeeming it; the handle stays
  /// valid. The reference dangles after the next put() or acquire()
  /// (storage may grow), so read what you need before parking anything
  /// else. Throws on stale/foreign handles, as release() does.
  const Packet& get(Handle h) const {
    check(h, "get");
    return entries_[h.index].pkt;
  }
  /// Mutable in-place access, under the same rules as get().
  Packet& ref(Handle h) {
    check(h, "ref");
    return entries_[h.index].pkt;
  }

  /// Frees a slot. Throws on stale/foreign handles (double release, or
  /// a handle from another pool).
  void release(Handle h) {
    check(h, "release");
    ++entries_[h.index].gen;  // invalidate the redeemed handle
    free_.push_back(h.index);
    --live_;
  }

  /// Hands the parked packet to `fn` by reference — it may move from
  /// it — and frees the slot once `fn` returns or throws. While `fn`
  /// runs, growing this pool throws std::logic_error instead of
  /// leaving the lent reference dangling.
  template <typename Fn>
  void lend(Handle h, Fn&& fn) {
    Packet& pkt = ref(h);
    ++lending_;
    try {
      std::forward<Fn>(fn)(pkt);
    } catch (...) {
      --lending_;
      release(h);
      throw;
    }
    --lending_;
    release(h);
  }

  /// Packets currently parked.
  std::size_t live() const { return live_; }
  /// High-water mark of simultaneously parked packets.
  std::size_t capacity() const { return entries_.size(); }

 private:
  struct Entry {
    Packet pkt;
    std::uint32_t gen = 1;
  };
  void check(Handle h, const char* op) const {
    if (h.index >= entries_.size() || entries_[h.index].gen != h.gen) {
      throw std::logic_error(std::string("PacketPool::") + op +
                             ": stale handle");
    }
  }

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  /// lend() calls in progress; growth is refused while nonzero.
  std::uint32_t lending_ = 0;
};

}  // namespace powertcp::net
