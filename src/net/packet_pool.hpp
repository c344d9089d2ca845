#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/packet.hpp"

/// \file packet_pool.hpp
/// Generation-checked parking lot for in-flight Packets.
///
/// A Packet is ~350 bytes (mostly the 8-hop INT header), so capturing
/// one by value in an event closure forces a heap allocation per event.
/// Instead the owner parks the packet here and captures only the 8-byte
/// Handle; a later event may read it in place with get() and the last
/// one reclaims it with take(). Generations catch use-after-take and
/// double-take at the call site instead of silently reading recycled
/// storage. Storage grows to the high-water mark of simultaneously
/// in-flight packets and is recycled thereafter — the steady-state path
/// allocates nothing.

namespace powertcp::net {

class PacketPool {
 public:
  struct Handle {
    std::uint32_t index = 0;
    std::uint32_t gen = 0;
  };

  /// Parks a packet; the returned handle redeems it exactly once.
  Handle put(Packet&& pkt) {
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
      entries_[idx].pkt = std::move(pkt);
    } else {
      idx = static_cast<std::uint32_t>(entries_.size());
      entries_.push_back(Entry{std::move(pkt), 1});
    }
    ++live_;
    return Handle{idx, entries_[idx].gen};
  }

  /// Reads a parked packet without redeeming it; the handle stays
  /// valid. The reference dangles after the next put() (storage may
  /// grow), so read what you need before parking anything else.
  /// Throws on stale/foreign handles, as take() does.
  const Packet& get(Handle h) const {
    check(h, "get");
    return entries_[h.index].pkt;
  }

  /// Redeems a handle, freeing its slot. Throws on stale/foreign
  /// handles (double take, or a handle from another pool).
  Packet take(Handle h) {
    check(h, "take");
    Entry& e = entries_[h.index];
    ++e.gen;  // invalidate the redeemed handle
    free_.push_back(h.index);
    --live_;
    return std::move(e.pkt);
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
};

}  // namespace powertcp::net
