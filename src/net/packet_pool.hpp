#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/packet.hpp"

/// \file packet_pool.hpp
/// The network's packet slab: every in-flight Packet lives here, from
/// the sending host's NIC to the receiving host, and everything in
/// between — queues, VOQs, the serialization and delivery events,
/// Node::receive — carries its 8-byte Handle instead.
///
/// A Packet is ~360 bytes (mostly the 8-hop INT header), so no hop
/// moves it; only its handle travels. Each Network owns one slab and
/// hands it to every node and port it builds.
/// Storage is a list of fixed-size chunks that never move, so a
/// `Packet&` from get()/ref() stays valid until its handle is released,
/// however much the slab grows meanwhile. Generations catch
/// use-after-release and double release at the call site instead of
/// silently reading recycled storage: a released handle is dead, and
/// every access through it throws. The slab starts empty, grows to the
/// high-water mark of simultaneously in-flight packets and recycles
/// slots thereafter — the steady-state path allocates nothing.

namespace powertcp::net {

class PacketPool {
 public:
  struct Handle {
    std::uint32_t index = 0;
    std::uint32_t gen = 0;
  };

  /// Slots per chunk: the unit in which storage grows.
  static constexpr std::uint32_t kChunkSlots = 256;

  /// Parks a packet built elsewhere; the returned handle redeems it
  /// exactly once. This exists for tests that feed a node or port by
  /// hand: the simulator's own senders write their packets in place
  /// through acquire(), which is the one send path.
  Handle put(Packet&& pkt) {
    const Handle h = acquire();
    slot(h.index).pkt = std::move(pkt);
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
      idx = used_++;
      if (idx % kChunkSlots == 0) {
        chunks_.push_back(std::make_unique<Entry[]>(kChunkSlots));
      }
    }
    ++live_;
    return Handle{idx, slot(idx).gen};
  }

  /// Reads a parked packet without redeeming it; the handle stays
  /// valid, and so does the reference until the handle is released.
  /// Throws on stale/foreign handles, as release() does.
  const Packet& get(Handle h) const { return checked(h, "get").pkt; }
  /// Mutable in-place access, under the same rules as get().
  Packet& ref(Handle h) { return checked(h, "ref").pkt; }

  /// Hands the packet parked under `h` on under a fresh handle and
  /// kills `h`, as release() would; the slot and its contents stay put
  /// and live() does not change. A receiver turns a data packet into
  /// its ACK this way. Throws on stale/foreign handles.
  Handle reissue(Handle h) {
    Entry& e = checked(h, "reissue");
    return Handle{h.index, ++e.gen};
  }

  /// Frees a slot. Throws on stale/foreign handles (double release, or
  /// a handle from another pool).
  void release(Handle h) {
    ++checked(h, "release").gen;  // invalidate the redeemed handle
    free_.push_back(h.index);
    --live_;
  }

  /// Hands the parked packet to `fn` by reference and frees the slot
  /// once `fn` returns or throws.
  template <typename Fn>
  void lend(Handle h, Fn&& fn) {
    Packet& pkt = ref(h);
    try {
      std::forward<Fn>(fn)(pkt);
    } catch (...) {
      release(h);
      throw;
    }
    release(h);
  }

  /// Packets currently parked.
  std::size_t live() const { return live_; }
  /// High-water mark of simultaneously parked packets.
  std::size_t capacity() const { return used_; }

 private:
  struct Entry {
    std::uint32_t gen = 1;
    Packet pkt;
  };

  Entry& slot(std::uint32_t idx) const {
    return chunks_[idx / kChunkSlots][idx % kChunkSlots];
  }
  Entry& checked(Handle h, const char* op) const {
    if (h.index >= used_ || slot(h.index).gen != h.gen) {
      throw std::logic_error(std::string("PacketPool::") + op +
                             ": stale handle");
    }
    return slot(h.index);
  }

  std::vector<std::unique_ptr<Entry[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t used_ = 0;  ///< slots ever handed out
  std::size_t live_ = 0;
};

}  // namespace powertcp::net
