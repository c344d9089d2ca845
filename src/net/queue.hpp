#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"

/// \file queue.hpp
/// Egress queues: FIFO, strict priority (HOMA), and per-destination
/// virtual output queues (reconfigurable DCN ToRs). They queue 8-byte
/// PacketPool handles; the packets stay in the network's slab, which a
/// queue reads at push (size, priority, destination) and for
/// peek_next. Each is a concrete class that its port owns by value
/// (net/egress_port.hpp): no virtual layer sits between a port and its
/// backlog.

namespace powertcp::net {

/// Plain FIFO: a ring of handles that doubles when full, so it grows
/// to the backlog high-water mark once and then never allocates. Each
/// item keeps the wire bytes its packet was admitted with, so pop reads
/// no slab slot. `pop` hands the oldest handle to the caller and
/// returns true, or returns false and leaves `out` untouched when the
/// queue is empty; `peek_next` is the packet `pop` would produce.
class FifoQueue {
 public:
  explicit FifoQueue(const PacketPool& slab) : slab_(&slab) {}

  void push(PacketPool::Handle h) {
    if (count_ == ring_.size()) grow();
    const std::int64_t wire = slab_->get(h).wire_bytes();
    ring_[(head_ + count_) & (ring_.size() - 1)] = Item{h, wire};
    ++count_;
    bytes_ += wire;
  }
  bool pop(PacketPool::Handle& out) {
    if (count_ == 0) return false;
    const Item& item = ring_[head_];
    out = item.handle;
    bytes_ -= item.wire_bytes;
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
    return true;
  }
  const Packet* peek_next() const {
    return count_ == 0 ? nullptr : &slab_->get(ring_[head_].handle);
  }
  std::int64_t bytes() const { return bytes_; }
  std::size_t packets() const { return count_; }
  bool empty() const { return count_ == 0; }

 private:
  struct Item {
    PacketPool::Handle handle;
    std::int64_t wire_bytes;
  };

  /// Unrolls the full ring into twice the room, oldest first.
  void grow();

  const PacketPool* slab_;
  std::vector<Item> ring_;  ///< size is 0 or a power of two
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::int64_t bytes_ = 0;
};

/// Strict-priority bands (0 = highest), one FIFO each, with the same
/// push/pop/peek_next contract as FifoQueue. HOMA maps
/// unscheduled/scheduled traffic onto these; acks and grants ride
/// band 0.
class PriorityQueue {
 public:
  PriorityQueue(const PacketPool& slab, int bands = 8);

  void push(PacketPool::Handle h);
  bool pop(PacketPool::Handle& out);
  const Packet* peek_next() const;
  std::int64_t bytes() const { return bytes_; }
  std::size_t packets() const { return packets_; }
  bool empty() const { return packets_ == 0; }

  /// Backlog of one band.
  std::int64_t band_bytes(int band) const {
    return bands_.at(static_cast<std::size_t>(band)).bytes();
  }

 private:
  const PacketPool* slab_;
  std::vector<FifoQueue> bands_;
  std::int64_t bytes_ = 0;
  std::size_t packets_ = 0;
};

/// Per-destination-ToR virtual output queues shared between the circuit
/// port and the packet-network uplink of an RDCN ToR, one FIFO each.
/// Both ports pull from this set; the selector policy lives in the
/// ports.
class VoqSet {
 public:
  /// `classify` maps a packet's destination node to a VOQ index
  /// (destination ToR).
  VoqSet(const PacketPool& slab, int n_queues,
         std::function<int(NodeId)> classify);

  void push(PacketPool::Handle h);
  /// Hands the head of `voq` to `out`; false (and `out` untouched) if
  /// that VOQ is empty.
  bool pop_from(int voq, PacketPool::Handle& out);
  const Packet* peek(int voq) const {
    return queues_.at(static_cast<std::size_t>(voq)).peek_next();
  }

  std::int64_t voq_bytes(int voq) const {
    return queues_[static_cast<std::size_t>(voq)].bytes();
  }
  std::int64_t total_bytes() const { return total_bytes_; }
  std::size_t total_packets() const { return total_packets_; }
  int size() const { return static_cast<int>(queues_.size()); }
  int classify(NodeId dst) const { return classify_(dst); }

 private:
  const PacketPool* slab_;
  std::vector<FifoQueue> queues_;
  std::int64_t total_bytes_ = 0;
  std::size_t total_packets_ = 0;
  std::function<int(NodeId)> classify_;
};

}  // namespace powertcp::net
