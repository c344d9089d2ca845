#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"

/// \file queue.hpp
/// Egress queueing disciplines: FIFO, strict priority (HOMA), and
/// per-destination virtual output queues (reconfigurable DCN ToRs).
/// They queue 8-byte PacketPool handles; the packets stay in the
/// network's slab, which each queue reads for byte accounting and
/// peek_next.

namespace powertcp::net {

/// Interface for an egress buffer of slab handles. `pop` hands the
/// oldest eligible handle to the caller and returns true, or returns
/// false and leaves `out` untouched when the buffer is empty.
/// `peek_next` must agree with the packet `pop` would produce (used to
/// compute serialization time before committing).
class QueueDiscipline {
 public:
  virtual ~QueueDiscipline() = default;

  virtual void push(PacketPool::Handle h) = 0;
  virtual bool pop(PacketPool::Handle& out) = 0;
  virtual const Packet* peek_next() const = 0;
  virtual std::int64_t bytes() const = 0;
  virtual std::size_t packets() const = 0;
  bool empty() const { return packets() == 0; }
};

/// Plain FIFO: a ring of handles that doubles when full, so it grows
/// to the backlog high-water mark once and then never allocates.
class FifoQueue final : public QueueDiscipline {
 public:
  explicit FifoQueue(const PacketPool& slab) : slab_(&slab) {}

  void push(PacketPool::Handle h) override;
  bool pop(PacketPool::Handle& out) override;
  const Packet* peek_next() const override {
    return count_ == 0 ? nullptr : &slab_->get(ring_[head_]);
  }
  std::int64_t bytes() const override { return bytes_; }
  std::size_t packets() const override { return count_; }

 private:
  const PacketPool* slab_;
  std::vector<PacketPool::Handle> ring_;  ///< size is 0 or a power of two
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::int64_t bytes_ = 0;
};

/// Strict-priority bands (0 = highest), one FIFO each. HOMA maps
/// unscheduled/scheduled traffic onto these; acks and grants ride
/// band 0.
class PriorityQueue final : public QueueDiscipline {
 public:
  PriorityQueue(const PacketPool& slab, int bands = 8);

  void push(PacketPool::Handle h) override;
  bool pop(PacketPool::Handle& out) override;
  const Packet* peek_next() const override;
  std::int64_t bytes() const override { return bytes_; }
  std::size_t packets() const override { return packets_; }

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
