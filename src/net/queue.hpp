#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "net/packet.hpp"

/// \file queue.hpp
/// Egress queueing disciplines: FIFO, strict priority (HOMA), and
/// per-destination virtual output queues (reconfigurable DCN ToRs).

namespace powertcp::net {

/// Interface for an egress buffer. `pop` surrenders ownership of the
/// selected packet; `peek_next` must agree with the packet `pop` would
/// return (used to compute serialization time before committing).
class QueueDiscipline {
 public:
  virtual ~QueueDiscipline() = default;

  virtual void push(Packet pkt) = 0;
  virtual std::optional<Packet> pop() = 0;
  virtual const Packet* peek_next() const = 0;
  virtual std::int64_t bytes() const = 0;
  virtual std::size_t packets() const = 0;
  bool empty() const { return packets() == 0; }
};

/// Plain FIFO over an index-linked node arena. A deque of ~350-byte
/// Packets puts one element per block on libstdc++, i.e. one heap
/// allocation per push — the arena grows to the backlog high-water mark
/// once and then recycles, keeping the per-packet path allocation-free.
/// Freed nodes are reused LIFO so a push lands on the cache lines the
/// preceding pop just touched (the behavior malloc's tcache gave the
/// deque) instead of cycling through cold storage.
class FifoQueue final : public QueueDiscipline {
 public:
  void push(Packet pkt) override;
  std::optional<Packet> pop() override;
  const Packet* peek_next() const override;
  std::int64_t bytes() const override { return bytes_; }
  std::size_t packets() const override { return count_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  struct Node {
    Packet pkt;
    std::uint32_t next = kNil;
  };

  std::vector<Node> arena_;
  std::uint32_t free_head_ = kNil;  ///< LIFO freelist of arena slots
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::size_t count_ = 0;
  std::int64_t bytes_ = 0;
};

/// Strict-priority bands (0 = highest). HOMA maps unscheduled/scheduled
/// traffic onto these; acks and grants ride band 0.
class PriorityQueue final : public QueueDiscipline {
 public:
  explicit PriorityQueue(int bands = 8);

  void push(Packet pkt) override;
  std::optional<Packet> pop() override;
  const Packet* peek_next() const override;
  std::int64_t bytes() const override { return bytes_; }
  std::size_t packets() const override { return packets_; }

  /// Backlog of one band, maintained as a counter (O(1); this used to
  /// scan the band's packets on every call).
  std::int64_t band_bytes(int band) const {
    return band_bytes_.at(static_cast<std::size_t>(band));
  }

 private:
  std::vector<std::deque<Packet>> bands_;
  std::vector<std::int64_t> band_bytes_;
  std::int64_t bytes_ = 0;
  std::size_t packets_ = 0;
};

/// Per-destination-ToR virtual output queues shared between the circuit
/// port and the packet-network uplink of an RDCN ToR. Both ports pull
/// from this set; the selector policy lives in the ports.
class VoqSet {
 public:
  /// `classify` maps a packet's destination node to a VOQ index
  /// (destination ToR).
  VoqSet(int n_queues, std::function<int(NodeId)> classify);

  void push(Packet pkt);
  std::optional<Packet> pop_from(int voq);
  const Packet* peek(int voq) const;

  std::int64_t voq_bytes(int voq) const { return voq_bytes_[static_cast<size_t>(voq)]; }
  std::int64_t total_bytes() const { return total_bytes_; }
  std::size_t total_packets() const { return total_packets_; }
  int size() const { return static_cast<int>(queues_.size()); }
  int classify(NodeId dst) const { return classify_(dst); }

 private:
  std::vector<std::deque<Packet>> queues_;
  std::vector<std::int64_t> voq_bytes_;
  std::int64_t total_bytes_ = 0;
  std::size_t total_packets_ = 0;
  std::function<int(NodeId)> classify_;
};

}  // namespace powertcp::net
