#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sim/shard.hpp"

/// \file shard_link.hpp
/// Cross-partition packet handoff for the sharded engine. An egress
/// port whose peer lives on another shard does not schedule the
/// delivery event itself (that would touch a foreign event queue from
/// the wrong thread); it pushes the packet onto its link's ShardChannel
/// — a single-producer/single-consumer ring — stamped with the absolute
/// delivery time. At the next window barrier the destination shard's
/// ingest hook (ShardRouter) drains every inbound channel and schedules
/// the deliveries into its own Simulator, parking packets in a
/// per-shard PacketPool so the event callback carries a handle, not
/// ~350 bytes of packet.
///
/// Determinism: channels are drained in their REGISTRATION order (the
/// network's construction order — a pure function of the topology),
/// each channel's messages already in send order, and the combined
/// batch is sorted by (deliver_at, sent_at, tie, src_shard, src_seq) —
/// src_seq is a per-SOURCE-shard monotone send stamp, so messages from
/// one source shard merge in that shard's execution order, which for
/// equal (deliver_at, sent_at) is exactly the sequential engine's
/// relative order. Deliveries are scheduled via
/// Simulator::schedule_from with the sender-side send time as the
/// causal timestamp, so a remote delivery resolves same-picosecond
/// ties against destination-local events exactly where the sequential
/// engine's scheduling-chronology order would put it. The schedule
/// order is independent of thread interleaving, so a sharded run is
/// reproducible bit-for-bit at a given shard count; ties the key
/// CANNOT decide — equal (deliver_at, sent_at) across different causal
/// domains — are counted by the engine's boundary ambiguity detector
/// (Simulator::boundary_ambiguities()), and zero detections certifies
/// the run byte-identical to the sequential engine.
///
/// Memory ordering: producers push only while their window runs;
/// consumers drain only at the barrier, which orders every push of
/// window k before every drain of round k+1. The acquire/release pair
/// on the ring cursors keeps the fast path TSan-clean even without the
/// barrier; the rare overflow spill relies on the barrier alone.

namespace powertcp::net {

class Node;

/// One buffered cross-shard delivery. `sent_at` is the sender-side
/// simulation time of the send() call — the causal timestamp the
/// sequential engine would have used as the delivery's schedule time.
/// `src_shard`/`src_seq` identify the sending causal domain and the
/// send's position in that shard's execution order (the stamp counter
/// is shared by all of one source shard's channels, so equal-key
/// messages from one shard merge in source execution order even across
/// channels).
struct ShardMessage {
  sim::TimePs deliver_at = 0;
  sim::TimePs sent_at = 0;
  std::uint64_t src_seq = 0;
  Node* dst = nullptr;
  std::int32_t dst_in_port = -1;
  std::int32_t src_shard = 0;
  /// The sending egress port's tie token (EgressPort::tie_token)):
  /// carried into the destination event key so cross-shard delivery
  /// ties resolve exactly as the sequential engine's would.
  std::uint32_t tie = 0;
  Packet pkt;
};

/// Fixed-capacity SPSC ring with an unbounded overflow spill. The
/// consumer only drains at barriers, so a full ring must never block
/// the producer (a spinning producer would deadlock the window);
/// instead the producer goes STICKY to the overflow vector for the
/// rest of the window, preserving send order (ring first, then spill).
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity_pow2 = 1024)
      : slots_(capacity_pow2), mask_(capacity_pow2 - 1) {
    if (capacity_pow2 == 0 || (capacity_pow2 & mask_) != 0) {
      throw std::invalid_argument("SpscRing: capacity must be a power of 2");
    }
  }

  /// Producer thread only.
  void push(ShardMessage&& m) {
    if (!overflowing_) {
      const std::uint64_t t = tail_.load(std::memory_order_relaxed);
      if (t - head_.load(std::memory_order_acquire) < slots_.size()) {
        slots_[t & mask_] = std::move(m);
        tail_.store(t + 1, std::memory_order_release);
        return;
      }
      overflowing_ = true;
    }
    overflow_.push_back(std::move(m));
  }

  /// Consumer thread only, at a barrier: appends everything pushed so
  /// far to `out`, in push order, and resets the overflow spill.
  void drain_into(std::vector<ShardMessage>& out) {
    std::uint64_t h = head_.load(std::memory_order_relaxed);
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    while (h != t) {
      out.push_back(std::move(slots_[h & mask_]));
      ++h;
    }
    head_.store(h, std::memory_order_release);
    if (!overflow_.empty()) {
      for (auto& m : overflow_) out.push_back(std::move(m));
      overflow_.clear();
    }
    overflowing_ = false;  // ordered vs the producer by the barrier
  }

 private:
  std::vector<ShardMessage> slots_;
  const std::uint64_t mask_;
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< consumer cursor
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< producer cursor
  /// Producer-owned during a window, consumer-owned at the barrier.
  bool overflowing_ = false;
  std::vector<ShardMessage> overflow_;
};

/// The producer-side endpoint of one cross-shard directed link: knows
/// the destination node/port and owns the ring. EgressPort::start_tx
/// calls send() instead of scheduling the delivery locally.
class ShardChannel {
 public:
  /// `send_stamp` is the router-owned per-source-shard send counter;
  /// only the source shard's worker thread touches it (SPSC channels,
  /// one worker per shard), so a plain increment is race-free.
  ShardChannel(Node* dst, int dst_in_port, int src_shard,
               std::uint64_t* send_stamp)
      : dst_(dst),
        dst_in_port_(dst_in_port),
        src_shard_(src_shard),
        send_stamp_(send_stamp) {}

  void send(sim::TimePs deliver_at, sim::TimePs sent_at, std::uint32_t tie,
            Packet&& pkt) {
    ring_.push(ShardMessage{deliver_at, sent_at, (*send_stamp_)++, dst_,
                            dst_in_port_, src_shard_, tie, std::move(pkt)});
  }

  void drain_into(std::vector<ShardMessage>& out) { ring_.drain_into(out); }

  int src_shard() const { return src_shard_; }

 private:
  Node* dst_;
  std::int32_t dst_in_port_;
  std::int32_t src_shard_;
  std::uint64_t* send_stamp_;
  SpscRing ring_;
};

/// Owns every cross-shard channel of one partitioned network and
/// installs the per-shard ingest hooks on the engine (constructor).
/// Channels are registered during topology construction, single
/// threaded, before any run.
class ShardRouter {
 public:
  explicit ShardRouter(sim::ShardedSimulator& engine);

  /// Registers a channel carrying `src_shard`'s sends into `dst_shard`.
  /// The caller (the Network) wires the returned channel into the
  /// sending port.
  ShardChannel* add_channel(int src_shard, int dst_shard, Node* dst,
                            int dst_in_port);

  /// Channels delivering into `shard` (introspection for tests).
  std::size_t channel_count(int shard) const {
    return ingress_.at(static_cast<std::size_t>(shard)).channels.size();
  }

 private:
  void ingest(int shard);

  /// A drained message's merge key plus its position in the drain
  /// buffer: sorting these instead of whole ShardMessages moves 40
  /// bytes per swap, not a ~400-byte packet.
  struct MergeKey {
    sim::TimePs deliver_at;
    sim::TimePs sent_at;
    std::uint64_t src_seq;
    std::uint32_t tie;
    std::int32_t src_shard;
    std::uint32_t index;
  };

  struct Ingress {
    /// Registration order = deterministic merge rank.
    std::vector<std::unique_ptr<ShardChannel>> channels;
    /// Parks packets between ingest and delivery callback.
    PacketPool pool;
    /// Reused drain and merge buffers (allocation-free once warm).
    std::vector<ShardMessage> scratch;
    std::vector<MergeKey> order;
  };

  /// One per-source-shard send counter on its own cache line; written
  /// only by that shard's worker thread, read by consumers only via the
  /// stamps already published through the rings.
  struct alignas(64) SendStamp {
    std::uint64_t next = 0;
  };

  sim::ShardedSimulator& engine_;
  std::vector<Ingress> ingress_;
  std::vector<SendStamp> send_stamps_;
};

}  // namespace powertcp::net
