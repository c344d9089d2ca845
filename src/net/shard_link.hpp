#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sim/shard.hpp"

/// \file shard_link.hpp
/// Cross-partition packet handoff for the sharded engine. An egress
/// port whose peer lives on another shard does not schedule the
/// delivery event itself (that would touch a foreign event queue from
/// the wrong thread); it appends the packet to its link's ShardChannel
/// — a plain per-link buffer — stamped with the absolute delivery
/// time. At the next window barrier the destination shard's
/// ingest hook (ShardRouter) drains every inbound channel and schedules
/// the deliveries into its own Simulator, writing each packet into the
/// destination shard's slab so the event callback carries a handle,
/// not ~360 bytes of packet. A cut link is the one place a packet is
/// copied: out of the source shard's slab into the channel, and from
/// the channel into the destination's.
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
/// Memory ordering: a channel has one writer at a time and needs no
/// atomics. The source shard appends only while its window runs; the
/// destination shard drains only in the barrier phase, while every
/// shard is quiescent. The window barrier's acq_rel arrival and
/// release/acquire generation (sim::ShardedSimulator::Barrier) order
/// every append of window k before the drain of round k+1, and that
/// drain before any append of window k+1.

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

/// The producer-side endpoint of one cross-shard directed link: knows
/// the destination node/port and buffers the window's sends in send
/// order. EgressPort::start_tx calls send() instead of scheduling the
/// delivery locally.
class ShardChannel {
 public:
  /// `send_stamp` is the router-owned per-source-shard send counter;
  /// only the source shard's worker thread touches it (one worker per
  /// shard), so a plain increment is race-free.
  ShardChannel(Node* dst, int dst_in_port, int src_shard,
               std::uint64_t* send_stamp)
      : dst_(dst),
        dst_in_port_(dst_in_port),
        src_shard_(src_shard),
        send_stamp_(send_stamp) {}

  /// Copies `pkt` out of the source shard's slab into the buffer.
  void send(sim::TimePs deliver_at, sim::TimePs sent_at, std::uint32_t tie,
            const Packet& pkt) {
    sent_.push_back(ShardMessage{deliver_at, sent_at, (*send_stamp_)++, dst_,
                                 dst_in_port_, src_shard_, tie, pkt});
  }

  /// Destination shard, at a barrier: appends the buffered sends to
  /// `out` in send order and empties the buffer (keeping its capacity).
  void drain_into(std::vector<ShardMessage>& out) {
    out.insert(out.end(), std::make_move_iterator(sent_.begin()),
               std::make_move_iterator(sent_.end()));
    sent_.clear();
  }

  int src_shard() const { return src_shard_; }

 private:
  Node* dst_;
  std::int32_t dst_in_port_;
  std::int32_t src_shard_;
  std::uint64_t* send_stamp_;
  std::vector<ShardMessage> sent_;
};

/// Owns every cross-shard channel of one partitioned network and
/// installs the per-shard ingest hooks on the engine (constructor).
/// Channels are registered during topology construction, single
/// threaded, before any run.
class ShardRouter {
 public:
  /// `slabs` holds one packet slab per shard of `engine` (the
  /// Network's); ingest parks each delivery in its shard's slab.
  ShardRouter(sim::ShardedSimulator& engine, std::vector<PacketPool>& slabs);

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
    /// Reused drain and merge buffers (allocation-free once warm).
    std::vector<ShardMessage> scratch;
    std::vector<MergeKey> order;
  };

  /// One per-source-shard send counter on its own cache line; written
  /// only by that shard's worker thread, read by consumers only via the
  /// stamps already carried in the channels' messages.
  struct alignas(64) SendStamp {
    std::uint64_t next = 0;
  };

  sim::ShardedSimulator& engine_;
  std::vector<PacketPool>& slabs_;
  std::vector<Ingress> ingress_;
  std::vector<SendStamp> send_stamps_;
};

}  // namespace powertcp::net
