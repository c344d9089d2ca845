#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>

#include "sim/time.hpp"

/// \file packet.hpp
/// Wire-level packet model with the in-band network telemetry (INT)
/// header used by PowerTCP and HPCC.
///
/// The INT format follows HPCC (Fig. 4 of the HPCC paper), which PowerTCP
/// states it reuses verbatim (§3.3): each switch hop appends
/// (qlen, timestamp, txBytes, bandwidth) taken when the packet is
/// scheduled for transmission. The receiver echoes the collected records
/// in the ACK, which the sender feeds to the congestion controller.
///
/// A packet is written once, into its network's slab
/// (net/packet_pool.hpp), and never moves: every hop passes its 8-byte
/// handle, and INT records are stamped into it in place. The receiver
/// turns the data packet into its ACK in the same slot (turn_into_ack),
/// so the INT records are never copied either.

namespace powertcp::net {

/// Index of a node inside its Network. -1 means "unset".
using NodeId = std::int32_t;
using FlowId = std::uint64_t;

inline constexpr NodeId kInvalidNode = -1;

/// Default header overhead per packet on the wire (Ethernet + IP + TCP +
/// base INT header), matching the ~48 B used in the HPCC/PowerTCP ns-3
/// setups.
inline constexpr std::int32_t kHeaderBytes = 48;
/// Default maximum payload per packet (HPCC/PowerTCP ns-3 MTU setting).
inline constexpr std::int32_t kDefaultMss = 1000;

enum class PacketType : std::uint8_t {
  kData,       ///< window-based transport payload
  kAck,        ///< cumulative ack, echoes INT + ECN
  kHomaData,   ///< receiver-driven message payload (unscheduled/scheduled)
  kHomaGrant,  ///< receiver-driven grant
};

/// One per-hop INT record, appended at dequeue time by the egress port.
struct IntHopRecord {
  std::int64_t qlen_bytes = 0;  ///< egress backlog when scheduled for tx
  std::int64_t tx_bytes = 0;    ///< cumulative bytes transmitted by port
  sim::TimePs ts = 0;           ///< dequeue timestamp
  double bandwidth_bps = 0.0;   ///< port line rate
};

/// Fixed-capacity stack of per-hop records. Four hops each way is the
/// TCP-option budget the paper mentions (§5); we allow eight to cover the
/// longest fat-tree path.
inline constexpr int kMaxIntHops = 8;

class IntHeader {
 public:
  void push(const IntHopRecord& rec) {
    if (n_hops_ >= kMaxIntHops) {
      throw std::length_error("IntHeader: hop budget exceeded");
    }
    hops_[n_hops_++] = rec;
  }
  void clear() { n_hops_ = 0; }
  int size() const { return n_hops_; }
  bool empty() const { return n_hops_ == 0; }
  const IntHopRecord& hop(int i) const { return hops_[static_cast<size_t>(i)]; }
  IntHopRecord& hop(int i) { return hops_[static_cast<size_t>(i)]; }

 private:
  std::array<IntHopRecord, kMaxIntHops> hops_{};
  int n_hops_ = 0;
};

/// A simulated packet. It is ~360 bytes, so it is written once into
/// the network's PacketPool slab when its host sends it and stays
/// there until its receiver releases it or turns it into its ACK;
/// queues, events and Node::receive pass its 8-byte handle, never the
/// packet. Fields below the "simulator metadata" marker never exist on
/// a real wire and carry no modeled size.
struct Packet {
  FlowId flow = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  PacketType type = PacketType::kData;

  std::int64_t seq = 0;            ///< first payload byte (data packets)
  std::int32_t payload_bytes = 0;
  std::int32_t header_bytes = kHeaderBytes;

  bool ecn_capable = true;
  bool ecn_marked = false;  ///< CE codepoint, set by marking switches
  bool ecn_echo = false;    ///< ECE on acks

  /// Cumulative ack: next expected byte. On *data* packets this echoes
  /// the sender's received-ack edge, which lets the receiver retire
  /// per-flow state at completion yet still recognize (and statelessly
  /// re-ack) go-back-N retransmissions of completed flows.
  std::int64_t ack_seq = 0;

  /// Forward-path INT; on acks this is the echo of the acked data packet.
  IntHeader int_hdr;

  std::uint8_t priority = 0;  ///< 0 = highest; used by priority queues

  /// HOMA fields: grant offset / message size riding in the header.
  std::int64_t grant_offset = 0;
  std::int64_t message_bytes = 0;

  // ---- simulator metadata (not on the wire) ----
  sim::TimePs sent_time = 0;     ///< stamped at send, echoed on the ack
  sim::TimePs enqueue_time = 0;  ///< last enqueue, for sojourn accounting

  std::int64_t wire_bytes() const { return payload_bytes + header_bytes; }
};

/// Rewrites a received data packet, in place, into its canonical ack:
/// swaps endpoints, echoes the ECN mark, and resets every other field
/// to a fresh Packet's value, except the three the ack echoes where
/// they lie — the INT record stack, `seq` and the send timestamp.
void turn_into_ack(Packet& pkt, std::int64_t cumulative_ack);

}  // namespace powertcp::net
