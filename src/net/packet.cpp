#include "net/packet.hpp"

namespace powertcp::net {

void turn_into_ack(Packet& pkt, std::int64_t cumulative_ack) {
  const NodeId data_src = pkt.src;
  pkt.src = pkt.dst;
  pkt.dst = data_src;
  pkt.type = PacketType::kAck;
  pkt.payload_bytes = 0;
  pkt.header_bytes = kHeaderBytes;
  pkt.ack_seq = cumulative_ack;
  pkt.ecn_echo = pkt.ecn_marked;
  pkt.ecn_capable = true;
  pkt.ecn_marked = false;
  pkt.priority = 0;  // acks ride the highest priority
  pkt.grant_offset = 0;
  pkt.message_bytes = 0;
  pkt.enqueue_time = 0;
}

}  // namespace powertcp::net
