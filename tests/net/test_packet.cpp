#include "net/packet.hpp"

#include <gtest/gtest.h>

namespace powertcp::net {
namespace {

TEST(IntHeader, StartsEmpty) {
  IntHeader h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.size(), 0);
}

TEST(IntHeader, PushAppendsInOrder) {
  IntHeader h;
  for (int i = 0; i < 3; ++i) {
    IntHopRecord rec;
    rec.qlen_bytes = i * 100;
    h.push(rec);
  }
  ASSERT_EQ(h.size(), 3);
  EXPECT_EQ(h.hop(0).qlen_bytes, 0);
  EXPECT_EQ(h.hop(2).qlen_bytes, 200);
}

TEST(IntHeader, OverflowThrows) {
  IntHeader h;
  for (int i = 0; i < kMaxIntHops; ++i) h.push(IntHopRecord{});
  EXPECT_THROW(h.push(IntHopRecord{}), std::length_error);
}

TEST(IntHeader, ClearResets) {
  IntHeader h;
  h.push(IntHopRecord{});
  h.clear();
  EXPECT_TRUE(h.empty());
}

TEST(Packet, WireBytesIncludesHeader) {
  Packet p;
  p.payload_bytes = 1000;
  EXPECT_EQ(p.wire_bytes(), 1000 + kHeaderBytes);
}

TEST(TurnIntoAck, SwapsEndpointsAndEchoes) {
  Packet pkt;
  pkt.flow = 77;
  pkt.src = 1;
  pkt.dst = 2;
  pkt.seq = 5000;
  pkt.payload_bytes = 1000;
  pkt.ecn_marked = true;
  pkt.sent_time = sim::microseconds(3);
  IntHopRecord rec;
  rec.qlen_bytes = 1234;
  pkt.int_hdr.push(rec);

  turn_into_ack(pkt, 6000);
  EXPECT_EQ(pkt.type, PacketType::kAck);
  EXPECT_EQ(pkt.flow, 77u);
  EXPECT_EQ(pkt.src, 2);
  EXPECT_EQ(pkt.dst, 1);
  EXPECT_EQ(pkt.ack_seq, 6000);
  EXPECT_EQ(pkt.seq, 5000);
  EXPECT_TRUE(pkt.ecn_echo);
  EXPECT_EQ(pkt.sent_time, sim::microseconds(3));
  ASSERT_EQ(pkt.int_hdr.size(), 1);
  EXPECT_EQ(pkt.int_hdr.hop(0).qlen_bytes, 1234);
  EXPECT_EQ(pkt.payload_bytes, 0);
  EXPECT_EQ(pkt.priority, 0);
}

TEST(TurnIntoAck, UnmarkedDataYieldsNoEcho) {
  Packet pkt;
  pkt.ecn_marked = false;
  turn_into_ack(pkt, 0);
  EXPECT_FALSE(pkt.ecn_echo);
}

TEST(TurnIntoAck, ResetsWhatTheAckDoesNotEcho) {
  // Every field the ack does not echo reads as in a fresh Packet, so
  // the ack is the same whatever data or HOMA fields the slot held.
  Packet pkt;
  pkt.type = PacketType::kHomaData;
  pkt.header_bytes = 99;
  pkt.ecn_capable = false;
  pkt.ecn_marked = true;
  pkt.ecn_echo = false;
  pkt.priority = 5;
  pkt.grant_offset = 123;
  pkt.message_bytes = 40000;
  pkt.enqueue_time = sim::microseconds(9);

  turn_into_ack(pkt, 40000);
  const Packet fresh;
  EXPECT_EQ(pkt.header_bytes, kHeaderBytes);
  EXPECT_EQ(pkt.ecn_capable, fresh.ecn_capable);
  EXPECT_FALSE(pkt.ecn_marked);
  EXPECT_TRUE(pkt.ecn_echo);
  EXPECT_EQ(pkt.priority, 0);
  EXPECT_EQ(pkt.grant_offset, fresh.grant_offset);
  EXPECT_EQ(pkt.message_bytes, fresh.message_bytes);
  EXPECT_EQ(pkt.enqueue_time, fresh.enqueue_time);
  EXPECT_EQ(pkt.ack_seq, 40000);
}

}  // namespace
}  // namespace powertcp::net
