#include "net/queue.hpp"

#include <gtest/gtest.h>

namespace powertcp::net {
namespace {

Packet pkt(FlowId flow, std::int32_t payload, std::uint8_t prio = 0,
           NodeId dst = 0) {
  Packet p;
  p.flow = flow;
  p.payload_bytes = payload;
  p.priority = prio;
  p.dst = dst;
  return p;
}

TEST(FifoQueue, PopsInArrivalOrder) {
  FifoQueue q;
  q.push(pkt(1, 100));
  q.push(pkt(2, 100));
  Packet out;
  ASSERT_TRUE(q.pop_into(out));
  EXPECT_EQ(out.flow, 1u);
  ASSERT_TRUE(q.pop_into(out));
  EXPECT_EQ(out.flow, 2u);
  EXPECT_FALSE(q.pop_into(out));
}

TEST(FifoQueue, PopIntoLeavesOutUntouchedWhenEmpty) {
  FifoQueue q;
  Packet out = pkt(42, 700, 3, 9);
  EXPECT_FALSE(q.pop_into(out));
  EXPECT_EQ(out.flow, 42u);
  EXPECT_EQ(out.payload_bytes, 700);
  EXPECT_EQ(out.priority, 3);
  EXPECT_EQ(out.dst, 9);
  // Drained, not just never filled: still untouched.
  q.push(pkt(1, 100));
  ASSERT_TRUE(q.pop_into(out));
  out = pkt(43, 800);
  EXPECT_FALSE(q.pop_into(out));
  EXPECT_EQ(out.flow, 43u);
  EXPECT_EQ(out.payload_bytes, 800);

  PriorityQueue pq(2);
  EXPECT_FALSE(pq.pop_into(out));
  EXPECT_EQ(out.flow, 43u);
  VoqSet v(2, [](NodeId) { return 0; });
  EXPECT_FALSE(v.pop_from(1, out));
  EXPECT_EQ(out.flow, 43u);
}

TEST(FifoQueue, TracksBytesIncludingHeaders) {
  FifoQueue q;
  q.push(pkt(1, 1000));
  EXPECT_EQ(q.bytes(), 1000 + kHeaderBytes);
  q.push(pkt(2, 500));
  EXPECT_EQ(q.bytes(), 1500 + 2 * kHeaderBytes);
  Packet out;
  q.pop_into(out);
  EXPECT_EQ(q.bytes(), 500 + kHeaderBytes);
}

TEST(FifoQueue, PeekMatchesPop) {
  FifoQueue q;
  q.push(pkt(9, 100));
  ASSERT_NE(q.peek_next(), nullptr);
  EXPECT_EQ(q.peek_next()->flow, 9u);
  Packet out;
  ASSERT_TRUE(q.pop_into(out));
  EXPECT_EQ(out.flow, 9u);
  EXPECT_EQ(q.peek_next(), nullptr);
}

TEST(PriorityQueue, LowerBandWins) {
  PriorityQueue q(8);
  q.push(pkt(1, 100, 5));
  q.push(pkt(2, 100, 1));
  q.push(pkt(3, 100, 3));
  Packet out;
  ASSERT_TRUE(q.pop_into(out));
  EXPECT_EQ(out.flow, 2u);
  ASSERT_TRUE(q.pop_into(out));
  EXPECT_EQ(out.flow, 3u);
  ASSERT_TRUE(q.pop_into(out));
  EXPECT_EQ(out.flow, 1u);
}

TEST(PriorityQueue, FifoWithinBand) {
  PriorityQueue q(8);
  q.push(pkt(1, 100, 2));
  q.push(pkt(2, 100, 2));
  Packet out;
  ASSERT_TRUE(q.pop_into(out));
  EXPECT_EQ(out.flow, 1u);
  ASSERT_TRUE(q.pop_into(out));
  EXPECT_EQ(out.flow, 2u);
}

TEST(PriorityQueue, OutOfRangePriorityClampsToLowest) {
  PriorityQueue q(4);
  q.push(pkt(1, 100, 200));
  q.push(pkt(2, 100, 3));
  // Both land in band 3 -> FIFO.
  Packet out;
  ASSERT_TRUE(q.pop_into(out));
  EXPECT_EQ(out.flow, 1u);
}

TEST(PriorityQueue, AggregateAccounting) {
  PriorityQueue q(8);
  q.push(pkt(1, 100, 0));
  q.push(pkt(2, 200, 7));
  EXPECT_EQ(q.packets(), 2u);
  EXPECT_EQ(q.bytes(), 300 + 2 * kHeaderBytes);
  EXPECT_EQ(q.band_bytes(7), 200 + kHeaderBytes);
  Packet out;
  q.pop_into(out);
  EXPECT_EQ(q.packets(), 1u);
}

TEST(PriorityQueue, RejectsNonPositiveBands) {
  EXPECT_THROW(PriorityQueue(0), std::invalid_argument);
}

TEST(VoqSet, ClassifiesByDestination) {
  // Even node ids -> VOQ 0, odd -> VOQ 1.
  VoqSet v(2, [](NodeId n) { return static_cast<int>(n % 2); });
  v.push(pkt(1, 100, 0, /*dst=*/4));
  v.push(pkt(2, 100, 0, /*dst=*/5));
  EXPECT_EQ(v.voq_bytes(0), 100 + kHeaderBytes);
  EXPECT_EQ(v.voq_bytes(1), 100 + kHeaderBytes);
  Packet out;
  ASSERT_TRUE(v.pop_from(0, out));
  EXPECT_EQ(out.flow, 1u);
  ASSERT_TRUE(v.pop_from(1, out));
  EXPECT_EQ(out.flow, 2u);
}

TEST(VoqSet, PopFromEmptyVoqIsEmpty) {
  VoqSet v(2, [](NodeId) { return 0; });
  Packet out;
  EXPECT_FALSE(v.pop_from(1, out));
}

TEST(VoqSet, TotalsAcrossQueues) {
  VoqSet v(3, [](NodeId n) { return static_cast<int>(n); });
  v.push(pkt(1, 100, 0, 0));
  v.push(pkt(2, 200, 0, 2));
  EXPECT_EQ(v.total_packets(), 2u);
  EXPECT_EQ(v.total_bytes(), 300 + 2 * kHeaderBytes);
  Packet out;
  v.pop_from(2, out);
  EXPECT_EQ(v.total_bytes(), 100 + kHeaderBytes);
}

TEST(VoqSet, BadClassifierIndexThrows) {
  VoqSet v(2, [](NodeId) { return 7; });
  EXPECT_THROW(v.push(pkt(1, 100)), std::out_of_range);
}

TEST(VoqSet, PeekDoesNotRemove) {
  VoqSet v(1, [](NodeId) { return 0; });
  v.push(pkt(5, 100));
  EXPECT_EQ(v.peek(0)->flow, 5u);
  EXPECT_EQ(v.total_packets(), 1u);
}

TEST(FifoQueue, RingWrapsAcrossManyPushPopCycles) {
  // The ring recycles its storage: oscillating around the growth
  // boundary and wrapping head/tail many times must preserve FIFO
  // order and byte accounting.
  FifoQueue q;
  FlowId next = 1;
  FlowId expect = 1;
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (int i = 0; i < 7; ++i) q.push(pkt(next++, 100));
    for (int i = 0; i < 5; ++i) {
      Packet p;
      ASSERT_TRUE(q.pop_into(p));
      EXPECT_EQ(p.flow, expect++);
    }
  }
  EXPECT_EQ(q.packets(), 200u);
  EXPECT_EQ(q.bytes(), 200 * (100 + kHeaderBytes));
  for (Packet p; q.pop_into(p);) EXPECT_EQ(p.flow, expect++);
  EXPECT_EQ(q.bytes(), 0);
  EXPECT_TRUE(q.empty());
}

TEST(PriorityQueue, BandBytesCountersTrackPushAndPop) {
  PriorityQueue q(4);
  q.push(pkt(1, 100, 0));
  q.push(pkt(2, 200, 2));
  q.push(pkt(3, 300, 2));
  EXPECT_EQ(q.band_bytes(0), 100 + kHeaderBytes);
  EXPECT_EQ(q.band_bytes(1), 0);
  EXPECT_EQ(q.band_bytes(2), 500 + 2 * kHeaderBytes);
  Packet out;
  q.pop_into(out);  // drains band 0
  EXPECT_EQ(q.band_bytes(0), 0);
  q.pop_into(out);  // first of band 2
  EXPECT_EQ(q.band_bytes(2), 300 + kHeaderBytes);
  q.pop_into(out);
  EXPECT_EQ(q.band_bytes(2), 0);
  EXPECT_EQ(q.bytes(), 0);
}

TEST(PriorityQueue, BandBytesCountsClampedPushesInLowestBand) {
  PriorityQueue q(2);
  q.push(pkt(1, 100, 7));  // clamps to band 1
  EXPECT_EQ(q.band_bytes(1), 100 + kHeaderBytes);
  EXPECT_EQ(q.band_bytes(0), 0);
}

TEST(PriorityQueue, BandBytesOutOfRangeThrows) {
  PriorityQueue q(2);
  EXPECT_THROW(q.band_bytes(2), std::out_of_range);
}

}  // namespace
}  // namespace powertcp::net
