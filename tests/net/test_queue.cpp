#include "net/queue.hpp"

#include <gtest/gtest.h>

namespace powertcp::net {
namespace {

PacketPool::Handle pkt(PacketPool& slab, FlowId flow, std::int32_t payload,
                       std::uint8_t prio = 0, NodeId dst = 0) {
  Packet p;
  p.flow = flow;
  p.payload_bytes = payload;
  p.priority = prio;
  p.dst = dst;
  return slab.put(std::move(p));
}

/// Pops the next handle and returns its packet's flow (0 when empty).
template <class Queue>
FlowId pop_flow(const PacketPool& slab, Queue& q) {
  PacketPool::Handle h;
  return q.pop(h) ? slab.get(h).flow : 0;
}

bool same(PacketPool::Handle a, PacketPool::Handle b) {
  return a.index == b.index && a.gen == b.gen;
}

TEST(FifoQueue, PopsInArrivalOrder) {
  PacketPool slab;
  FifoQueue q(slab);
  q.push(pkt(slab, 1, 100));
  q.push(pkt(slab, 2, 100));
  EXPECT_EQ(pop_flow(slab, q), 1u);
  EXPECT_EQ(pop_flow(slab, q), 2u);
  PacketPool::Handle out;
  EXPECT_FALSE(q.pop(out));
}

TEST(FifoQueue, PopLeavesOutUntouchedWhenEmpty) {
  PacketPool slab;
  FifoQueue q(slab);
  const PacketPool::Handle mark{41, 7};
  PacketPool::Handle out = mark;
  EXPECT_FALSE(q.pop(out));
  EXPECT_TRUE(same(out, mark));
  // Drained, not just never filled: still untouched.
  const PacketPool::Handle h = pkt(slab, 1, 100);
  q.push(h);
  ASSERT_TRUE(q.pop(out));
  EXPECT_TRUE(same(out, h));
  out = mark;
  EXPECT_FALSE(q.pop(out));
  EXPECT_TRUE(same(out, mark));

  PriorityQueue pq(slab, 2);
  EXPECT_FALSE(pq.pop(out));
  EXPECT_TRUE(same(out, mark));
  VoqSet v(slab, 2, [](NodeId) { return 0; });
  EXPECT_FALSE(v.pop_from(1, out));
  EXPECT_TRUE(same(out, mark));
}

TEST(FifoQueue, TracksBytesIncludingHeaders) {
  PacketPool slab;
  FifoQueue q(slab);
  q.push(pkt(slab, 1, 1000));
  EXPECT_EQ(q.bytes(), 1000 + kHeaderBytes);
  q.push(pkt(slab, 2, 500));
  EXPECT_EQ(q.bytes(), 1500 + 2 * kHeaderBytes);
  pop_flow(slab, q);
  EXPECT_EQ(q.bytes(), 500 + kHeaderBytes);
}

TEST(FifoQueue, PopSubtractsTheSizeAdmittedAtPush) {
  // The backlog a pop frees is what the push admitted, whatever the
  // slot holds by then.
  PacketPool slab;
  FifoQueue q(slab);
  PriorityQueue pq(slab, 2);
  const PacketPool::Handle h = pkt(slab, 1, 1000);
  const PacketPool::Handle g = pkt(slab, 2, 700, 1);
  q.push(h);
  q.push(pkt(slab, 3, 100));
  pq.push(g);
  slab.ref(h).payload_bytes = 10;
  slab.ref(g).payload_bytes = 10;
  PacketPool::Handle out;
  ASSERT_TRUE(q.pop(out));
  EXPECT_TRUE(same(out, h));
  EXPECT_EQ(q.bytes(), 100 + kHeaderBytes);
  ASSERT_TRUE(pq.pop(out));
  EXPECT_TRUE(same(out, g));
  EXPECT_EQ(pq.bytes(), 0);
  EXPECT_EQ(pq.band_bytes(1), 0);
}

TEST(FifoQueue, PeekMatchesPop) {
  PacketPool slab;
  FifoQueue q(slab);
  q.push(pkt(slab, 9, 100));
  ASSERT_NE(q.peek_next(), nullptr);
  EXPECT_EQ(q.peek_next()->flow, 9u);
  EXPECT_EQ(pop_flow(slab, q), 9u);
  EXPECT_EQ(q.peek_next(), nullptr);
}

TEST(PriorityQueue, LowerBandWins) {
  PacketPool slab;
  PriorityQueue q(slab, 8);
  q.push(pkt(slab, 1, 100, 5));
  q.push(pkt(slab, 2, 100, 1));
  q.push(pkt(slab, 3, 100, 3));
  EXPECT_EQ(pop_flow(slab, q), 2u);
  EXPECT_EQ(pop_flow(slab, q), 3u);
  EXPECT_EQ(pop_flow(slab, q), 1u);
}

TEST(PriorityQueue, FifoWithinBand) {
  PacketPool slab;
  PriorityQueue q(slab, 8);
  q.push(pkt(slab, 1, 100, 2));
  q.push(pkt(slab, 2, 100, 2));
  EXPECT_EQ(pop_flow(slab, q), 1u);
  EXPECT_EQ(pop_flow(slab, q), 2u);
}

TEST(PriorityQueue, OutOfRangePriorityClampsToLowest) {
  PacketPool slab;
  PriorityQueue q(slab, 4);
  q.push(pkt(slab, 1, 100, 200));
  q.push(pkt(slab, 2, 100, 3));
  // Both land in band 3 -> FIFO.
  EXPECT_EQ(pop_flow(slab, q), 1u);
}

TEST(PriorityQueue, AggregateAccounting) {
  PacketPool slab;
  PriorityQueue q(slab, 8);
  q.push(pkt(slab, 1, 100, 0));
  q.push(pkt(slab, 2, 200, 7));
  EXPECT_EQ(q.packets(), 2u);
  EXPECT_EQ(q.bytes(), 300 + 2 * kHeaderBytes);
  EXPECT_EQ(q.band_bytes(7), 200 + kHeaderBytes);
  pop_flow(slab, q);
  EXPECT_EQ(q.packets(), 1u);
}

TEST(PriorityQueue, RejectsNonPositiveBands) {
  PacketPool slab;
  EXPECT_THROW(PriorityQueue(slab, 0), std::invalid_argument);
}

TEST(VoqSet, ClassifiesByDestination) {
  PacketPool slab;
  // Even node ids -> VOQ 0, odd -> VOQ 1.
  VoqSet v(slab, 2, [](NodeId n) { return static_cast<int>(n % 2); });
  v.push(pkt(slab, 1, 100, 0, /*dst=*/4));
  v.push(pkt(slab, 2, 100, 0, /*dst=*/5));
  EXPECT_EQ(v.voq_bytes(0), 100 + kHeaderBytes);
  EXPECT_EQ(v.voq_bytes(1), 100 + kHeaderBytes);
  PacketPool::Handle out;
  ASSERT_TRUE(v.pop_from(0, out));
  EXPECT_EQ(slab.get(out).flow, 1u);
  ASSERT_TRUE(v.pop_from(1, out));
  EXPECT_EQ(slab.get(out).flow, 2u);
}

TEST(VoqSet, PopFromEmptyVoqIsEmpty) {
  PacketPool slab;
  VoqSet v(slab, 2, [](NodeId) { return 0; });
  PacketPool::Handle out;
  EXPECT_FALSE(v.pop_from(1, out));
}

TEST(VoqSet, TotalsAcrossQueues) {
  PacketPool slab;
  VoqSet v(slab, 3, [](NodeId n) { return static_cast<int>(n); });
  v.push(pkt(slab, 1, 100, 0, 0));
  v.push(pkt(slab, 2, 200, 0, 2));
  EXPECT_EQ(v.total_packets(), 2u);
  EXPECT_EQ(v.total_bytes(), 300 + 2 * kHeaderBytes);
  PacketPool::Handle out;
  v.pop_from(2, out);
  EXPECT_EQ(v.total_bytes(), 100 + kHeaderBytes);
}

TEST(VoqSet, BadClassifierIndexThrows) {
  PacketPool slab;
  VoqSet v(slab, 2, [](NodeId) { return 7; });
  EXPECT_THROW(v.push(pkt(slab, 1, 100)), std::out_of_range);
}

TEST(VoqSet, PeekDoesNotRemove) {
  PacketPool slab;
  VoqSet v(slab, 1, [](NodeId) { return 0; });
  v.push(pkt(slab, 5, 100));
  EXPECT_EQ(v.peek(0)->flow, 5u);
  EXPECT_EQ(v.total_packets(), 1u);
}

TEST(FifoQueue, RingWrapsAcrossManyPushPopCycles) {
  // The ring recycles its storage: oscillating around the growth
  // boundary and wrapping head/tail many times must preserve FIFO
  // order and byte accounting.
  PacketPool slab;
  FifoQueue q(slab);
  FlowId next = 1;
  FlowId expect = 1;
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (int i = 0; i < 7; ++i) q.push(pkt(slab, next++, 100));
    for (int i = 0; i < 5; ++i) EXPECT_EQ(pop_flow(slab, q), expect++);
  }
  EXPECT_EQ(q.packets(), 200u);
  EXPECT_EQ(q.bytes(), 200 * (100 + kHeaderBytes));
  while (!q.empty()) EXPECT_EQ(pop_flow(slab, q), expect++);
  EXPECT_EQ(expect, next);
  EXPECT_EQ(q.bytes(), 0);
}

TEST(PriorityQueue, BandBytesCountersTrackPushAndPop) {
  PacketPool slab;
  PriorityQueue q(slab, 4);
  q.push(pkt(slab, 1, 100, 0));
  q.push(pkt(slab, 2, 200, 2));
  q.push(pkt(slab, 3, 300, 2));
  EXPECT_EQ(q.band_bytes(0), 100 + kHeaderBytes);
  EXPECT_EQ(q.band_bytes(1), 0);
  EXPECT_EQ(q.band_bytes(2), 500 + 2 * kHeaderBytes);
  pop_flow(slab, q);  // drains band 0
  EXPECT_EQ(q.band_bytes(0), 0);
  pop_flow(slab, q);  // first of band 2
  EXPECT_EQ(q.band_bytes(2), 300 + kHeaderBytes);
  pop_flow(slab, q);
  EXPECT_EQ(q.band_bytes(2), 0);
  EXPECT_EQ(q.bytes(), 0);
}

TEST(PriorityQueue, BandBytesCountsClampedPushesInLowestBand) {
  PacketPool slab;
  PriorityQueue q(slab, 2);
  q.push(pkt(slab, 1, 100, 7));  // clamps to band 1
  EXPECT_EQ(q.band_bytes(1), 100 + kHeaderBytes);
  EXPECT_EQ(q.band_bytes(0), 0);
}

TEST(PriorityQueue, BandBytesOutOfRangeThrows) {
  PacketPool slab;
  PriorityQueue q(slab, 2);
  EXPECT_THROW(q.band_bytes(2), std::out_of_range);
}

}  // namespace
}  // namespace powertcp::net
