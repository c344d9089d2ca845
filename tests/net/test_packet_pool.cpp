#include "net/packet_pool.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace powertcp::net {
namespace {

Packet data_pkt(FlowId flow, std::int32_t payload) {
  Packet p;
  p.flow = flow;
  p.payload_bytes = payload;
  return p;
}

TEST(PacketPool, GetReadsInPlaceAndLeavesThePacketParked) {
  PacketPool pool;
  const PacketPool::Handle h = pool.put(data_pkt(7, 500));
  ASSERT_EQ(pool.live(), 1u);
  EXPECT_EQ(pool.get(h).flow, 7u);
  EXPECT_EQ(pool.get(h).wire_bytes(), 500 + kHeaderBytes);
  EXPECT_EQ(pool.live(), 1u);  // get does not redeem
  const Packet back = pool.ref(h);
  pool.release(h);
  EXPECT_EQ(back.flow, 7u);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(PacketPool, GetAfterReleaseThrows) {
  PacketPool pool;
  const PacketPool::Handle h = pool.put(data_pkt(1, 100));
  pool.release(h);
  EXPECT_THROW(pool.get(h), std::logic_error);
  EXPECT_THROW(pool.release(h), std::logic_error);
  // The recycled slot hands out a new generation; the old handle stays
  // dead even though its index is live again.
  const PacketPool::Handle again = pool.put(data_pkt(2, 100));
  EXPECT_EQ(again.index, h.index);
  EXPECT_THROW(pool.get(h), std::logic_error);
  EXPECT_EQ(pool.get(again).flow, 2u);
}

TEST(PacketPool, OutOfRangeIndexThrows) {
  PacketPool pool;
  pool.put(data_pkt(1, 100));
  EXPECT_THROW(pool.get(PacketPool::Handle{5, 1}), std::logic_error);
  EXPECT_THROW(pool.ref(PacketPool::Handle{5, 1}), std::logic_error);
  EXPECT_THROW(pool.release(PacketPool::Handle{5, 1}), std::logic_error);
  EXPECT_EQ(pool.live(), 1u);
}

TEST(PacketPool, RefWithStaleHandleThrows) {
  PacketPool pool;
  const PacketPool::Handle h = pool.put(data_pkt(1, 100));
  pool.release(h);
  EXPECT_THROW(pool.ref(h), std::logic_error);
  // Still dead once its index is recycled under a new generation.
  const PacketPool::Handle again = pool.acquire();
  ASSERT_EQ(again.index, h.index);
  EXPECT_THROW(pool.ref(h), std::logic_error);
  EXPECT_NO_THROW(pool.ref(again));
}

TEST(PacketPool, DoubleReleaseThrows) {
  PacketPool pool;
  const PacketPool::Handle h = pool.put(data_pkt(1, 100));
  pool.release(h);
  EXPECT_THROW(pool.release(h), std::logic_error);
  EXPECT_EQ(pool.live(), 0u);
  // The failed release did not push the slot onto the freelist twice:
  // two acquires get two distinct slots.
  const PacketPool::Handle a = pool.acquire();
  const PacketPool::Handle b = pool.acquire();
  EXPECT_NE(a.index, b.index);
  EXPECT_EQ(pool.live(), 2u);
}

TEST(PacketPool, AcquireFillsInPlace) {
  PacketPool pool;
  const PacketPool::Handle h = pool.acquire();
  EXPECT_EQ(pool.live(), 1u);
  pool.ref(h) = data_pkt(3, 200);
  EXPECT_EQ(pool.get(h).flow, 3u);
  pool.release(h);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(PacketPool, LendFreesTheSlotAfterTheCall) {
  PacketPool pool;
  const PacketPool::Handle h = pool.put(data_pkt(9, 300));
  Packet received;
  pool.lend(h, [&](Packet& p) {
    EXPECT_EQ(pool.live(), 1u);  // still parked while lent
    received = std::move(p);
  });
  EXPECT_EQ(received.flow, 9u);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_THROW(pool.get(h), std::logic_error);
  EXPECT_THROW(pool.lend(h, [](Packet&) {}), std::logic_error);
}

TEST(PacketPool, GrowthWhileLentThrows) {
  PacketPool pool;
  const PacketPool::Handle h = pool.put(data_pkt(1, 100));
  // Every slot is taken, so parking another packet would grow (and
  // possibly reallocate) the storage the lent reference points into.
  EXPECT_THROW(pool.lend(h, [&](Packet&) { pool.put(data_pkt(2, 100)); }),
               std::logic_error);
  // The throwing lend still freed its slot and ended the lend.
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_THROW(pool.get(h), std::logic_error);
  EXPECT_NO_THROW(pool.put(data_pkt(3, 100)));
  EXPECT_NO_THROW(pool.put(data_pkt(4, 100)));
  EXPECT_EQ(pool.capacity(), 2u);
}

TEST(PacketPool, RecycledSlotWhileLentIsAllowed) {
  PacketPool pool;
  const PacketPool::Handle a = pool.put(data_pkt(1, 100));
  const PacketPool::Handle b = pool.put(data_pkt(2, 100));
  pool.release(b);
  // A free slot is reused in place: no other slot moves, so the lent
  // reference stays valid.
  pool.lend(a, [&](Packet& p) {
    const PacketPool::Handle c = pool.put(data_pkt(3, 100));
    EXPECT_EQ(p.flow, 1u);
    EXPECT_EQ(pool.get(c).flow, 3u);
  });
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(pool.capacity(), 2u);
}

}  // namespace
}  // namespace powertcp::net
