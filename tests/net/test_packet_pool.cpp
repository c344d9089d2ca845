#include "net/packet_pool.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

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

TEST(PacketPool, ReissueKeepsContentsAndKillsOldHandle) {
  PacketPool pool;
  const PacketPool::Handle old = pool.put(data_pkt(4, 600));
  const Packet* slot = &pool.get(old);
  const PacketPool::Handle fresh = pool.reissue(old);
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(fresh.index, old.index);
  EXPECT_EQ(&pool.get(fresh), slot);  // the packet did not move
  EXPECT_EQ(pool.get(fresh).flow, 4u);
  EXPECT_EQ(pool.get(fresh).payload_bytes, 600);
  // The old handle died as a release would have killed it.
  EXPECT_THROW(pool.get(old), std::logic_error);
  EXPECT_THROW(pool.ref(old), std::logic_error);
  EXPECT_THROW(pool.release(old), std::logic_error);
  EXPECT_THROW(pool.reissue(old), std::logic_error);
  EXPECT_EQ(pool.live(), 1u);
  pool.release(fresh);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_THROW(pool.get(fresh), std::logic_error);
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

TEST(PacketPool, ReferencesSurviveGrowthAcrossChunks) {
  PacketPool pool;
  const PacketPool::Handle first = pool.put(data_pkt(1, 100));
  const Packet& held = pool.get(first);
  Packet& lent_first = pool.ref(first);
  // Grow across at least two more chunks while the references are out,
  // the way a receive that sends acks grows the slab mid-lend.
  std::vector<PacketPool::Handle> more;
  pool.lend(pool.put(data_pkt(2, 200)), [&](Packet& lent) {
    for (std::uint32_t i = 0; i < 2 * PacketPool::kChunkSlots + 1; ++i) {
      more.push_back(pool.put(data_pkt(100 + i, 300)));
    }
    EXPECT_EQ(lent.flow, 2u);
    EXPECT_EQ(lent.payload_bytes, 200);
  });
  EXPECT_GE(pool.capacity(), 2 * PacketPool::kChunkSlots + 2);
  EXPECT_EQ(&held, &pool.get(first));
  EXPECT_EQ(&lent_first, &held);
  EXPECT_EQ(held.flow, 1u);
  EXPECT_EQ(held.payload_bytes, 100);
  EXPECT_EQ(pool.get(more.back()).flow, 100u + 2 * PacketPool::kChunkSlots);

  // A released handle is dead: stale reads and double releases throw,
  // also once its slot is recycled for another packet.
  pool.release(first);
  EXPECT_THROW(pool.get(first), std::logic_error);
  EXPECT_THROW(pool.release(first), std::logic_error);
  const PacketPool::Handle reuse = pool.put(data_pkt(7, 100));
  EXPECT_EQ(reuse.index, first.index);
  EXPECT_THROW(pool.ref(first), std::logic_error);
  EXPECT_THROW(pool.release(first), std::logic_error);
  EXPECT_EQ(pool.get(reuse).flow, 7u);
  EXPECT_EQ(pool.live(), more.size() + 1);
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
