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
  const Packet back = pool.take(h);
  EXPECT_EQ(back.flow, 7u);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(PacketPool, GetAfterTakeThrows) {
  PacketPool pool;
  const PacketPool::Handle h = pool.put(data_pkt(1, 100));
  pool.take(h);
  EXPECT_THROW(pool.get(h), std::logic_error);
  EXPECT_THROW(pool.take(h), std::logic_error);
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
  EXPECT_THROW(pool.take(PacketPool::Handle{5, 1}), std::logic_error);
  EXPECT_EQ(pool.live(), 1u);
}

}  // namespace
}  // namespace powertcp::net
