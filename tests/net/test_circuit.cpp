#include "net/circuit.hpp"

#include <gtest/gtest.h>

#include <set>

namespace powertcp::net {
namespace {

using sim::microseconds;

TEST(CircuitSchedule, RejectsDegenerateConfigs) {
  EXPECT_THROW(CircuitSchedule(1, 10, 1), std::invalid_argument);
  EXPECT_THROW(CircuitSchedule(4, 0, 1), std::invalid_argument);
  EXPECT_THROW(CircuitSchedule(4, 10, -1), std::invalid_argument);
}

TEST(CircuitSchedule, SlotAndWeekArithmetic) {
  CircuitSchedule s(25, microseconds(225), microseconds(20));
  EXPECT_EQ(s.n_matchings(), 24);
  EXPECT_EQ(s.slot_length(), microseconds(245));
  EXPECT_EQ(s.week_length(), microseconds(245) * 24);
  EXPECT_EQ(s.slot_index(0), 0);
  EXPECT_EQ(s.slot_index(microseconds(245)), 1);
  EXPECT_EQ(s.slot_index(s.week_length()), 0);  // wraps
}

TEST(CircuitSchedule, DayNightBoundaries) {
  CircuitSchedule s(4, microseconds(100), microseconds(10));
  EXPECT_TRUE(s.is_day(0));
  EXPECT_TRUE(s.is_day(microseconds(100) - 1));
  EXPECT_FALSE(s.is_day(microseconds(100)));
  EXPECT_FALSE(s.is_day(microseconds(110) - 1));
  EXPECT_TRUE(s.is_day(microseconds(110)));
  EXPECT_EQ(s.day_end(microseconds(50)), microseconds(100));
  EXPECT_EQ(s.day_end(microseconds(105)), microseconds(100));
  EXPECT_EQ(s.next_day_start(microseconds(50)), microseconds(110));
  EXPECT_EQ(s.next_day_start(microseconds(105)), microseconds(110));
}

TEST(CircuitSchedule, RotorPeersShiftEachSlot) {
  CircuitSchedule s(5, microseconds(10), microseconds(1));
  EXPECT_EQ(s.peer_in_slot(0, 0), 1);
  EXPECT_EQ(s.peer_in_slot(0, 1), 2);
  EXPECT_EQ(s.peer_in_slot(4, 0), 0);  // wraps modulo N
}

TEST(CircuitSchedule, ActivePeerIsMinusOneAtNight) {
  CircuitSchedule s(4, microseconds(10), microseconds(2));
  EXPECT_EQ(s.active_peer(0, microseconds(5)), 1);
  EXPECT_EQ(s.active_peer(0, microseconds(11)), -1);
}

TEST(CircuitSchedule, EveryOrderedPairConnectsOncePerWeek) {
  const int n = 6;
  CircuitSchedule s(n, microseconds(10), microseconds(2));
  for (int src = 0; src < n; ++src) {
    std::set<int> peers;
    for (int slot = 0; slot < s.n_matchings(); ++slot) {
      const int p = s.peer_in_slot(src, slot);
      EXPECT_NE(p, src);
      peers.insert(p);
    }
    EXPECT_EQ(peers.size(), static_cast<std::size_t>(n - 1));
  }
}

TEST(CircuitSchedule, MatchingsArePermutations) {
  // In each slot, no two sources share a destination.
  const int n = 7;
  CircuitSchedule s(n, microseconds(10), microseconds(2));
  for (int slot = 0; slot < s.n_matchings(); ++slot) {
    std::set<int> dsts;
    for (int src = 0; src < n; ++src) {
      dsts.insert(s.peer_in_slot(src, slot));
    }
    EXPECT_EQ(dsts.size(), static_cast<std::size_t>(n));
  }
}

TEST(CircuitSchedule, NextConnectionFindsTheRightSlot) {
  CircuitSchedule s(4, microseconds(10), microseconds(2));
  // Slot k connects src -> (src + k + 1) mod 4. From t=0, src 0 -> dst 2
  // happens in slot 1, i.e. day start at 12us.
  EXPECT_EQ(s.next_connection(0, 2, 0), microseconds(12));
  // src 0 -> dst 1 is slot 0, active now.
  EXPECT_EQ(s.next_connection(0, 1, 0), 0);
  // After slot 0's day ends, the next 0->1 connection is a week away.
  EXPECT_EQ(s.next_connection(0, 1, microseconds(11)),
            s.week_length());
}

TEST(CircuitSchedule, NextConnectionMidDayReturnsCurrentDay) {
  CircuitSchedule s(4, microseconds(10), microseconds(2));
  // At t=5 (mid-day of slot 0), 0 -> 1 is connected right now: the
  // returned day start is in the past but its day is still running.
  const auto start = s.next_connection(0, 1, microseconds(5));
  EXPECT_EQ(start, 0);
  EXPECT_GT(start + s.day(), microseconds(5));
}

TEST(CircuitSchedule, NextConnectionRejectsSelf) {
  CircuitSchedule s(4, microseconds(10), microseconds(2));
  EXPECT_THROW(s.next_connection(2, 2, 0), std::invalid_argument);
}

TEST(CircuitPort, DestructorCancelsThePendingWakeup) {
  // kick() on an empty VOQ set schedules a retry at the next day start;
  // that callback captures the port. Destroying the port must cancel
  // it — the simulator then runs nothing (and nothing dangles).
  sim::Simulator simulator;
  CircuitSchedule schedule(4, microseconds(10), microseconds(2));
  PacketPool slab;
  VoqSet voqs(slab, 4, [](NodeId dst) { return static_cast<int>(dst) % 4; });
  auto port = std::make_unique<CircuitPort>(
      simulator, slab, sim::Bandwidth::gbps(100), microseconds(1), &voqs,
      &schedule, /*my_tor=*/0);
  port->kick();  // day, but VOQ empty: retry armed for the next day
  port.reset();
  simulator.run();
  EXPECT_EQ(simulator.events_executed(), 0u);
  EXPECT_FALSE(simulator.pending());
}

}  // namespace
}  // namespace powertcp::net
