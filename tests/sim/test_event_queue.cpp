#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace powertcp::sim {
namespace {

std::vector<EventEntry> drain(BinaryHeapEventQueue& q) {
  std::vector<EventEntry> out;
  while (const EventEntry* top = q.peek()) {
    out.push_back(*top);
    q.pop();
  }
  return out;
}

/// The pop-order contract spelled out independently of the heap.
bool earlier(const EventEntry& a, const EventEntry& b) {
  return std::tie(a.time, a.sched, a.tie, a.seq) <
         std::tie(b.time, b.sched, b.tie, b.seq);
}

TEST(BinaryHeapEventQueue, PopsInTimeThenSeqOrder) {
  BinaryHeapEventQueue q;
  q.push({nanoseconds(30), 0, 1, 0});
  q.push({nanoseconds(10), 0, 2, 1});
  q.push({nanoseconds(10), 0, 3, 2});
  q.push({nanoseconds(20), 0, 4, 3});
  const auto order = drain(q);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0].seq, 2u);
  EXPECT_EQ(order[1].seq, 3u);
  EXPECT_EQ(order[2].seq, 4u);
  EXPECT_EQ(order[3].seq, 1u);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(BinaryHeapEventQueue, CausalTimestampBreaksSameTimeTies) {
  // Same delivery instant, different causal (schedule-time) stamps: the
  // earlier-scheduled event pops first even when its seq is larger —
  // the cross-shard merge relies on this middle key. Equal stamps fall
  // back to seq (FIFO).
  BinaryHeapEventQueue q;
  q.push({nanoseconds(50), nanoseconds(40), 1, 0});
  q.push({nanoseconds(50), nanoseconds(10), 2, 1});
  q.push({nanoseconds(50), nanoseconds(40), 3, 2});
  q.push({nanoseconds(50), nanoseconds(25), 4, 3});
  const auto order = drain(q);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0].seq, 2u);
  EXPECT_EQ(order[1].seq, 4u);
  EXPECT_EQ(order[2].seq, 1u);  // sched tie with 3: lower seq first
  EXPECT_EQ(order[3].seq, 3u);
}

TEST(BinaryHeapEventQueue, TieTokenOrdersBetweenSchedAndSeq) {
  // Equal (time, sched): the tie token decides before seq, so a
  // delivery's port token beats scheduling chronology. A smaller
  // sched still wins over any token.
  BinaryHeapEventQueue q;
  q.push({nanoseconds(50), nanoseconds(40), 1, 0, /*tie=*/7});
  q.push({nanoseconds(50), nanoseconds(40), 2, 1, /*tie=*/3});
  q.push({nanoseconds(50), nanoseconds(40), 3, 2, /*tie=*/0});
  q.push({nanoseconds(50), nanoseconds(30), 4, 3, /*tie=*/9});
  q.push({nanoseconds(50), nanoseconds(40), 5, 4, /*tie=*/3});
  const auto order = drain(q);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0].seq, 4u);  // earliest sched, despite the big token
  EXPECT_EQ(order[1].seq, 3u);  // token 0
  EXPECT_EQ(order[2].seq, 2u);  // token 3, lower seq
  EXPECT_EQ(order[3].seq, 5u);  // token 3
  EXPECT_EQ(order[4].seq, 1u);  // token 7, despite the lowest seq
}

TEST(BinaryHeapEventQueue, AllEventsAtOneInstant) {
  BinaryHeapEventQueue q;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    q.push({microseconds(5), 0, i + 1, static_cast<std::uint32_t>(i)});
  }
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const EventEntry* top = q.peek();
    ASSERT_NE(top, nullptr);
    EXPECT_EQ(top->seq, i + 1);  // FIFO among ties
    q.pop();
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(BinaryHeapEventQueue, MatchesSortedOrderOnRandomizedWorkload) {
  // Dense bursts, sparse gaps, heavy same-time ties, random tie tokens
  // and interleaved pops: every pop must be the minimum of the pending
  // set by the (time, sched, tie, seq) contract.
  BinaryHeapEventQueue heap;
  std::vector<EventEntry> pending;
  Rng rng(0xC0FFEEull);
  TimePs clock = 0;
  std::uint64_t seq = 1;
  const auto pop_and_check = [&] {
    const EventEntry* top = heap.peek();
    ASSERT_NE(top, nullptr);
    const auto want = std::min_element(pending.begin(), pending.end(), earlier);
    ASSERT_EQ(top->seq, want->seq);
    clock = top->time;  // future pushes never go below the pop floor
    pending.erase(want);
    heap.pop();
  };
  for (int round = 0; round < 200; ++round) {
    const int pushes = 1 + static_cast<int>(rng.uniform() * 40);
    for (int i = 0; i < pushes; ++i) {
      const double r = rng.uniform();
      TimePs delta;
      if (r < 0.4) {
        delta = 0;  // tie storm
      } else if (r < 0.9) {
        delta = static_cast<TimePs>(rng.uniform() * 1e6);  // dense ~us
      } else {
        delta = static_cast<TimePs>(rng.uniform() * 1e11);  // sparse ~100ms
      }
      const auto tie = static_cast<std::uint32_t>(rng.uniform() * 4);
      const EventEntry e{clock + delta, clock, seq,
                         static_cast<std::uint32_t>(seq), tie};
      ++seq;
      heap.push(e);
      pending.push_back(e);
    }
    const int pops = static_cast<int>(rng.uniform() * pushes * 1.2);
    for (int i = 0; i < pops && !pending.empty(); ++i) pop_and_check();
    ASSERT_EQ(heap.size(), pending.size());
  }
  while (!pending.empty()) pop_and_check();
  EXPECT_TRUE(heap.empty());
}

TEST(Simulator, FarFutureTombstoneDoesNotReorderLaterEvents) {
  // Discarding a cancelled far-future event's tombstone must not
  // disturb events scheduled afterwards below its time (legal: the
  // clock is far below it).
  Simulator s;
  const EventId far = s.schedule_at(microseconds(1'000'033), [] { FAIL(); });
  s.cancel(far);
  s.run_until(microseconds(1'000'010));  // discards the tombstone
  std::vector<TimePs> fired;
  s.schedule_at(microseconds(1'000'033), [&] { fired.push_back(s.now()); });
  s.schedule_at(microseconds(1'000'018), [&] { fired.push_back(s.now()); });
  s.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], microseconds(1'000'018));
  EXPECT_EQ(fired[1], microseconds(1'000'033));
}

}  // namespace
}  // namespace powertcp::sim
