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

/// Checks that `q` pops dry in oracle order: `pending` sorted by the
/// key contract.
void expect_drains_in_order(BinaryHeapEventQueue& q,
                            std::vector<EventEntry> pending) {
  std::sort(pending.begin(), pending.end(), earlier);
  const auto order = drain(q);
  ASSERT_EQ(order.size(), pending.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i].seq, pending[i].seq) << "pop " << i;
  }
  EXPECT_TRUE(q.empty());
}

/// Removes the oracle minimum from `pending` and returns it.
EventEntry take_min(std::vector<EventEntry>& pending) {
  const auto it = std::min_element(pending.begin(), pending.end(), earlier);
  const EventEntry e = *it;
  pending.erase(it);
  return e;
}

/// Seven entries 10..70 ns apart; odd seqs carry tie token 5.
std::vector<EventEntry> seven_entries() {
  std::vector<EventEntry> v;
  for (std::uint64_t i = 1; i <= 7; ++i) {
    v.push_back({nanoseconds(10 * static_cast<std::int64_t>(i)), 0, i,
                 static_cast<std::uint32_t>(i),
                 static_cast<std::uint32_t>(i % 2 == 1 ? 5 : 0)});
  }
  return v;
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
  // stamped packet deliveries rely on this middle key. Equal stamps
  // fall back to seq (FIFO).
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

TEST(BinaryHeapEventQueue, PushAfterPopFillsTheVacatedRoot) {
  // pop() leaves the root vacated and the next push() fills it with one
  // sift-down. The new entry may sort before everything, after
  // everything, or tie an entry on (time, sched) and be ordered by its
  // token alone (entry 3 sits at 30 ns with token 5).
  const EventEntry cases[] = {
      {nanoseconds(5), 0, 100, 100, 0},     // before all
      {nanoseconds(999), 0, 100, 100, 0},   // after all
      {nanoseconds(30), 0, 100, 100, 4},    // tie, lower token: first
      {nanoseconds(30), 0, 100, 100, 6},    // tie, higher token: second
      {nanoseconds(30), 0, 100, 100, 5},    // full tie: seq decides
      {nanoseconds(30), 0, 0, 100, 5},      // ... in both directions
  };
  for (const EventEntry& fresh : cases) {
    SCOPED_TRACE(testing::Message() << "time " << fresh.time << " tie "
                                    << fresh.tie << " seq " << fresh.seq);
    BinaryHeapEventQueue q;
    std::vector<EventEntry> pending = seven_entries();
    for (const EventEntry& e : pending) q.push(e);
    ASSERT_EQ(q.peek()->seq, take_min(pending).seq);
    q.pop();
    q.push(fresh);
    pending.push_back(fresh);
    EXPECT_EQ(q.size(), pending.size());
    expect_drains_in_order(q, pending);
  }
}

TEST(BinaryHeapEventQueue, PopAfterPopAndPeekBeforePush) {
  BinaryHeapEventQueue q;
  std::vector<EventEntry> pending = seven_entries();
  for (const EventEntry& e : pending) q.push(e);

  // pop -> pop: the second pop settles the first pop's hole.
  q.pop();
  take_min(pending);
  q.pop();
  take_min(pending);
  EXPECT_EQ(q.size(), pending.size());
  ASSERT_NE(q.peek(), nullptr);
  EXPECT_EQ(q.peek()->seq, 3u);

  // pop -> peek -> push: the peek settles the hole, the push sifts up.
  q.pop();
  take_min(pending);
  ASSERT_NE(q.peek(), nullptr);
  EXPECT_EQ(q.peek()->seq, 4u);
  const EventEntry fresh{nanoseconds(35), 0, 100, 100, 0};
  q.push(fresh);
  pending.push_back(fresh);
  EXPECT_EQ(q.peek()->seq, 100u);
  expect_drains_in_order(q, pending);
}

TEST(BinaryHeapEventQueue, SizeAndEmptyExcludeTheVacatedRoot) {
  BinaryHeapEventQueue q;
  q.push({nanoseconds(1), 0, 1, 0});
  q.pop();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peek(), nullptr);

  q.push({nanoseconds(2), 0, 2, 0});
  q.pop();
  q.push({nanoseconds(3), 0, 3, 0});  // refills the root
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
  ASSERT_NE(q.peek(), nullptr);
  EXPECT_EQ(q.peek()->seq, 3u);

  q.push({nanoseconds(4), 0, 4, 0});
  q.push({nanoseconds(5), 0, 5, 0});
  q.pop();
  EXPECT_EQ(q.size(), 2u);
  EXPECT_FALSE(q.empty());
  q.pop();
  q.pop();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peek(), nullptr);
}

TEST(BinaryHeapEventQueue, MatchesSortedOrderInTheEnginePattern) {
  // The engine's own pattern, differential against the oracle: pop the
  // minimum, then push 0-3 entries at or after the popped time, as a
  // callback scheduling its successors does. Delays mix same-instant
  // ties, two fixed hop delays and random gaps; the pending set swings
  // between a few dozen and a few hundred entries.
  BinaryHeapEventQueue heap;
  std::vector<EventEntry> pending;
  Rng rng(0x5EEDull);
  std::uint64_t seq = 1;
  const auto push = [&](TimePs now, TimePs delta) {
    const auto tie = static_cast<std::uint32_t>(rng.uniform() * 3);
    const EventEntry e{now + delta, now, seq,
                       static_cast<std::uint32_t>(seq), tie};
    ++seq;
    heap.push(e);
    pending.push_back(e);
  };
  for (int i = 0; i < 50; ++i) {
    push(0, static_cast<TimePs>(rng.uniform() * 1e6));
  }
  std::uint64_t ops = 0;
  while (ops < 120'000) {
    const EventEntry* top = heap.peek();
    ASSERT_NE(top, nullptr);
    const EventEntry want = take_min(pending);
    ASSERT_EQ(top->seq, want.seq) << "op " << ops;
    heap.pop();
    ++ops;
    ASSERT_EQ(heap.size(), pending.size());
    int pushes = static_cast<int>(rng.uniform() * 4);
    if (pending.size() > 400) pushes = std::min(pushes, 1);
    if (pending.size() < 30) pushes = std::max(pushes, 1);
    for (int i = 0; i < pushes; ++i, ++ops) {
      const double r = rng.uniform();
      TimePs delta;
      if (r < 0.2) {
        delta = 0;
      } else if (r < 0.55) {
        delta = nanoseconds(84);  // a serialization time
      } else if (r < 0.9) {
        delta = microseconds(1);  // a propagation delay
      } else {
        delta = static_cast<TimePs>(rng.uniform() * 1e8);
      }
      push(want.time, delta);
    }
  }
  ASSERT_EQ(heap.size(), pending.size());
  expect_drains_in_order(heap, pending);
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
