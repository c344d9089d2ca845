#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <tuple>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace powertcp::sim {
namespace {

using Wheel = TimingWheelEventQueue;

/// How an order workload drives the wheel's clock. kFollowed starts it
/// at 0 and advances it to each popped key, as the Simulator does.
/// kNeverStarted never calls advance(), so the wheel takes no key and
/// every entry goes through the overflow heap alone.
enum class Clock { kFollowed, kNeverStarted };

/// Starts `q`'s clock at 0 under kFollowed, so the wheel takes near keys.
void start(Wheel& q, Clock mode) {
  if (mode == Clock::kFollowed) q.advance(0);
}

// Each fixed-order case below runs twice: as TimingWheelEventQueue on a
// started wheel, and as BinaryHeapEventQueue on a wheel that never
// starts, which is the binary heap behind the wheel (its overflow)
// alone.

std::vector<EventEntry> drain(Wheel& q) {
  std::vector<EventEntry> out;
  while (const EventEntry* top = q.peek()) {
    out.push_back(*top);
    q.pop();
  }
  return out;
}

/// The pop-order contract spelled out independently of the queue.
bool oracle_earlier(const EventEntry& a, const EventEntry& b) {
  return std::tie(a.time, a.sched, a.tie, a.seq) <
         std::tie(b.time, b.sched, b.tie, b.seq);
}

/// Checks that `q` pops dry in oracle order: `pending` sorted by the
/// key contract.
void expect_drains_in_order(Wheel& q, std::vector<EventEntry> pending) {
  std::sort(pending.begin(), pending.end(), oracle_earlier);
  const auto order = drain(q);
  ASSERT_EQ(order.size(), pending.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i].seq, pending[i].seq) << "pop " << i;
  }
  EXPECT_TRUE(q.empty());
}

/// Removes the oracle minimum from `pending` and returns it.
EventEntry take_min(std::vector<EventEntry>& pending) {
  const auto it =
      std::min_element(pending.begin(), pending.end(), oracle_earlier);
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

void pops_in_time_then_seq_order(Clock mode) {
  Wheel q;
  start(q, mode);
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

TEST(TimingWheelEventQueue, PopsInTimeThenSeqOrder) {
  pops_in_time_then_seq_order(Clock::kFollowed);
}
TEST(BinaryHeapEventQueue, PopsInTimeThenSeqOrder) {
  pops_in_time_then_seq_order(Clock::kNeverStarted);
}

void causal_timestamp_breaks_same_time_ties(Clock mode) {
  // Same delivery instant, different causal (schedule-time) stamps: the
  // earlier-scheduled event pops first even when its seq is larger —
  // stamped packet deliveries rely on this middle key. Equal stamps
  // fall back to seq (FIFO).
  Wheel q;
  start(q, mode);
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

TEST(TimingWheelEventQueue, CausalTimestampBreaksSameTimeTies) {
  causal_timestamp_breaks_same_time_ties(Clock::kFollowed);
}
TEST(BinaryHeapEventQueue, CausalTimestampBreaksSameTimeTies) {
  causal_timestamp_breaks_same_time_ties(Clock::kNeverStarted);
}

void tie_token_orders_between_sched_and_seq(Clock mode) {
  // Equal (time, sched): the tie token decides before seq, so a
  // delivery's port token beats scheduling chronology. A smaller
  // sched still wins over any token.
  Wheel q;
  start(q, mode);
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

TEST(TimingWheelEventQueue, TieTokenOrdersBetweenSchedAndSeq) {
  tie_token_orders_between_sched_and_seq(Clock::kFollowed);
}
TEST(BinaryHeapEventQueue, TieTokenOrdersBetweenSchedAndSeq) {
  tie_token_orders_between_sched_and_seq(Clock::kNeverStarted);
}

void all_events_at_one_instant(Clock mode) {
  Wheel q;
  start(q, mode);
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

TEST(TimingWheelEventQueue, AllEventsAtOneInstant) {
  all_events_at_one_instant(Clock::kFollowed);
}
TEST(BinaryHeapEventQueue, AllEventsAtOneInstant) {
  all_events_at_one_instant(Clock::kNeverStarted);
}

/// Dense bursts, sparse gaps, heavy same-time ties, random tie tokens
/// and interleaved pops: every pop must be the minimum of the pending
/// set by the (time, sched, tie, seq) contract. `sparse` is the range
/// of the rare far delays.
void matches_sorted_order_on_randomized_workload(std::uint64_t seed,
                                                 double sparse,
                                                 Clock mode) {
  Wheel q;
  start(q, mode);
  std::vector<EventEntry> pending;
  Rng rng(seed);
  TimePs clock = 0;
  std::uint64_t seq = 1;
  // Reports a wrong pop as a failure instead of asserting inside the
  // lambda, which would return from the lambda alone and leave the
  // caller's loop spinning on an oracle that never shrinks.
  const auto pop_and_check = [&]() -> testing::AssertionResult {
    const EventEntry* top = q.peek();
    if (top == nullptr) {
      return testing::AssertionFailure()
             << "empty with " << pending.size() << " pending";
    }
    const auto want =
        std::min_element(pending.begin(), pending.end(), oracle_earlier);
    if (top->seq != want->seq) {
      return testing::AssertionFailure()
             << "popped seq " << top->seq << ", oracle " << want->seq;
    }
    clock = top->time;  // future pushes never go below the pop floor
    pending.erase(want);
    q.pop();
    if (mode == Clock::kFollowed) q.advance(clock);
    return testing::AssertionSuccess();
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
        delta = static_cast<TimePs>(rng.uniform() * sparse);
      }
      const auto tie = static_cast<std::uint32_t>(rng.uniform() * 4);
      const EventEntry e{clock + delta, clock, seq,
                         static_cast<std::uint32_t>(seq), tie};
      ++seq;
      q.push(e);
      pending.push_back(e);
    }
    const int pops = static_cast<int>(rng.uniform() * pushes * 1.2);
    for (int i = 0; i < pops && !pending.empty(); ++i) {
      ASSERT_TRUE(pop_and_check()) << "round " << round;
    }
    ASSERT_EQ(q.size(), pending.size());
  }
  while (!pending.empty()) ASSERT_TRUE(pop_and_check());
  EXPECT_TRUE(q.empty());
}

TEST(TimingWheelEventQueue, MatchesSortedOrderOnRandomizedWorkload) {
  // Sparse gaps of up to ~100 ms.
  matches_sorted_order_on_randomized_workload(0xC0FFEEull, 1e11,
                                              Clock::kFollowed);
}
TEST(BinaryHeapEventQueue, MatchesSortedOrderOnRandomizedWorkload) {
  // Tie storms and ~100 ms gaps on the overflow heap alone.
  matches_sorted_order_on_randomized_workload(0xC0FFEEull, 1e11,
                                              Clock::kNeverStarted);
}
TEST(TimingWheelEventQueue, MatchesSortedOrderWithGapsNearTheHorizon) {
  // Sparse gaps of up to two horizons: keys land on both sides of the
  // wheel's reach, and overflow keys come within it as the clock moves.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    matches_sorted_order_on_randomized_workload(
        seed, 2.0 * static_cast<double>(Wheel::kHorizonPs), Clock::kFollowed);
  }
}

void push_after_pop_keeps_the_order(Clock mode) {
  // A push right after a pop: the new entry may sort before everything,
  // after everything, or tie an entry on (time, sched) and be ordered by
  // its token alone (entry 3 sits at 30 ns with token 5).
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
    Wheel q;
    start(q, mode);
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

// The two VacatedRoot names date from the hand-written heap the
// overflow replaced, whose pop() left its root empty until the next
// queue call; the orders they check still hold.
TEST(TimingWheelEventQueue, PushAfterPopKeepsTheOrder) {
  push_after_pop_keeps_the_order(Clock::kFollowed);
}
TEST(BinaryHeapEventQueue, PushAfterPopFillsTheVacatedRoot) {
  push_after_pop_keeps_the_order(Clock::kNeverStarted);
}

void pop_after_pop_and_peek_before_push(Clock mode) {
  Wheel q;
  start(q, mode);
  std::vector<EventEntry> pending = seven_entries();
  for (const EventEntry& e : pending) q.push(e);

  // pop -> pop, with no peek in between.
  q.pop();
  take_min(pending);
  q.pop();
  take_min(pending);
  EXPECT_EQ(q.size(), pending.size());
  ASSERT_NE(q.peek(), nullptr);
  EXPECT_EQ(q.peek()->seq, 3u);

  // pop -> peek -> push: the push sorts before the peeked entry.
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

TEST(TimingWheelEventQueue, PopAfterPopAndPeekBeforePush) {
  pop_after_pop_and_peek_before_push(Clock::kFollowed);
}
TEST(BinaryHeapEventQueue, PopAfterPopAndPeekBeforePush) {
  pop_after_pop_and_peek_before_push(Clock::kNeverStarted);
}

void size_and_empty_count_every_entry(Clock mode) {
  Wheel q;
  start(q, mode);
  q.push({nanoseconds(1), 0, 1, 0});
  q.pop();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peek(), nullptr);

  q.push({nanoseconds(2), 0, 2, 0});
  q.pop();
  q.push({nanoseconds(3), 0, 3, 0});
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

TEST(TimingWheelEventQueue, SizeAndEmptyCountBothSides) {
  size_and_empty_count_every_entry(Clock::kFollowed);
}
TEST(BinaryHeapEventQueue, SizeAndEmptyExcludeTheVacatedRoot) {
  size_and_empty_count_every_entry(Clock::kNeverStarted);
}

/// The engine's own pattern, differential against the oracle: pop the
/// minimum, move the clock to it, then push 0-3 entries at or after the
/// popped time, as a callback scheduling its successors does. Delays
/// mix same-instant ties, two fixed hop delays and random gaps of up
/// to `gap`; the pending set swings between a few dozen and a few
/// hundred entries.
void matches_sorted_order_in_the_engine_pattern(TimePs gap,
                                                std::uint64_t ops_total,
                                                Clock mode) {
  Wheel q;
  start(q, mode);
  std::vector<EventEntry> pending;
  Rng rng(0x5EEDull);
  std::uint64_t seq = 1;
  const auto push = [&](TimePs now, TimePs delta) {
    const auto tie = static_cast<std::uint32_t>(rng.uniform() * 3);
    const EventEntry e{now + delta, now, seq,
                       static_cast<std::uint32_t>(seq), tie};
    ++seq;
    q.push(e);
    pending.push_back(e);
  };
  for (int i = 0; i < 50; ++i) {
    push(0, static_cast<TimePs>(rng.uniform() * 1e6));
  }
  std::uint64_t ops = 0;
  while (ops < ops_total) {
    const EventEntry* top = q.peek();
    ASSERT_NE(top, nullptr);
    const EventEntry want = take_min(pending);
    ASSERT_EQ(top->seq, want.seq) << "op " << ops;
    q.pop();
    if (mode == Clock::kFollowed) q.advance(want.time);
    ++ops;
    ASSERT_EQ(q.size(), pending.size());
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
        delta = static_cast<TimePs>(rng.uniform() * static_cast<double>(gap));
      }
      push(want.time, delta);
    }
  }
  ASSERT_EQ(q.size(), pending.size());
  expect_drains_in_order(q, pending);
}

TEST(TimingWheelEventQueue, MatchesSortedOrderInTheEnginePattern) {
  matches_sorted_order_in_the_engine_pattern(microseconds(100), 120'000,
                                             Clock::kFollowed);
}

TEST(BinaryHeapEventQueue, MatchesSortedOrderInTheEnginePattern) {
  matches_sorted_order_in_the_engine_pattern(microseconds(100), 120'000,
                                             Clock::kNeverStarted);
}

TEST(TimingWheelEventQueue, InterleavesNearAndOverflowKeys) {
  // Keys on both sides of the horizon, pushed in alternation and
  // around its edge; then the clock moves so that the overflow's keys
  // come within reach and new near keys land before, between and after
  // them. Every pop takes the minimum of the wheel and the heap.
  Wheel q;
  q.advance(0);
  const TimePs h = Wheel::kHorizonPs;
  std::vector<EventEntry> pending;
  std::uint64_t seq = 1;
  const auto push = [&](TimePs t, TimePs sched, std::uint32_t tie = 0) {
    const EventEntry e{t, sched, seq, static_cast<std::uint32_t>(seq), tie};
    ++seq;
    q.push(e);
    pending.push_back(e);
  };
  for (TimePs d : {h - 1, h, h + 1, h - Wheel::kBucketPs, h + 7, TimePs{3}}) {
    push(d, 0);
    push(3 * h - d, 0);
  }
  push(h, 0, 2);      // the time of a heap key, a later token
  push(h - 1, 0, 1);  // the time of a wheel key, a later token
  // Pop in order with the clock following; each pop pushes a successor
  // just after the popped key and one a horizon out.
  while (pending.size() > 6) {
    const EventEntry want = take_min(pending);
    const EventEntry* top = q.peek();
    ASSERT_NE(top, nullptr);
    ASSERT_EQ(top->seq, want.seq);
    q.pop();
    q.advance(want.time);
    if (seq < 200) {
      push(want.time + 1, want.time);
      push(want.time + h - 1, want.time, 3);
    }
  }
  expect_drains_in_order(q, pending);
}

TEST(TimingWheelEventQueue, WrapsAroundAcrossManyHorizons) {
  // The clock runs across 200 horizons (3.4 ms) while every key lies
  // up to 1.5 horizons ahead: each slot is reused for many buckets, and
  // keys move between the wheel and the heap as the clock passes them.
  Wheel q;
  q.advance(0);
  Rng rng(0xBEEFull);
  std::vector<EventEntry> pending;
  std::uint64_t seq = 1;
  TimePs clock = 0;
  const auto push = [&](TimePs delta) {
    const EventEntry e{clock + delta, clock, seq,
                       static_cast<std::uint32_t>(seq),
                       static_cast<std::uint32_t>(rng.uniform() * 2)};
    ++seq;
    q.push(e);
    pending.push_back(e);
  };
  const double reach = 1.5 * static_cast<double>(Wheel::kHorizonPs);
  for (int i = 0; i < 64; ++i) push(static_cast<TimePs>(rng.uniform() * reach));
  while (clock < 200 * Wheel::kHorizonPs) {
    const EventEntry want = take_min(pending);
    const EventEntry* top = q.peek();
    ASSERT_NE(top, nullptr);
    ASSERT_EQ(top->seq, want.seq) << "at " << clock;
    q.pop();
    clock = want.time;
    q.advance(clock);
    const int pushes = pending.size() < 64 ? 2 : 1;
    for (int i = 0; i < pushes; ++i) {
      push(static_cast<TimePs>(rng.uniform() * reach));
    }
  }
  expect_drains_in_order(q, pending);
}

TEST(TimingWheelEventQueue, OutOfOrderPushesIntoOneBucket) {
  // Every key lies in one 2.048 ns bucket; pushes arrive in an order
  // that inserts at the head, the tail and in between, on each part of
  // the key.
  Wheel q;
  q.advance(0);
  const TimePs base = 10 * Wheel::kBucketPs;
  std::vector<EventEntry> pushes;
  const auto push = [&](const EventEntry& e) {
    q.push(e);
    pushes.push_back(e);
  };
  push({base + 500, base, 10, 1, 0});      // first
  push({base + 900, base, 11, 2, 0});      // tail
  push({base + 100, base, 12, 3, 0});      // new head
  push({base + 500, base, 9, 4, 0});       // before seq 10 at the same key
  push({base + 500, base, 13, 5, 0});      // after seq 10
  push({base + 500, base - 1, 14, 6, 0});  // earlier sched: before both
  push({base + 500, base, 15, 7, 1});      // larger token: after seq 13
  push({base + 2047, base, 16, 8, 0});     // the last picosecond
  push({base, base, 17, 9, 0});            // the first picosecond
  push({base + 900, base, 8, 10, 0});      // before seq 11
  EXPECT_EQ(q.size(), pushes.size());
  expect_drains_in_order(q, pushes);
}

TEST(TimingWheelEventQueue, SameTimeBurstPopsInSeqOrderQuickly) {
  // 100k events at one instant: each push appends at its bucket's tail
  // in O(1). A push that walked its bucket would make this quadratic
  // (5e9 steps), far past the bound.
  const auto start = std::chrono::steady_clock::now();
  Wheel q;
  q.advance(microseconds(3));
  constexpr std::uint64_t kCount = 100'000;
  for (std::uint64_t i = 1; i <= kCount; ++i) {
    q.push({microseconds(4), microseconds(3), i,
            static_cast<std::uint32_t>(i)});
  }
  std::uint64_t want = 1;
  while (const EventEntry* top = q.peek()) {
    ASSERT_EQ(top->seq, want);
    q.pop();
    ++want;
  }
  EXPECT_EQ(want, kCount + 1);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

TEST(TimingWheelEventQueue, PushAfterAPeekThatDidNotPop) {
  // A peek that is not followed by its pop must not pin the entry, or
  // the side (wheel or heap) the next pop removes from: a push in
  // between may sort first.
  Wheel q;
  q.advance(0);
  const TimePs h = Wheel::kHorizonPs;
  std::vector<EventEntry> pending;
  const auto push = [&](const EventEntry& e) {
    q.push(e);
    pending.push_back(e);
  };
  const auto pop_expecting = [&](std::uint64_t seq) {
    q.pop();
    EXPECT_EQ(take_min(pending).seq, seq);
  };
  push({2 * h, 0, 1, 1});  // past the horizon: the heap
  q.advance(h + 10);
  ASSERT_EQ(q.peek()->seq, 1u);
  push({h + 500, h + 10, 2, 2});  // the wheel, before the heap's top
  pop_expecting(2);
  push({h + 500, h + 10, 3, 3});
  ASSERT_EQ(q.peek()->seq, 3u);
  push({h + 100, h + 10, 4, 4});  // the wheel, a new first bucket
  pop_expecting(4);
  ASSERT_EQ(q.peek()->seq, 3u);
  push({h + 500, h + 10, 5, 5});  // same bucket, later: stays behind
  ASSERT_EQ(q.peek()->seq, 3u);
  push({h + 500, h + 10, 0, 6});  // same key but seq: new bucket head
  pop_expecting(0);
  ASSERT_EQ(q.peek()->seq, 3u);
  expect_drains_in_order(q, pending);
}

TEST(TimingWheelEventQueue, TimesNearTheEndOfTheClock) {
  // Keys up to kTimeInfinity, with the clock at 0 (all overflow) and
  // then within a horizon of the end (all wheel): no bucket arithmetic
  // may overflow, and the order holds at the clock's last picosecond.
  const TimePs end = kTimeInfinity;
  const TimePs h = Wheel::kHorizonPs;
  for (const TimePs clock : {TimePs{0}, end - h / 2, end - 1}) {
    SCOPED_TRACE(testing::Message() << "clock " << clock);
    Wheel q;
    q.advance(clock);
    std::vector<EventEntry> pending;
    std::uint64_t seq = 1;
    for (const TimePs t : {end, end - 1, end, clock, end - h / 4, end - 1}) {
      if (t < clock) continue;
      const EventEntry e{t, clock, seq, static_cast<std::uint32_t>(seq), 0};
      ++seq;
      q.push(e);
      pending.push_back(e);
    }
    EXPECT_EQ(q.size(), pending.size());
    expect_drains_in_order(q, pending);
  }
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


TEST(Simulator, NextEventTimeTombstoneDoesNotMoveTheClock) {
  // next_event_time() discards a cancelled event's tombstone that lies
  // well past now. The wheel's cursor stays with the clock, so events
  // scheduled afterwards before the tombstone's time, near and past the
  // wheel's reach, still run in time order.
  Simulator s;
  s.run_until(microseconds(1));  // the engine has run: the wheel is live
  const EventId later = s.schedule_at(microseconds(15), [] { FAIL(); });
  s.cancel(later);
  EXPECT_EQ(s.next_event_time(), kTimeInfinity);
  EXPECT_EQ(s.tombstones(), 0u);
  std::vector<TimePs> fired;
  const auto record = [&] { fired.push_back(s.now()); };
  for (const std::int64_t us : {40, 14, 2, 15, 1}) {
    s.schedule_at(microseconds(us), record);
  }
  s.run();
  EXPECT_EQ(fired, (std::vector<TimePs>{microseconds(1), microseconds(2),
                                        microseconds(14), microseconds(15),
                                        microseconds(40)}));
}

}  // namespace
}  // namespace powertcp::sim
