#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace powertcp::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_FALSE(s.pending());
}

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(nanoseconds(30), [&] { order.push_back(3); });
  s.schedule_at(nanoseconds(10), [&] { order.push_back(1); });
  s.schedule_at(nanoseconds(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    s.schedule_at(nanoseconds(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, NowAdvancesToEventTime) {
  Simulator s;
  TimePs seen = -1;
  s.schedule_at(microseconds(7), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, microseconds(7));
  EXPECT_EQ(s.now(), microseconds(7));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator s;
  TimePs seen = -1;
  s.schedule_at(microseconds(5), [&] {
    s.schedule_in(microseconds(3), [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, microseconds(8));
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator s;
  s.schedule_at(microseconds(10), [&] {
    EXPECT_THROW(s.schedule_at(microseconds(5), [] {}),
                 std::invalid_argument);
  });
  s.run();
}

TEST(Simulator, EventsCanScheduleAtCurrentTime) {
  Simulator s;
  int fired = 0;
  s.schedule_at(microseconds(1), [&] {
    s.schedule_at(s.now(), [&] { ++fired; });
  });
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  int fired = 0;
  const EventId id = s.schedule_at(nanoseconds(10), [&] { ++fired; });
  s.cancel(id);
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelAfterFireIsNoOp) {
  Simulator s;
  int fired = 0;
  const EventId id = s.schedule_at(nanoseconds(10), [&] { ++fired; });
  s.run();
  s.cancel(id);  // already executed: harmless
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelOnlyAffectsTargetEvent) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(nanoseconds(10), [&] { order.push_back(1); });
  const EventId id =
      s.schedule_at(nanoseconds(10), [&] { order.push_back(2); });
  s.schedule_at(nanoseconds(10), [&] { order.push_back(3); });
  s.cancel(id);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, CancelDecrementsPendingImmediately) {
  // Regression: pending() used to count cancelled-but-unpopped events as
  // live, so a drain loop keyed on pending() saw phantom work.
  Simulator s;
  const EventId a = s.schedule_at(nanoseconds(10), [] {});
  const EventId b = s.schedule_at(nanoseconds(20), [] {});
  EXPECT_TRUE(s.pending());
  s.cancel(a);
  EXPECT_TRUE(s.pending());
  s.cancel(b);
  EXPECT_FALSE(s.pending());  // only tombstones remain
  s.run();
  EXPECT_EQ(s.events_executed(), 0u);
}

TEST(Simulator, RepeatedCancelOfSameIdDecrementsOnce) {
  Simulator s;
  const EventId a = s.schedule_at(nanoseconds(10), [] {});
  s.schedule_at(nanoseconds(20), [] {});
  s.cancel(a);
  s.cancel(a);
  s.cancel(a);
  EXPECT_TRUE(s.pending());  // the second event is still live
}

TEST(Simulator, StaleCancelBookkeepingStaysBounded) {
  // Regression: cancelling an already-fired (or default) id used to
  // insert a seq into a lazy-deletion set that was never erased,
  // growing without bound across a long run.
  Simulator s;
  for (int round = 0; round < 100; ++round) {
    const EventId id = s.schedule_at(s.now(), [] {});
    s.run();
    for (int i = 0; i < 10; ++i) s.cancel(id);  // fired: stale handle
    s.cancel(EventId{});                        // never scheduled
    EXPECT_EQ(s.tombstones(), 0u);
    EXPECT_FALSE(s.pending());
  }
}

TEST(Simulator, TombstonesDrainOnPop) {
  Simulator s;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(s.schedule_at(nanoseconds(i), [] {}));
  }
  for (int i = 0; i < 10; i += 2) s.cancel(ids[static_cast<size_t>(i)]);
  EXPECT_EQ(s.tombstones(), 5u);
  s.run();
  EXPECT_EQ(s.tombstones(), 0u);
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(Simulator, StaleHandleDoesNotCancelSlotReuser) {
  // A freed slot may be reused by a newer event; the old handle's seq
  // no longer matches, so cancelling it must not touch the new event.
  Simulator s;
  const EventId old_id = s.schedule_at(nanoseconds(10), [] {});
  s.cancel(old_id);
  int fired = 0;
  s.schedule_at(nanoseconds(20), [&] { ++fired; });  // reuses the slot
  s.cancel(old_id);                                  // stale: must no-op
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelInsideRunningCallbackOfSelfIsNoOp) {
  Simulator s;
  EventId self{};
  int fired = 0;
  self = s.schedule_at(nanoseconds(10), [&] {
    ++fired;
    s.cancel(self);  // own event is already executing: harmless
  });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.tombstones(), 0u);
}

TEST(Simulator, RunUntilLeavesLaterEventsPending) {
  Simulator s;
  int fired = 0;
  s.schedule_at(microseconds(1), [&] { ++fired; });
  s.schedule_at(microseconds(10), [&] { ++fired; });
  s.run_until(microseconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), microseconds(5));
  EXPECT_TRUE(s.pending());
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilExecutesEventAtBoundary) {
  Simulator s;
  int fired = 0;
  s.schedule_at(microseconds(5), [&] { ++fired; });
  s.run_until(microseconds(5));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, StopHaltsRun) {
  Simulator s;
  int fired = 0;
  s.schedule_at(nanoseconds(1), [&] {
    ++fired;
    s.stop();
  });
  s.schedule_at(nanoseconds(2), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator s;
  for (int i = 0; i < 5; ++i) s.schedule_at(nanoseconds(i), [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(Simulator, RecursiveSchedulingChains) {
  Simulator s;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 100) s.schedule_in(nanoseconds(10), tick);
  };
  s.schedule_at(0, tick);
  s.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(s.now(), nanoseconds(990));
}

TEST(Simulator, RunningEventIsNotCountedInsideItsCallback) {
  // The executing event has left the pending set before its callback
  // runs: pending(), tombstones() and next_event_time() see only the
  // events still to come, before and after the callback schedules more.
  Simulator s;
  const EventId doomed = s.schedule_at(nanoseconds(30), [] { FAIL(); });
  s.schedule_at(nanoseconds(20), [] {});
  bool checked = false;
  s.schedule_at(nanoseconds(10), [&] {
    EXPECT_EQ(s.tombstones(), 0u);
    EXPECT_TRUE(s.pending());
    EXPECT_EQ(s.next_event_time(), nanoseconds(20));
    s.cancel(doomed);
    EXPECT_EQ(s.tombstones(), 1u);
    s.schedule_in(nanoseconds(5), [] {});
    EXPECT_EQ(s.tombstones(), 1u);
    EXPECT_EQ(s.next_event_time(), nanoseconds(15));
    checked = true;
  });
  s.run_until(nanoseconds(10));
  EXPECT_TRUE(checked);
  EXPECT_EQ(s.events_executed(), 1u);
  s.run();
  EXPECT_EQ(s.events_executed(), 3u);
  EXPECT_EQ(s.tombstones(), 0u);
  EXPECT_FALSE(s.pending());

  // The last pending event: nothing is left while it runs.
  Simulator last;
  last.schedule_at(nanoseconds(1), [&] {
    EXPECT_FALSE(last.pending());
    EXPECT_EQ(last.tombstones(), 0u);
    EXPECT_EQ(last.next_event_time(), kTimeInfinity);
  });
  last.run();
  EXPECT_EQ(last.events_executed(), 1u);
}

TEST(Simulator, ThrowingCallbackLeavesEngineConsistent) {
  // A callback that throws unwinds out of run() with its event already
  // removed; a later run() drains the rest in key order, including the
  // events the thrower scheduled before throwing.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(nanoseconds(40), [&] { order.push_back(4); });
  s.schedule_at(nanoseconds(20), [&] { order.push_back(2); });
  s.schedule_at(nanoseconds(10), [&] {
    order.push_back(1);
    s.schedule_at(nanoseconds(30), [&] { order.push_back(3); });
    throw std::runtime_error("callback failed");
  });
  s.schedule_at(nanoseconds(10), [&] {
    order.push_back(0);
    throw std::runtime_error("callback failed before scheduling");
  });
  EXPECT_THROW(s.run(), std::runtime_error);
  EXPECT_EQ(s.now(), nanoseconds(10));
  EXPECT_EQ(s.tombstones(), 0u);
  EXPECT_EQ(s.next_event_time(), nanoseconds(10));
  EXPECT_THROW(s.run(), std::runtime_error);
  EXPECT_EQ(s.events_executed(), 2u);
  EXPECT_EQ(s.tombstones(), 0u);
  EXPECT_EQ(s.next_event_time(), nanoseconds(20));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 3, 4}));
  EXPECT_EQ(s.events_executed(), 5u);
  EXPECT_FALSE(s.pending());
}

TEST(Simulator, ScheduleInPastTheClockRangeThrows) {
  // The range check runs before now + delay is formed: the error names
  // the overflow, not a wrapped time that happens to lie in the past.
  Simulator s;
  s.schedule_at(microseconds(1), [] {});
  s.run();
  const TimePs too_far = kTimeInfinity - s.now() + 1;
  for (const TimePs delay : {kTimeInfinity, too_far}) {
    try {
      s.schedule_in(delay, [] {});
      ADD_FAILURE() << "schedule_in(" << delay << ") did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("overflows the clock"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_FALSE(s.pending());
  // The last representable instant is still schedulable.
  s.schedule_in(kTimeInfinity - microseconds(1), [] {});
  EXPECT_EQ(s.next_event_time(), kTimeInfinity);
  EXPECT_TRUE(s.pending());
}

TEST(Simulator, ScheduleInNegativeDelayThrows) {
  // A negative delay would queue an event behind now() and run the
  // clock backwards; it is rejected before anything is queued.
  Simulator s;
  s.schedule_at(microseconds(1), [] {});
  s.run();
  for (const TimePs delay : {TimePs{-1}, -microseconds(1), -kTimeInfinity}) {
    try {
      s.schedule_in(delay, [] {});
      ADD_FAILURE() << "schedule_in(" << delay << ") did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("is negative"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_FALSE(s.pending());
  EXPECT_EQ(s.tombstones(), 0u);
  EXPECT_EQ(s.next_event_time(), kTimeInfinity);
  s.run();
  EXPECT_EQ(s.now(), microseconds(1));
}

TEST(Simulator, ReservedKeyRunsWhereScheduleInWouldHavePutIt) {
  // The reservation takes its seq between A's and B's, so the event
  // scheduled on it later still runs between them.
  Simulator s;
  std::vector<char> order;
  Reservation r;
  s.schedule_at(0, [&] {
    s.schedule_in(nanoseconds(10), [&] { order.push_back('A'); });
    r = s.reserve_in(nanoseconds(10));
    s.schedule_in(nanoseconds(10), [&] { order.push_back('B'); });
  });
  s.schedule_at(nanoseconds(5), [&] {
    EXPECT_FALSE(s.passed(r));
    s.schedule_reserved(r, [&] { order.push_back('R'); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'R', 'B'}));
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(Simulator, PassedComparesAgainstTheRunningEventsKey) {
  Simulator s;
  Reservation r;
  std::vector<bool> seen;
  const auto probe = [&] { seen.push_back(s.passed(r)); };
  // Same picosecond, same causal time: scheduling order decides. The
  // first probe is scheduled before r is taken, the second after.
  s.schedule_at(nanoseconds(10), probe);
  s.schedule_at(0, [&] {
    r = s.reserve_in(nanoseconds(10));
    s.schedule_in(nanoseconds(10), probe);
  });
  EXPECT_FALSE(s.passed(Reservation{0, 0, 1}));  // before any run
  s.run_until(nanoseconds(9));
  EXPECT_FALSE(s.passed(r));
  s.run();
  EXPECT_EQ(seen, (std::vector<bool>{false, true}));
  EXPECT_TRUE(s.passed(r));
}

TEST(Simulator, ElidedEventCountsOnceItsKeyPassesAtAnyCut) {
  Simulator s;
  ElidableEvent e(s);
  s.schedule_at(0, [&] { e.reserve_in(nanoseconds(10)); });
  s.schedule_at(nanoseconds(20), [] {});
  s.run_until(nanoseconds(9));
  EXPECT_EQ(s.events_elided(), 0u);
  EXPECT_EQ(s.events_executed(), 1u);
  s.run_until(nanoseconds(10));
  EXPECT_TRUE(e.held());
  EXPECT_EQ(s.events_elided(), 1u);
  EXPECT_EQ(s.events_executed(), 2u);
  e.settle();  // settling a counted key does not count it twice
  EXPECT_EQ(s.events_elided(), 1u);
  s.run();
  EXPECT_EQ(s.events_executed(), 3u);
}

TEST(Simulator, ScheduledElidableEventIsCountedOnceAsExecuted) {
  Simulator s;
  ElidableEvent e(s);
  int fired = 0;
  s.schedule_at(0, [&] { e.reserve_in(nanoseconds(10)); });
  s.schedule_at(nanoseconds(5), [&] { e.schedule([&] { ++fired; }); });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(e.held());
  EXPECT_EQ(s.events_elided(), 0u);
  EXPECT_EQ(s.events_executed(), 3u);
}

TEST(Simulator, DrainedRunEndsAtTheLastLogicalEvent) {
  Simulator s;
  ElidableEvent e(s);
  s.schedule_at(nanoseconds(1), [&] { e.reserve_in(nanoseconds(99)); });
  s.run();
  EXPECT_EQ(s.now(), nanoseconds(100));
  EXPECT_TRUE(e.passed());
  EXPECT_EQ(s.events_executed(), 2u);
}

TEST(Simulator, DestroyedElidableEventCountsOnlyIfItsKeyPassed) {
  Simulator s;
  {
    ElidableEvent ahead(s);
    ahead.reserve_in(nanoseconds(10));
  }  // dropped, as cancelling its event would
  EXPECT_EQ(s.events_elided(), 0u);
  {
    ElidableEvent done(s);
    done.reserve_in(nanoseconds(10));
    s.run_until(nanoseconds(10));
  }  // ran logically: still counted once its owner is gone
  EXPECT_EQ(s.events_elided(), 1u);
  EXPECT_EQ(s.events_executed(), 1u);
}

TEST(Simulator, WakeupsAreNotLogicalEvents) {
  Simulator s;
  s.schedule_at(nanoseconds(10), [&] { s.note_wakeup(); });
  s.schedule_at(nanoseconds(20), [] {});
  s.run_until(nanoseconds(10));
  EXPECT_EQ(s.wakeups(), 1u);
  EXPECT_EQ(s.events_executed(), 0u);
  s.run();
  EXPECT_EQ(s.events_executed(), 1u);
}

TEST(Simulator, StampedDeliveryPopsAtItsCausalScheduleTime) {
  // Four events collide at t=50. Three stamped deliveries are scheduled
  // at t=0 and a local event at t=40; they pop in (sched, tie) order,
  // not in the order they were scheduled. A local event carries tie 0,
  // so it runs ahead of deliveries with its causal time.
  Simulator s;
  std::vector<int> order;
  s.schedule_stamped(nanoseconds(40), nanoseconds(50), 2,
                     [&] { order.push_back(4); });
  s.schedule_stamped(nanoseconds(40), nanoseconds(50), 1,
                     [&] { order.push_back(3); });
  s.schedule_stamped(nanoseconds(10), nanoseconds(50), 5,
                     [&] { order.push_back(1); });
  s.schedule_at(nanoseconds(40), [&] {
    s.schedule_at(nanoseconds(50), [&] { order.push_back(2); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Simulator, StampedAndReservedSchedulingValidateTheirKeys) {
  Simulator s;
  s.run_until(nanoseconds(10));
  // A causal stamp may lie ahead of now(), but never after the event.
  EXPECT_THROW(s.schedule_stamped(nanoseconds(12), nanoseconds(11), 1, [] {}),
               std::invalid_argument);
  EXPECT_THROW(s.schedule_stamped(0, nanoseconds(9), 1, [] {}),
               std::invalid_argument);
  EXPECT_NO_THROW(s.schedule_stamped(nanoseconds(11), nanoseconds(11), 1,
                                     [] {}));
  EXPECT_THROW(s.reserve_in(-1), std::invalid_argument);
  EXPECT_THROW(s.reserve_in(kTimeInfinity), std::invalid_argument);
  EXPECT_THROW(s.schedule_reserved(Reservation{}, [] {}),
               std::invalid_argument);
  // A reservation whose key has passed can no longer run in key order.
  const Reservation r = s.reserve_in(nanoseconds(5));
  s.run_until(nanoseconds(15));
  EXPECT_THROW(s.schedule_reserved(r, [] {}), std::logic_error);
  const Reservation ahead = s.reserve_in(nanoseconds(5));
  EXPECT_NO_THROW(s.schedule_reserved(ahead, [] {}));
}

/// A capture that counts how often it is copied and moved.
struct CountedCapture {
  int* copies;
  int* moves;
  CountedCapture(int* c, int* m) : copies(c), moves(m) {}
  CountedCapture(const CountedCapture& o) : copies(o.copies), moves(o.moves) {
    ++*copies;
  }
  CountedCapture(CountedCapture&& o) noexcept
      : copies(o.copies), moves(o.moves) {
    ++*moves;
  }
  CountedCapture& operator=(const CountedCapture&) = delete;
};

TEST(Simulator, ClosureIsBuiltInItsSlotAndMovedAtMostOnce) {
  // Every entry point copies the closure once, straight into its event
  // slot; the pop that runs it is the only move on the way.
  Simulator s;
  int copies = 0;
  int moves = 0;
  int runs = 0;
  const auto fn = [c = CountedCapture{&copies, &moves}, &runs] {
    (void)c;
    ++runs;
  };
  ElidableEvent elidable(s);
  const std::vector<std::pair<const char*, std::function<void()>>> entries = {
      {"schedule_at", [&] { s.schedule_at(nanoseconds(1), fn); }},
      {"schedule_in", [&] { s.schedule_in(nanoseconds(1), fn); }},
      {"schedule_stamped",
       [&] { s.schedule_stamped(s.now(), s.now() + 1, 3, fn); }},
      {"schedule_reserved",
       [&] { s.schedule_reserved(s.reserve_in(nanoseconds(1)), fn); }},
      {"ElidableEvent::schedule",
       [&] {
         elidable.reserve_in(nanoseconds(1));
         elidable.schedule(fn);
       }},
  };
  for (const auto& [name, schedule] : entries) {
    copies = moves = runs = 0;
    schedule();
    s.run();
    EXPECT_EQ(runs, 1) << name;
    EXPECT_EQ(copies, 1) << name;
    EXPECT_LE(moves, 1) << name;
  }
  // A prebuilt Callback is still accepted, and moved into the slot.
  int hits = 0;
  Callback prebuilt = [&hits] { ++hits; };
  s.schedule_in(nanoseconds(1), std::move(prebuilt));
  s.run();
  EXPECT_EQ(hits, 1);
}

TEST(Simulator, ClosureThatThrowsWhileBuiltInItsSlotSchedulesNothing) {
  struct ThrowsOnCopy {
    ThrowsOnCopy() = default;
    ThrowsOnCopy(const ThrowsOnCopy&) { throw std::runtime_error("copy"); }
    ThrowsOnCopy(ThrowsOnCopy&&) noexcept = default;
  };
  Simulator s;
  const auto fn = [t = ThrowsOnCopy{}] { (void)t; };
  EXPECT_THROW(s.schedule_in(nanoseconds(1), fn), std::runtime_error);
  EXPECT_FALSE(s.pending());
  EXPECT_EQ(s.tombstones(), 0u);
  // The claimed slot went back on the free list and is reused.
  EXPECT_EQ(s.free_slot_count(), s.slot_count());
  int runs = 0;
  s.schedule_in(nanoseconds(1), [&runs] { ++runs; });
  s.run();
  EXPECT_EQ(runs, 1);
  EXPECT_LE(s.slot_count(), 1u);
}

}  // namespace
}  // namespace powertcp::sim
