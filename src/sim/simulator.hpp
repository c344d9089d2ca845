#pragma once

#include <compare>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/callback.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

/// \file simulator.hpp
/// Deterministic discrete-event engine.
///
/// Events scheduled for the same timestamp execute in scheduling order
/// (FIFO tie-break on a monotonically increasing sequence number), so a
/// run is a pure function of its inputs and RNG seed. This determinism is
/// relied on by the regression tests, which compare whole packet traces
/// across runs.
///
/// Storage is split between a pending set of small POD entries
/// (time, sched, tie, seq, slot) — a timing wheel for the near future
/// with a std::priority_queue behind it, see event_queue.hpp — and a
/// slot table holding the callbacks. Callbacks are sim::Callback, which
/// embeds the closure in the slot (no per-event heap allocation;
/// oversized captures fail to compile). The schedule_* entry points
/// take the callable itself and forward it to its slot, where it is
/// constructed in place: an event's closure moves once, when the pop
/// takes it out of its slot to run it. Cancelling frees the slot immediately — an O(1)
/// generation check against the EventId's seq, with no lookaside set
/// that could grow when stale ids are cancelled — and leaves only the
/// POD queue entry behind as a tombstone that is discarded when it
/// reaches the top.
///
/// Some events only matter if something reads their effect before a
/// later event would have undone it. For those the engine hands out a
/// RESERVED key (reserve_in): the full (time, sched, tie, seq) key the
/// event would have had, taken at the exact point schedule_in would
/// take it, but with no heap entry behind it. The owner pushes the
/// entry later (schedule_reserved) only if the event turns out to
/// matter while its key is still ahead of the running event (passed()),
/// and otherwise applies the event's effects lazily, in key order.

namespace powertcp::sim {

/// Handle for a scheduled event; usable with Simulator::cancel().
/// A default-constructed EventId refers to no event.
struct EventId {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  constexpr bool operator==(const EventId&) const = default;
};

/// An event key taken without scheduling (Simulator::reserve_in). Its
/// `tie` is always 0: reservations stand for ordinary local events, so
/// the member-wise order is the engine's key order. `seq` 0 means
/// nothing is reserved.
struct Reservation {
  TimePs time = 0;
  TimePs sched = 0;
  std::uint64_t seq = 0;
  bool held() const { return seq != 0; }
  auto operator<=>(const Reservation&) const = default;
};

class ElidableEvent;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  TimePs now() const { return now_; }

  /// Schedules `f` at absolute time `t`. `t` must not be in the past.
  /// `f` is any callable a sim::Callback holds, or a Callback; it is
  /// constructed in the event's slot (see Callback::emplace).
  template <typename F>
  EventId schedule_at(TimePs t, F&& f) {
    if (t < now_) throw_before_now("schedule_at", t);
    return enqueue(t, now_, 0, next_seq_++, std::forward<F>(f));
  }

  /// Schedules `f` after `delay` (>= 0) from now. A negative delay, or
  /// one that would carry the time past kTimeInfinity, throws
  /// std::invalid_argument and schedules nothing.
  template <typename F>
  EventId schedule_in(TimePs delay, F&& f) {
    if (delay < 0) throw_bad_delay("schedule_in", delay, "is negative");
    if (delay > kTimeInfinity - now_) {
      throw_bad_delay("schedule_in", delay, "overflows the clock");
    }
    return enqueue(now_ + delay, now_, 0, next_seq_++, std::forward<F>(f));
  }

  /// Schedules `f` at absolute time `t` (>= now()) with causal
  /// timestamp `sched` (<= t) and tie token `tie`: the event sorts among
  /// same-time peers as if it had been scheduled at `sched`, and among
  /// same-(time, sched) peers by the token before scheduling order.
  /// `sched` may lie ahead of now(). A packet delivery is scheduled this
  /// way when its serialization STARTS, stamped with the serialization
  /// finish as its causal time and carrying its egress port's
  /// topology-derived token (see net::Node::attach_port), so that
  /// same-picosecond delivery ties resolve by the port, not by when the
  /// serialization started.
  template <typename F>
  EventId schedule_stamped(TimePs sched, TimePs t, std::uint32_t tie,
                           F&& f) {
    if (t < now_) throw_before_now("schedule_stamped", t);
    if (sched > t) throw_sched_after_time(sched, t);
    return enqueue(t, sched, tie, next_seq_++, std::forward<F>(f));
  }

  /// Takes the key schedule_in(delay, ...) would take here, and the same
  /// validation, without pushing an event. The key counts as passed()
  /// once the engine has run past the point it would have run at.
  Reservation reserve_in(TimePs delay) {
    if (delay < 0 || delay > kTimeInfinity - now_) {
      throw_bad_delay("reserve_in", delay, "is out of range");
    }
    return Reservation{now_ + delay, now_, next_seq_++};
  }

  /// True iff `r` sorts at or before the running event's key, i.e. an
  /// event scheduled on `r` would already have run. Between runs, after
  /// run_until(t) or a drained run(), every key at or before now()
  /// counts as passed (so a zero-delay reservation taken between runs
  /// is passed at once).
  bool passed(const Reservation& r) const {
    if (r.time != cur_.time) return r.time < cur_.time;
    if (r.sched != cur_.sched) return r.sched < cur_.sched;
    return cur_.tie != 0 || r.seq <= cur_.seq;
  }

  /// Pushes the event for reservation `r`, which then runs exactly where
  /// an event scheduled when `r` was taken would have run. Throws
  /// std::logic_error if `r` has passed (it could no longer run in key
  /// order) and std::invalid_argument if `r` holds no key.
  template <typename F>
  EventId schedule_reserved(const Reservation& r, F&& f) {
    if (!r.held()) throw_unheld();
    if (passed(r)) throw_passed(r);
    return enqueue(r.time, r.sched, 0, r.seq, std::forward<F>(f));
  }

  /// Marks the running event as a wake-up: a deferred timer whose
  /// heap entry came due only to re-arm itself on its reserved key (see
  /// host::FlowSender). A wake-up is not a logical event, so
  /// events_executed() does not count it.
  void note_wakeup() { ++wakeups_; }

  /// Cancels a pending event and releases its callback immediately.
  /// Cancelling an already-fired, already-cancelled, or default
  /// EventId is a harmless no-op and allocates nothing.
  void cancel(EventId id) {
    if (id.seq == 0 || id.slot >= slots_.size()) return;
    Slot& s = slots_[id.slot];
    if (s.seq != id.seq) return;  // fired or superseded: stale handle
    release_slot(id.slot);
    --live_events_;
  }

  /// Runs until the event queue drains or stop() is called. A drained
  /// run leaves now() at the last LOGICAL event, which may be an elided
  /// one (see ElidableEvent) later than the last executed event.
  void run();

  /// Runs events with time <= `t`; afterwards now() == t unless stopped
  /// earlier. Events scheduled beyond `t` remain pending.
  void run_until(TimePs t);

  /// Earliest pending live event time, or kTimeInfinity when idle.
  /// Tombstones of cancelled events blocking the top are discarded in
  /// passing (the same lazy deletion the run loop performs).
  TimePs next_event_time();

  /// Stops the run loop after the current event returns.
  void stop() { stopped_ = true; }

  /// True while at least one *live* (not cancelled) event is scheduled.
  bool pending() const { return live_events_ > 0; }

  /// Logical events executed: heap events run, plus elided events whose
  /// key has passed, minus wake-ups. The count is the one an engine that
  /// scheduled every event would report, at any cut.
  std::uint64_t events_executed() const {
    return executed_ + events_elided() - wakeups_;
  }
  /// Events that never had a heap entry but whose key has passed (see
  /// ElidableEvent): settled ones plus passed keys still held.
  std::uint64_t events_elided() const;
  /// Heap events that were wake-ups (note_wakeup), not logical events.
  std::uint64_t wakeups() const { return wakeups_; }

  /// Queue entries for cancelled events awaiting lazy removal. Bounded by
  /// the number of currently scheduled events ever in flight; regression
  /// tests assert it never grows from cancelling stale ids.
  std::size_t tombstones() const {
    return queue_.size() - static_cast<std::size_t>(live_events_);
  }

  /// Slot-table introspection for leak regression tests: the table's
  /// high-water size and how many of those slots are currently free.
  std::size_t slot_count() const { return slots_.size(); }
  std::size_t free_slot_count() const { return free_slots_.size(); }

 private:
  struct Slot {
    std::uint64_t seq = 0;  ///< 0 = free; else seq of the event it holds
    Callback cb;
  };
  static_assert(sizeof(Callback) == 64, "a Callback is one cache line");
  static_assert(sizeof(Slot) == 80, "a slot is the seq plus a Callback");

  void release_slot(std::uint32_t idx) {
    Slot& s = slots_[idx];
    s.seq = 0;
    s.cb.reset();
    free_slots_.push_back(idx);
  }

  /// Constructs `f` in a free slot and pushes its queue entry with key
  /// (t, sched, tie, seq); the schedule_* entry points validate their
  /// arguments first. If constructing `f` throws, the slot goes back on
  /// the free list and nothing is scheduled.
  template <typename F>
  EventId enqueue(TimePs t, TimePs sched, std::uint32_t tie,
                  std::uint64_t seq, F&& f) {
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    try {
      slots_[slot].cb.emplace(std::forward<F>(f));
    } catch (...) {
      free_slots_.push_back(slot);
      throw;
    }
    slots_[slot].seq = seq;
    queue_.push(EventEntry{t, sched, seq, slot, tie});
    ++live_events_;
    return EventId{seq, slot};
  }

  // Argument errors, out of line so the inline schedule_* paths stay
  // small.
  [[noreturn]] void throw_before_now(const char* op, TimePs t) const;
  [[noreturn]] void throw_bad_delay(const char* op, TimePs delay,
                                    const char* what) const;
  [[noreturn]] static void throw_sched_after_time(TimePs sched, TimePs t);
  [[noreturn]] static void throw_unheld();
  [[noreturn]] static void throw_passed(const Reservation& r);

  /// Marks every key at or before now() as passed: the state after
  /// run_until() or a drained run(), with no event running.
  void settle_to_now() {
    cur_ = EventEntry{now_, kTimeInfinity, UINT64_MAX, 0, UINT32_MAX};
  }

  bool pop_and_run_next(TimePs limit);

  /// The pending set. Its cursor follows now_: every assignment to
  /// now_ is followed by queue_.advance(now_).
  TimingWheelEventQueue queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  TimePs now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t live_events_ = 0;
  bool stopped_ = false;

  /// Key of the running event (the last executed one between events;
  /// see settle_to_now). passed() compares against it. Time -1 before
  /// the first event: nothing has passed.
  EventEntry cur_{-1, -1, 0, 0, 0};

  // Elision accounting (see ElidableEvent): every live ElidableEvent,
  // the elided events already settled, and the wake-ups executed.
  friend class ElidableEvent;
  std::vector<ElidableEvent*> elidable_;
  std::uint64_t elided_ = 0;
  std::uint64_t wakeups_ = 0;

};

/// An event that runs only if something needs it to. A serialization
/// finish that finds an empty backlog only marks its wire idle, so the
/// port reserves the finish's key instead of scheduling it (see
/// net::EgressPort::start_tx). The owner then either schedule()s the
/// event while its key is still ahead, or, once the key has passed,
/// applies the event's effects itself and settle()s it.
///
/// Each ElidableEvent is registered with its Simulator for its whole
/// lifetime, so that events_executed() counts a passed key that is still
/// held as the event it stands for: the count is exact at any cut, not
/// only once the owner settles. Destroying one whose key has passed
/// settles it; destroying one whose key is still ahead drops it, as
/// cancelling its event would.
class ElidableEvent {
 public:
  explicit ElidableEvent(Simulator& sim) : sim_(sim) {
    index_ = sim_.elidable_.size();
    sim_.elidable_.push_back(this);
  }
  ~ElidableEvent();
  ElidableEvent(const ElidableEvent&) = delete;
  ElidableEvent& operator=(const ElidableEvent&) = delete;

  /// Reserves the key schedule_in(delay) would take. Precondition:
  /// !held().
  void reserve_in(TimePs delay) { key_ = sim_.reserve_in(delay); }
  bool held() const { return key_.held(); }
  const Reservation& key() const { return key_; }
  bool passed() const { return sim_.passed(key_); }

  /// Turns the held key into a heap event running `f` (see
  /// Simulator::schedule_reserved) and lets go of it.
  template <typename F>
  EventId schedule(F&& f) {
    const EventId id = sim_.schedule_reserved(key_, std::forward<F>(f));
    key_ = Reservation{};
    return id;
  }

  /// Counts the held, passed key as an executed event and lets go of
  /// it. The caller applies the event's effects.
  void settle() {
    ++sim_.elided_;
    key_ = Reservation{};
  }

 private:
  Simulator& sim_;
  Reservation key_;
  std::size_t index_;
};

}  // namespace powertcp::sim
