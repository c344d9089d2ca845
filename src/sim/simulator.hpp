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
/// Storage is split between a binary heap of small POD entries
/// (time, sched, tie, seq, slot) and a slot table holding the
/// callbacks. Callbacks are sim::Callback, which embeds the
/// closure in the slot (no per-event heap allocation; oversized captures
/// fail to compile). Cancelling frees the slot immediately — an O(1)
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

  /// Schedules `cb` at absolute time `t`. `t` must not be in the past.
  EventId schedule_at(TimePs t, Callback cb);

  /// Schedules `cb` after `delay` (>= 0) from now. A delay that would
  /// carry the time past kTimeInfinity throws std::invalid_argument.
  EventId schedule_in(TimePs delay, Callback cb) {
    if (delay > kTimeInfinity - now_) {
      throw std::invalid_argument("Simulator::schedule_in: delay " +
                                  format_time(delay) + " from now " +
                                  format_time(now_) +
                                  " overflows the clock");
    }
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Schedules `cb` at absolute time `t` (>= now()) with causal
  /// timestamp `sched` (<= t) and tie token `tie`: the event sorts among
  /// same-time peers as if it had been scheduled at `sched`, and among
  /// same-(time, sched) peers by the token before scheduling order.
  /// `sched` may lie ahead of now(). A packet delivery is scheduled this
  /// way when its serialization STARTS, stamped with the serialization
  /// finish as its causal time and carrying its egress port's
  /// topology-derived token (see net::Node::attach_port), so that
  /// same-picosecond delivery ties resolve by a key that is identical in
  /// sequential and sharded runs; schedule_from carries the same token
  /// across a shard boundary.
  EventId schedule_stamped(TimePs sched, TimePs t, std::uint32_t tie,
                           Callback cb);

  /// Takes the key schedule_in(delay, ...) would take here, and the same
  /// validation, without pushing an event. The key counts as passed()
  /// once the engine has run past the point it would have run at.
  Reservation reserve_in(TimePs delay) {
    if (delay < 0 || delay > kTimeInfinity - now_) {
      throw std::invalid_argument("Simulator::reserve_in: delay " +
                                  format_time(delay) + " from now " +
                                  format_time(now_) + " is out of range");
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
  EventId schedule_reserved(const Reservation& r, Callback cb);

  /// Marks the running event as a wake-up: a deferred timer whose
  /// heap entry came due only to re-arm itself on its reserved key (see
  /// host::FlowSender). A wake-up is not a logical event, so
  /// events_executed() does not count it.
  void note_wakeup() { ++wakeups_; }

  /// Schedules `cb` at absolute time `t` with an EXPLICIT causal
  /// timestamp `sched_time` (<= t): the event sorts among
  /// same-picosecond peers as if it had been scheduled at
  /// `sched_time`, not at now(). This is the cross-shard ingestion
  /// primitive — a remote packet delivery handed over at a window
  /// barrier keeps the tie-break position the sequential engine would
  /// have given it at the sender-side send time. `sched_time` may lie
  /// in this simulator's past (the sender's clock runs independently);
  /// only events at times still strictly ahead of this shard's
  /// executed window may be scheduled, which the conservative
  /// lookahead guarantees.
  ///
  /// `origin` must be NONZERO and identify the foreign causal domain
  /// (the sharded engine uses 1 + source shard). It feeds the boundary
  /// ambiguity detector: two back-to-back events with equal
  /// (time, sched_time, tie) but different origins are a tie whose
  /// sequential order is not locally decidable — see
  /// boundary_ambiguities(). `tie` is the producing port's tie token
  /// (see schedule_stamped); deliveries stamped with a nonzero token
  /// are exactly ordered against every differently-keyed event, so
  /// with tokens flowing the detector is structurally silent.
  EventId schedule_from(TimePs sched_time, TimePs t, Callback cb,
                        std::uint32_t origin, std::uint32_t tie = 0);

  /// Count of executed same-(time, sched, tie) adjacent event pairs
  /// whose origins differ — boundary ties between a cross-shard
  /// delivery and a local event (or deliveries from two different
  /// source shards) at the same picosecond with the same causal
  /// timestamp and the same tie token. The sequential engine orders
  /// such a pair by causal history that a partitioned run cannot
  /// reconstruct with bounded state, so a sharded run is PROVABLY
  /// byte-identical to the sequential engine iff this stays 0 on every
  /// shard; the harness fails the point otherwise.
  /// Since every cross-shard delivery carries its port's unique
  /// nonzero token (net::Node::attach_port) while local events carry
  /// 0, this is now a safety net that should never fire — kept (and
  /// still policed by the harness) as the proof obligation
  /// (see docs/performance.md).
  std::uint64_t boundary_ambiguities() const { return ambiguities_; }

  /// The first ambiguous pair (see boundary_ambiguities()): its shared
  /// key and the origins of its two events, in pop order (0 = local,
  /// else 1 + source shard). Meaningful once boundary_ambiguities() > 0.
  struct Ambiguity {
    TimePs time = 0;
    TimePs sched = 0;
    std::uint32_t tie = 0;
    std::uint32_t origins[2] = {0, 0};
  };
  const Ambiguity& first_ambiguity() const { return first_ambiguity_; }

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

  /// Runs every event with time strictly below `end` (>= 1); now() is
  /// left at the last executed event, never advanced to `end`. This is
  /// the window primitive of ShardedSimulator: a shard executes one
  /// conservative lookahead window [start, end) and stops without
  /// claiming the boundary instant, which the next window owns.
  void run_events_before(TimePs end);

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
    /// Causal domain of the scheduling action: 0 for local events,
    /// 1 + source shard for cross-shard deliveries (schedule_from).
    /// Rides in padding before the 16-byte-aligned Callback, so the
    /// slot stays one cache line. Feeds the boundary ambiguity detector.
    std::uint32_t origin = 0;
    Callback cb;
  };

  void release_slot(std::uint32_t idx) {
    Slot& s = slots_[idx];
    s.seq = 0;
    s.cb.reset();
    free_slots_.push_back(idx);
  }

  /// Stores `cb` in a free slot and pushes its queue entry with key
  /// (t, sched, tie, seq); the schedule_* entry points validate their
  /// arguments first.
  EventId enqueue(TimePs t, TimePs sched, std::uint32_t tie,
                  std::uint64_t seq, std::uint32_t origin, Callback cb);

  /// Marks every key at or before now() as passed: the state after
  /// run_until() or a drained run(), with no event running.
  void settle_to_now() {
    cur_ = EventEntry{now_, kTimeInfinity, UINT64_MAX, 0, UINT32_MAX};
  }

  bool pop_and_run_next(TimePs limit);

  BinaryHeapEventQueue queue_;
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

  // Boundary ambiguity detector (see boundary_ambiguities()): origin of
  // the previously executed event, whose key is cur_, carried across
  // tombstone discards. Equal-(time, sched, tie) events pop
  // contiguously, so checking each adjacent pair catches every run that
  // mixes origins.
  std::uint32_t prev_origin_ = 0;
  std::uint64_t ambiguities_ = 0;
  Ambiguity first_ambiguity_;
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

  /// Turns the held key into a heap event (see
  /// Simulator::schedule_reserved) and lets go of it.
  EventId schedule(Callback cb) {
    const EventId id = sim_.schedule_reserved(key_, std::move(cb));
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
