#pragma once

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

namespace powertcp::sim {

/// Handle for a scheduled event; usable with Simulator::cancel().
/// A default-constructed EventId refers to no event.
struct EventId {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  constexpr bool operator==(const EventId&) const = default;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  TimePs now() const { return now_; }

  /// Schedules `cb` at absolute time `t`. `t` must not be in the past.
  EventId schedule_at(TimePs t, Callback cb);

  /// Schedules `cb` after `delay` (>= 0) from now.
  EventId schedule_in(TimePs delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Schedules `cb` at absolute time `t` carrying tie token `tie`
  /// (0 degenerates to schedule_at): the event sorts among
  /// same-(time, sched) peers by the token BEFORE falling back to
  /// scheduling order. Packet deliveries
  /// use this with their egress port's topology-derived token (see
  /// net::Node::attach_port) so that same-picosecond delivery ties
  /// resolve by a key that is identical in sequential and sharded runs
  /// — the exact-ordering half of the tie-token scheme; schedule_from
  /// carries the same token across a shard boundary.
  EventId schedule_tied_at(TimePs t, std::uint32_t tie, Callback cb);

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
  /// (see schedule_tied_at); deliveries stamped with a nonzero token
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
  /// shard; the harness falls back to a sequential rerun otherwise.
  /// Since every cross-shard delivery carries its port's unique
  /// nonzero token (net::Node::attach_port) while local events carry
  /// 0, this is now a safety net that should never fire — kept (and
  /// still policed by the harness) as the proof obligation
  /// (see docs/performance.md).
  std::uint64_t boundary_ambiguities() const { return ambiguities_; }

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

  /// Runs until the event queue drains or stop() is called.
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
  std::uint64_t events_executed() const { return executed_; }

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

  /// Stores `cb` in a free slot and pushes its queue entry; the
  /// schedule_* entry points validate their arguments first.
  EventId enqueue(TimePs t, TimePs sched, std::uint32_t tie,
                  std::uint32_t origin, Callback cb);

  bool pop_and_run_next(TimePs limit);

  BinaryHeapEventQueue queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  TimePs now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t live_events_ = 0;
  bool stopped_ = false;

  // Boundary ambiguity detector (see boundary_ambiguities()): key and
  // origin of the previously executed event, carried across tombstone
  // discards. Equal-(time, sched, tie) events pop contiguously, so
  // checking each adjacent pair catches every run that mixes origins.
  bool have_prev_ = false;
  TimePs prev_time_ = 0;
  TimePs prev_sched_ = 0;
  std::uint32_t prev_tie_ = 0;
  std::uint32_t prev_origin_ = 0;
  std::uint64_t ambiguities_ = 0;
};

}  // namespace powertcp::sim
