#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

/// \file event_queue.hpp
/// Pending-event storage behind the Simulator: a binary heap of POD
/// (time, sched, tie, seq, slot) entries popped in (time, sched, tie,
/// seq) order. O(log n) push and pop; the callbacks themselves live in
/// the Simulator's slot table, so the heap only ever moves 32-byte
/// entries.
///
/// A pop is deferred: it leaves a hole at the root, and the push that
/// the running callback almost always makes next fills that hole with a
/// single sift-down instead of a pop's sift-down to a leaf plus a
/// push's sift-up back to the top. Keys are unique (`seq` is), so the
/// (time, sched, tie, seq) order is strict and total and any correct
/// heap pops the same sequence.
///
/// The `sched` key is the CAUSAL timestamp: the simulation time at
/// which the event was scheduled. In a purely sequential run it is
/// redundant — scheduling actions execute in nondecreasing time order,
/// so `seq` (assigned chronologically) already refines `sched` and
/// (time, sched, seq) orders identically to the historical (time, seq).
/// Its purpose is cross-shard determinism: the partitioned engine
/// (sim::ShardedSimulator) ingests remote packet deliveries at window
/// barriers, long after destination-local events grabbed their seq
/// numbers, and stamps them with the sender-side send time via
/// Simulator::schedule_from so same-picosecond ties still resolve in
/// the sequential engine's scheduling-chronology order.

namespace powertcp::sim {

/// One pending event. `slot` indexes the Simulator's slot table, which
/// holds the callback; `sched` is the causal timestamp (see above) and
/// `seq` disambiguates remaining ties and stale slots.
///
/// `tie` is the TIE TOKEN, ordered between `sched` and `seq`: a
/// topology-derived identifier of the producing egress port (see
/// net::Node::attach_port), 0 for ordinary local events. Packet
/// deliveries carry their port's token in BOTH engines, so a
/// same-(time, sched) tie between deliveries from different ports — or
/// between a delivery and a local event — resolves by a key every
/// engine can compute locally, instead of by the global scheduling
/// chronology (`seq`) that a partitioned run cannot reconstruct. This
/// is what lets the sharded engine order cross-shard boundary ties
/// EXACTLY like the sequential engine (see docs/performance.md §5).
struct EventEntry {
  TimePs time;
  TimePs sched;
  std::uint64_t seq;
  std::uint32_t slot;
  std::uint32_t tie = 0;
};
static_assert(sizeof(EventEntry) == 32, "EventEntry is four words");

class BinaryHeapEventQueue {
 public:
  /// Adds `e`. After a pop() the entry fills the vacated root with one
  /// sift-down, which stops after a level or two for the near-now
  /// entries the engine schedules from inside a callback; otherwise it
  /// sifts up from a new leaf. `e` is taken by value so it may alias an
  /// entry of this queue.
  void push(EventEntry e) {
    if (vacated_) {
      vacated_ = false;
      sift_down(e);
      return;
    }
    std::size_t hole = heap_.size();
    heap_.emplace_back();
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!earlier(e, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = e;
  }

  /// Minimum entry by (time, sched, tie, seq), or nullptr when empty.
  /// Settles a vacated root first, which moves entries, so the pointer
  /// is valid only until the next push/pop/peek.
  const EventEntry* peek() {
    if (vacated_) settle();
    return heap_.empty() ? nullptr : &heap_.front();
  }

  /// Removes the entry peek() reported. Precondition: not empty. Only
  /// marks the root vacated; the next push() refills it, and the next
  /// peek()/pop() settles it from the last leaf.
  void pop() {
    if (vacated_) settle();
    vacated_ = true;
  }

  /// Pending entries; a vacated root is not counted.
  std::size_t size() const { return heap_.size() - (vacated_ ? 1 : 0); }
  bool empty() const { return size() == 0; }

 private:
  static bool earlier(const EventEntry& a, const EventEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.sched != b.sched) return a.sched < b.sched;
    if (a.tie != b.tie) return a.tie < b.tie;
    return a.seq < b.seq;
  }

  /// Moves the last leaf into the vacated root.
  void settle() {
    vacated_ = false;
    const EventEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
  }

  /// Places `e` into the hole at the root, moving smaller children up
  /// until `e` sorts before both children of the hole.
  void sift_down(const EventEntry& e) {
    const std::size_t n = heap_.size();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
      if (!earlier(heap_[child], e)) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = e;
  }

  std::vector<EventEntry> heap_;
  /// heap_[0] is a hole left by pop(): see push() and settle().
  bool vacated_ = false;
};

}  // namespace powertcp::sim
