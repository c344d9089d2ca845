#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/time.hpp"

/// \file event_queue.hpp
/// Pending-event storage behind the Simulator: a binary heap of POD
/// (time, sched, tie, seq, slot) entries popped in (time, sched, tie,
/// seq) order. O(log n) push and pop; the callbacks themselves live in
/// the Simulator's slot table, so the heap only ever moves 32-byte
/// entries.
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
/// EXACTLY like the sequential engine (see docs/performance.md §6).
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
  void push(const EventEntry& e) { heap_.push(e); }
  /// Minimum entry by (time, sched, tie, seq), or nullptr when empty.
  /// The pointer is valid until the next push/pop.
  const EventEntry* peek() const {
    return heap_.empty() ? nullptr : &heap_.top();
  }
  /// Removes the entry peek() reported. Precondition: not empty.
  void pop() { heap_.pop(); }
  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

 private:
  struct Later {
    bool operator()(const EventEntry& a, const EventEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.sched != b.sched) return a.sched > b.sched;
      if (a.tie != b.tie) return a.tie > b.tie;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<EventEntry, std::vector<EventEntry>, Later> heap_;
};

}  // namespace powertcp::sim
