#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "sim/time.hpp"

/// \file event_queue.hpp
/// Pending-event storage behind the Simulator: POD (time, sched, tie,
/// seq, slot) entries popped in (time, sched, tie, seq) order. The
/// callbacks themselves live in the Simulator's slot table, so the
/// queue only ever moves 32-byte entries.
///
/// TimingWheelEventQueue is the Simulator's pending set. Keys within
/// 16.8 us of the engine clock go into a fixed wheel of 8192 buckets,
/// each a list kept sorted by the full key, so the engine's
/// per-packet events (a delivery is due 1-3 us ahead) push and pop in
/// O(1). Keys past the wheel's horizon, and everything pushed before
/// the engine's first pop, go to a std::priority_queue behind it. Keys
/// are unique (`seq` is), so the (time, sched, tie, seq) order is
/// strict and total and any correct queue pops the same sequence.
///
/// The `sched` key is the CAUSAL timestamp: the simulation time at
/// which the event counts as scheduled. For an ordinary event it is
/// now(), so `seq` (assigned chronologically) already refines it. A
/// packet delivery is scheduled when its serialization starts but
/// stamped with the serialization finish (Simulator::schedule_stamped),
/// so it sorts among same-picosecond peers as if it had been scheduled
/// at the finish. Every committed golden depends on that order.

namespace powertcp::sim {

/// One pending event. `slot` indexes the Simulator's slot table, which
/// holds the callback; `sched` is the causal timestamp (see above) and
/// `seq` disambiguates remaining ties and stale slots.
///
/// `tie` is the TIE TOKEN, ordered between `sched` and `seq`: a
/// topology-derived identifier of the producing egress port (see
/// net::Node::attach_port), 0 for ordinary local events. A
/// same-(time, sched) tie between deliveries from different ports, or
/// between a delivery and a local event, resolves by the token before
/// the scheduling chronology (`seq`).
struct EventEntry {
  TimePs time;
  TimePs sched;
  std::uint64_t seq;
  std::uint32_t slot;
  std::uint32_t tie = 0;
};
static_assert(sizeof(EventEntry) == 32, "EventEntry is four words");

/// The pop order: true iff `a` sorts before `b` by (time, sched, tie,
/// seq).
inline bool earlier(const EventEntry& a, const EventEntry& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.sched != b.sched) return a.sched < b.sched;
  if (a.tie != b.tie) return a.tie < b.tie;
  return a.seq < b.seq;
}

/// The Simulator's pending set: an exact timing wheel for keys near the
/// engine clock, with a binary heap (std::priority_queue) behind it for
/// the rest.
///
/// The wheel is kBuckets buckets of kBucketPs picoseconds. Bucket
/// `b = time / kBucketPs` lives in slot `b % kBuckets`, and the wheel
/// takes a key only while `b` lies within kBuckets of the cursor, the
/// clock's bucket, so a slot never holds two different `b`. Each
/// bucket is a singly linked list through one node pool, sorted by the
/// full key: a push compares with the tail and appends (same-time
/// bursts stay O(1)); a key that sorts earlier walks its bucket. A
/// bitmap of the non-empty slots finds the next bucket with
/// countr_zero. peek() compares the wheel's first entry with the
/// overflow heap's top by the full key, so every pop follows earlier()
/// exactly.
///
/// The cursor follows the engine clock, never a popped entry: the
/// Simulator calls advance() whenever its clock moves. A popped
/// tombstone may lie far later than the clock, and the keys pushed
/// after it may sort before it.
///
/// The wheel's arrays (64 KiB of buckets) and a reserve of pool nodes
/// are allocated at the first advance(), i.e. the engine's first run,
/// not at construction: a simulation's set-up allocates nothing here.
/// Pushes made before that go to the heap.
class TimingWheelEventQueue {
 public:
  static constexpr int kBucketShift = 11;
  static constexpr TimePs kBucketPs = TimePs{1} << kBucketShift;
  static constexpr std::size_t kBuckets = 8192;
  /// How far ahead of the cursor's bucket the wheel reaches: 16.8 us.
  static constexpr TimePs kHorizonPs = kBucketPs * TimePs{kBuckets};

  /// Adds `e`. Precondition: `e` does not sort before the clock last
  /// passed to advance() (a key before the cursor is still ordered
  /// correctly, by the heap).
  void push(const EventEntry& e) {
    peeked_ = false;
    const TimePs b = e.time >> kBucketShift;
    if (buckets_ == nullptr ||
        static_cast<std::uint64_t>(b - cursor_) >= kBuckets) {
      overflow_.push(e);
      return;
    }
    const std::uint32_t n = new_node(e);
    const std::size_t slot = static_cast<std::size_t>(b) & kSlotMask;
    Bucket& bucket = buckets_[slot];
    if (bucket.head == kNil) {
      bucket.head = bucket.tail = n;
      occupied_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
      if (wheel_size_ == 0 || b < first_) first_ = b;
    } else if (!earlier(e, nodes_[bucket.tail].e)) {
      nodes_[bucket.tail].next = n;
      bucket.tail = n;
    } else if (earlier(e, nodes_[bucket.head].e)) {
      nodes_[n].next = bucket.head;
      bucket.head = n;
    } else {
      std::uint32_t at = bucket.head;
      while (earlier(nodes_[nodes_[at].next].e, e)) at = nodes_[at].next;
      nodes_[n].next = nodes_[at].next;
      nodes_[at].next = n;
    }
    ++wheel_size_;
  }

  /// Minimum entry by (time, sched, tie, seq), or nullptr when empty.
  /// The pointer is valid only until the next push/pop/peek.
  const EventEntry* peek() {
    const EventEntry* top = overflow_.empty() ? nullptr : &overflow_.top();
    in_wheel_ = false;
    if (wheel_size_ != 0) {
      const EventEntry& w = nodes_[buckets_[first_slot()].head].e;
      if (top == nullptr || earlier(w, *top)) {
        top = &w;
        in_wheel_ = true;
      }
    }
    peeked_ = true;
    return top;
  }

  /// Removes the entry peek() reports. Precondition: not empty.
  void pop() {
    if (!peeked_) peek();
    peeked_ = false;
    if (!in_wheel_) {
      overflow_.pop();
      return;
    }
    const std::size_t slot = first_slot();
    Bucket& bucket = buckets_[slot];
    const std::uint32_t n = bucket.head;
    bucket.head = nodes_[n].next;
    nodes_[n].next = free_;
    free_ = n;
    --wheel_size_;
    if (bucket.head != kNil) return;
    occupied_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    if (wheel_size_ != 0) first_ = next_occupied(first_ + 1);
  }

  /// Moves the cursor to the bucket of `now`, the engine clock.
  /// Precondition: no pending entry sorts before `now`, and `now` never
  /// decreases. The first call allocates the wheel.
  void advance(TimePs now) {
    if (buckets_ == nullptr) allocate();
    cursor_ = now >> kBucketShift;
    assert((wheel_size_ == 0 || first_ >= cursor_) &&
           "TimingWheelEventQueue: clock moved past a pending entry");
  }

  std::size_t size() const { return wheel_size_ + overflow_.size(); }
  bool empty() const { return size() == 0; }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;
  static constexpr std::size_t kSlotMask = kBuckets - 1;
  static constexpr std::size_t kWords = kBuckets / 64;
  /// Pool nodes reserved with the wheel, so that an engine whose wheel
  /// never holds more entries than this never grows the pool.
  static constexpr std::size_t kReservedNodes = 1024;

  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  struct Node {
    EventEntry e;
    std::uint32_t next = kNil;
  };
  /// std::priority_queue keeps its greatest entry on top, so the
  /// overflow's order is the reverse of earlier().
  struct Later {
    bool operator()(const EventEntry& a, const EventEntry& b) const {
      return earlier(b, a);
    }
  };

  void allocate() {
    buckets_ = std::make_unique<Bucket[]>(kBuckets);
    occupied_ = std::make_unique<std::uint64_t[]>(kWords);
    nodes_.reserve(kReservedNodes);
  }

  std::uint32_t new_node(const EventEntry& e) {
    std::uint32_t n = free_;
    if (n != kNil) {
      free_ = nodes_[n].next;
      nodes_[n] = Node{e, kNil};
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{e, kNil});
    }
    return n;
  }

  std::size_t first_slot() const {
    return static_cast<std::size_t>(first_) & kSlotMask;
  }

  /// The first non-empty bucket at or after bucket `b`. Precondition:
  /// the wheel holds an entry, and every entry's bucket lies in
  /// [b, b + kBuckets).
  TimePs next_occupied(TimePs b) const {
    const std::size_t slot = static_cast<std::size_t>(b) & kSlotMask;
    std::size_t word = slot >> 6;
    std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (slot & 63));
    TimePs base = b - static_cast<TimePs>(slot & 63);
    while (bits == 0) {
      word = (word + 1) & (kWords - 1);
      base += 64;
      bits = occupied_[word];
    }
    return base + std::countr_zero(bits);
  }

  std::priority_queue<EventEntry, std::vector<EventEntry>, Later> overflow_;
  std::unique_ptr<Bucket[]> buckets_;
  std::unique_ptr<std::uint64_t[]> occupied_;
  std::vector<Node> nodes_;
  std::uint32_t free_ = kNil;
  std::size_t wheel_size_ = 0;
  /// The cursor: the bucket of the clock last passed to advance().
  TimePs cursor_ = 0;
  /// The first non-empty bucket while the wheel holds an entry.
  TimePs first_ = 0;
  /// Whether the last peek() still reports the minimum (no push or pop
  /// since), and which side, wheel or heap, it came from.
  bool peeked_ = false;
  bool in_wheel_ = false;
};

}  // namespace powertcp::sim
