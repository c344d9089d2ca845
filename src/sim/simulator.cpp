#include "sim/simulator.hpp"

namespace powertcp::sim {

EventId Simulator::schedule_at(TimePs t, Callback cb) {
  if (t < now_) {
    throw std::invalid_argument("Simulator::schedule_at: time " +
                                format_time(t) + " is before now " +
                                format_time(now_));
  }
  return enqueue(t, now_, 0, next_seq_++, 0, std::move(cb));
}

EventId Simulator::schedule_stamped(TimePs sched, TimePs t, std::uint32_t tie,
                                    Callback cb) {
  if (t < now_) {
    throw std::invalid_argument("Simulator::schedule_stamped: time " +
                                format_time(t) + " is before now " +
                                format_time(now_));
  }
  if (sched > t) {
    throw std::invalid_argument("Simulator::schedule_stamped: sched " +
                                format_time(sched) + " is after time " +
                                format_time(t));
  }
  return enqueue(t, sched, tie, next_seq_++, 0, std::move(cb));
}

EventId Simulator::schedule_reserved(const Reservation& r, Callback cb) {
  if (!r.held()) {
    throw std::invalid_argument(
        "Simulator::schedule_reserved: the reservation holds no key");
  }
  if (passed(r)) {
    throw std::logic_error("Simulator::schedule_reserved: key at " +
                           format_time(r.time) +
                           " has passed; it can no longer run in order");
  }
  return enqueue(r.time, r.sched, 0, r.seq, 0, std::move(cb));
}

EventId Simulator::schedule_from(TimePs sched_time, TimePs t, Callback cb,
                                 std::uint32_t origin, std::uint32_t tie) {
  if (t < now_) {
    throw std::invalid_argument("Simulator::schedule_from: time " +
                                format_time(t) + " is before now " +
                                format_time(now_));
  }
  if (sched_time > t) {
    throw std::invalid_argument("Simulator::schedule_from: sched_time " +
                                format_time(sched_time) + " is after time " +
                                format_time(t));
  }
  if (origin == 0) {
    throw std::invalid_argument(
        "Simulator::schedule_from: origin 0 is reserved for local events");
  }
  return enqueue(t, sched_time, tie, next_seq_++, origin, std::move(cb));
}

EventId Simulator::enqueue(TimePs t, TimePs sched, std::uint32_t tie,
                           std::uint64_t seq, std::uint32_t origin,
                           Callback cb) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].seq = seq;
  slots_[slot].origin = origin;
  slots_[slot].cb = std::move(cb);
  queue_.push(EventEntry{t, sched, seq, slot, tie});
  ++live_events_;
  return EventId{seq, slot};
}

bool Simulator::pop_and_run_next(TimePs limit) {
  while (const EventEntry* top_ptr = queue_.peek()) {
    const EventEntry top = *top_ptr;
    // Tombstone: the slot was freed at cancel time (and possibly reused
    // for a newer event, whose seq then differs).
    if (slots_[top.slot].seq != top.seq) {
      queue_.pop();
      continue;
    }
    if (top.time > limit) return false;
    queue_.pop();
    // Boundary ambiguity detection: equal-(time, sched, tie) events pop
    // contiguously, so comparing each live pop against the previous one
    // catches every such run that mixes causal origins — the only ties
    // whose sequential order a partitioned run cannot reconstruct.
    // Same-origin ties are exact: local pairs by scheduling order,
    // same-source-shard pairs by the router's send-order merge. Pairs
    // with DIFFERING tie tokens are exactly ordered by the token in
    // both engines, so they are not ambiguous — and since deliveries
    // carry unique per-port tokens, a mixed-origin same-token pair is
    // structurally impossible; the counter stays as the safety net the
    // harness polices (the first pair's key is kept for its error).
    const std::uint32_t origin = slots_[top.slot].origin;
    if (cur_.time == top.time && cur_.sched == top.sched &&
        cur_.tie == top.tie && prev_origin_ != origin) {
      if (ambiguities_++ == 0) {
        first_ambiguity_ = {top.time, top.sched, top.tie,
                            {prev_origin_, origin}};
      }
    }
    cur_ = top;
    prev_origin_ = origin;
    Callback cb = std::move(slots_[top.slot].cb);
    release_slot(top.slot);
    --live_events_;
    now_ = top.time;
    ++executed_;
    cb();
    return true;
  }
  return false;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && pop_and_run_next(kTimeInfinity)) {
  }
  if (stopped_) return;
  // Drained. Elided events still held lie after the last executed one
  // (a passed key is settled or counted already); the last of them is
  // the last logical event.
  for (const ElidableEvent* e : elidable_) {
    if (e->held() && e->key().time > now_) now_ = e->key().time;
  }
  settle_to_now();
}

void Simulator::run_until(TimePs t) {
  stopped_ = false;
  while (!stopped_ && pop_and_run_next(t)) {
  }
  if (!stopped_ && now_ <= t) {
    now_ = t;
    settle_to_now();
  }
}

void Simulator::run_events_before(TimePs end) {
  if (end < 1) {
    throw std::invalid_argument("Simulator::run_events_before: end < 1");
  }
  stopped_ = false;
  while (!stopped_ && pop_and_run_next(end - 1)) {
  }
}

std::uint64_t Simulator::events_elided() const {
  std::uint64_t n = elided_;
  for (const ElidableEvent* e : elidable_) {
    if (e->held() && passed(e->key())) ++n;
  }
  return n;
}

ElidableEvent::~ElidableEvent() {
  if (held() && passed()) ++sim_.elided_;
  // Swap-remove from the engine's registry, keeping indices exact.
  ElidableEvent* last = sim_.elidable_.back();
  sim_.elidable_[index_] = last;
  last->index_ = index_;
  sim_.elidable_.pop_back();
}

TimePs Simulator::next_event_time() {
  while (const EventEntry* top = queue_.peek()) {
    if (slots_[top->slot].seq != top->seq) {
      queue_.pop();  // tombstone of a cancelled event
      continue;
    }
    return top->time;
  }
  return kTimeInfinity;
}

}  // namespace powertcp::sim
