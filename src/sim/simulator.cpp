#include "sim/simulator.hpp"

#include <string>

namespace powertcp::sim {

void Simulator::throw_before_now(const char* op, TimePs t) const {
  throw std::invalid_argument(std::string("Simulator::") + op + ": time " +
                              format_time(t) + " is before now " +
                              format_time(now_));
}

void Simulator::throw_bad_delay(const char* op, TimePs delay,
                                const char* what) const {
  throw std::invalid_argument(std::string("Simulator::") + op + ": delay " +
                              format_time(delay) + " from now " +
                              format_time(now_) + " " + what);
}

void Simulator::throw_sched_after_time(TimePs sched, TimePs t) {
  throw std::invalid_argument("Simulator::schedule_stamped: sched " +
                              format_time(sched) + " is after time " +
                              format_time(t));
}

void Simulator::throw_unheld() {
  throw std::invalid_argument(
      "Simulator::schedule_reserved: the reservation holds no key");
}

void Simulator::throw_passed(const Reservation& r) {
  throw std::logic_error("Simulator::schedule_reserved: key at " +
                         format_time(r.time) +
                         " has passed; it can no longer run in order");
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
    cur_ = top;
    Callback cb = std::move(slots_[top.slot].cb);
    release_slot(top.slot);
    --live_events_;
    now_ = top.time;
    queue_.advance(now_);
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
  queue_.advance(now_);
  settle_to_now();
}

void Simulator::run_until(TimePs t) {
  stopped_ = false;
  while (!stopped_ && pop_and_run_next(t)) {
  }
  if (!stopped_ && now_ <= t) {
    now_ = t;
    queue_.advance(now_);
    settle_to_now();
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
