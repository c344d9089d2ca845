#include "net/circuit.hpp"

#include <stdexcept>

namespace powertcp::net {

CircuitSchedule::CircuitSchedule(int n_tors, sim::TimePs day,
                                 sim::TimePs night)
    : n_tors_(n_tors), day_(day), night_(night) {
  if (n_tors < 2) throw std::invalid_argument("CircuitSchedule: n_tors < 2");
  if (day <= 0 || night < 0) {
    throw std::invalid_argument("CircuitSchedule: bad day/night lengths");
  }
}

int CircuitSchedule::slot_index(sim::TimePs t) const {
  return static_cast<int>((t / slot_length()) % n_matchings());
}

bool CircuitSchedule::is_day(sim::TimePs t) const {
  return (t % slot_length()) < day_;
}

sim::TimePs CircuitSchedule::day_end(sim::TimePs t) const {
  return (t / slot_length()) * slot_length() + day_;
}

sim::TimePs CircuitSchedule::next_day_start(sim::TimePs t) const {
  return (t / slot_length() + 1) * slot_length();
}

int CircuitSchedule::peer_in_slot(int tor, int slot) const {
  return (tor + slot + 1) % n_tors_;
}

int CircuitSchedule::active_peer(int tor, sim::TimePs t) const {
  if (!is_day(t)) return -1;
  return peer_in_slot(tor, slot_index(t));
}

sim::TimePs CircuitSchedule::next_connection(int src_tor, int dst_tor,
                                             sim::TimePs t) const {
  if (src_tor == dst_tor) {
    throw std::invalid_argument("next_connection: src == dst");
  }
  // Slot k connects src -> (src + k + 1) mod N.
  const int want_slot = (dst_tor - src_tor - 1 + n_tors_) % n_tors_;
  // Walk forward (at most one week) to the next occurrence of want_slot.
  sim::TimePs slot_start = (t / slot_length()) * slot_length();
  for (int i = 0; i <= n_matchings(); ++i) {
    const sim::TimePs s =
        slot_start + static_cast<sim::TimePs>(i) * slot_length();
    if (slot_index(s) == want_slot && s + day_ > t) {
      return s;  // day start (may be slightly in the past if t is mid-day)
    }
  }
  throw std::logic_error("next_connection: schedule walk failed");
}

CircuitPort::CircuitPort(sim::Simulator& simulator, PacketPool& slab,
                         sim::Bandwidth bw, sim::TimePs propagation,
                         VoqSet* voqs, const CircuitSchedule* schedule,
                         int my_tor)
    : EgressPort(simulator, slab, bw, propagation),
      voqs_(voqs),
      schedule_(schedule),
      my_tor_(my_tor) {}

std::int64_t CircuitPort::int_qlen_bytes() const {
  const int peer = schedule_->active_peer(my_tor_, simulator().now());
  return peer >= 0 ? voqs_->voq_bytes(peer) : voqs_->total_bytes();
}

bool CircuitPort::select_next(PacketPool::Handle& out,
                              sim::TimePs& retry_at) {
  const sim::TimePs now = simulator().now();
  if (!schedule_->is_day(now)) {
    retry_at = schedule_->next_day_start(now);
    return false;
  }
  const int peer = schedule_->active_peer(my_tor_, now);
  const Packet* next = voqs_->peek(peer);
  if (next == nullptr) {
    // Nothing for the active peer; enqueues during this day kick us.
    retry_at = schedule_->next_day_start(now);
    return false;
  }
  // A serialization must finish before the light goes out.
  if (now + bandwidth().tx_time(next->wire_bytes()) > schedule_->day_end(now)) {
    retry_at = schedule_->next_day_start(now);
    return false;
  }
  return voqs_->pop_from(peer, out);
}

VoqUplinkPort::VoqUplinkPort(sim::Simulator& simulator, PacketPool& slab,
                             sim::Bandwidth bw, sim::TimePs propagation,
                             VoqSet* voqs, const CircuitSchedule* schedule,
                             int my_tor)
    : EgressPort(simulator, slab, bw, propagation),
      voqs_(voqs),
      schedule_(schedule),
      my_tor_(my_tor) {}

bool VoqUplinkPort::select_next(PacketPool::Handle& out,
                                sim::TimePs& retry_at) {
  const sim::TimePs now = simulator().now();
  const int active = schedule_->active_peer(my_tor_, now);
  const int n = voqs_->size();
  for (int k = 1; k <= n; ++k) {
    const int i = (rr_cursor_ + k) % n;
    if (i == active) continue;
    if (voqs_->peek(i) != nullptr) {
      rr_cursor_ = i;
      return voqs_->pop_from(i, out);
    }
  }
  // Only the circuit-served VOQ has traffic: it becomes ours when the
  // day ends.
  if (active >= 0 && voqs_->peek(active) != nullptr) {
    retry_at = schedule_->day_end(now);
  }
  return false;
}

CircuitSwitchNode::CircuitSwitchNode(sim::Simulator& simulator,
                                     PacketPool& slab, NodeId id,
                                     std::string name,
                                     const CircuitSchedule* schedule,
                                     std::function<int(NodeId)> tor_of_dst)
    : Node(slab, id, std::move(name)),
      sim_(simulator),
      schedule_(schedule),
      tor_of_dst_(std::move(tor_of_dst)) {
  tors_.resize(static_cast<std::size_t>(schedule_->n_tors()));
}

void CircuitSwitchNode::attach_tor(int tor_index, Node* tor, int tor_in_port,
                                   sim::TimePs out_propagation) {
  tors_.at(static_cast<std::size_t>(tor_index)) =
      TorLink{tor, tor_in_port, out_propagation};
}

void CircuitSwitchNode::receive(PacketPool::Handle h, int /*in_port*/) {
  const int dst_tor = tor_of_dst_(slab().get(h).dst);
  const TorLink& link = tors_.at(static_cast<std::size_t>(dst_tor));
  if (link.tor == nullptr) {
    slab().release(h);
    throw std::logic_error("CircuitSwitchNode: destination ToR not attached");
  }
  sim_.schedule_in(link.propagation, [this, dst_tor, h] {
    const TorLink& out = tors_[static_cast<std::size_t>(dst_tor)];
    out.tor->receive(h, out.in_port);
  });
}

}  // namespace powertcp::net
