#include "net/egress_port.hpp"

#include "net/node.hpp"
#include "net/shard_link.hpp"

namespace powertcp::net {

EgressPort::EgressPort(sim::Simulator& simulator, sim::Bandwidth bw,
                       sim::TimePs propagation_delay)
    : sim_(simulator),
      bandwidth_(bw),
      propagation_(propagation_delay),
      finish_(simulator) {}

EgressPort::~EgressPort() {
  // The pending wakeup, the finish and the delivery of a packet still
  // being serialized all capture `this`; cancel them so destroying a
  // port mid-run (e.g. tearing a topology down) cannot leave a dangling
  // callback in the engine. Packets whose serialization has finished
  // (propagation events) still reference this port and its peer: as in
  // the pre-pool engine, nodes must outlive deliveries in flight —
  // don't run the simulator after destroying parts of a network that
  // still has packets airborne.
  if (pending_kick_at_ != sim::kTimeInfinity) sim_.cancel(pending_kick_id_);
  if (busy()) {
    if (!finish_.held()) sim_.cancel(tx_event_);
    sim_.cancel(tx_delivery_);
  }
}

bool EgressPort::enqueue(Packet&& pkt) {
  const std::int64_t sz = pkt.wire_bytes();
  if (shared_buffer_ != nullptr &&
      !shared_buffer_->admits(queue_bytes(), sz)) {
    ++drops_;
    sample_queue();
    return false;
  }
  if (aqm_ != nullptr) {
    // The verdict reads only the pre-enqueue backlog (and the policy's
    // own RNG/controller state), so consulting it before charging the
    // shared buffer is equivalent — and an AQM drop then never has to
    // un-charge the buffer.
    const AqmVerdict v =
        aqm_->on_enqueue(queue_bytes(), pkt.ecn_capable, sim_.now());
    if (v.drop) {
      ++drops_;
      sample_queue();
      return false;
    }
    if (v.mark) {
      pkt.ecn_marked = true;
      ++ecn_marks_;
    }
  }
  if (shared_buffer_ != nullptr) shared_buffer_->on_enqueue(sz);
  pkt.enqueue_time = sim_.now();
  push_to_queue(std::move(pkt));
  sample_queue();
  kick();
  return true;
}

void EgressPort::kick() {
  if (busy_) {
    // An elided finish: if its key is still ahead, the backlog it will
    // serve just grew, so it runs as an event at that key after all;
    // once the key has passed, the wire is idle.
    if (!finish_.held()) return;
    if (!finish_.passed()) {
      tx_event_ = finish_.schedule([this] { finish_tx(); });
      return;
    }
    finish_.settle();
    busy_ = false;
  }
  SelectResult sel = try_select();
  if (sel.pkt.has_value()) {
    if (pending_kick_at_ != sim::kTimeInfinity) {
      sim_.cancel(pending_kick_id_);
      pending_kick_at_ = sim::kTimeInfinity;
    }
    start_tx(std::move(*sel.pkt));
    return;
  }
  if (sel.retry_at == sim::kTimeInfinity) return;
  // Deduplicate wakeups: keep only the earliest pending retry.
  if (pending_kick_at_ != sim::kTimeInfinity &&
      pending_kick_at_ <= sel.retry_at) {
    return;
  }
  if (pending_kick_at_ != sim::kTimeInfinity) sim_.cancel(pending_kick_id_);
  pending_kick_at_ = sel.retry_at;
  pending_kick_id_ = sim_.schedule_at(sel.retry_at, [this] {
    pending_kick_at_ = sim::kTimeInfinity;
    kick();
  });
}

void EgressPort::start_tx(Packet&& pkt) {
  busy_ = true;
  // INT is stamped "when the packet is scheduled for transmission"
  // (paper §3.3): queue length is the backlog left behind, txBytes the
  // cumulative count before this packet.
  if (int_enabled_ && (pkt.type == PacketType::kData ||
                       pkt.type == PacketType::kHomaData)) {
    IntHopRecord rec;
    rec.qlen_bytes = int_qlen_bytes();
    rec.tx_bytes = tx_bytes_;
    rec.ts = sim_.now();
    rec.bandwidth_bps = bandwidth_.bps();
    pkt.int_hdr.push(rec);
  }
  if (sojourn_cb_) sojourn_cb_(sim_.now() - pkt.enqueue_time);
  sample_queue();
  const std::int64_t wire = pkt.wire_bytes();
  tx_bytes_ += wire;
  ++tx_packets_;
  // The finish takes its key exactly where scheduling it would. It gets
  // a heap entry below only if it will have something to do; an idle
  // finish stays a reservation (see kick() and busy()). The shared
  // buffer frees the packet's bytes at that key either way.
  finish_.reserve_in(bandwidth_.tx_time(wire));
  const sim::TimePs finish = finish_.key().time;
  if (shared_buffer_ != nullptr) {
    shared_buffer_->release_at(finish_.key(), wire);
  }
  if (remote_ != nullptr) {
    // EARLY PUBLICATION (lookahead batching): the packet's content is
    // final here — ECN was decided at enqueue, INT stamped above — and
    // so are its serialization finish (the causal stamp) and delivery
    // time. Publishing at start_tx guarantees every cross-shard
    // delivery lands at least tx_time(min packet) beyond the event
    // that produced it, which is what lets the cut-link weight — and
    // therefore the engine's lookahead windows — include the flit
    // serialization delay on top of propagation (see
    // ShardedSimulator::add_cut_edge and docs/performance.md §5).
    remote_->send(finish + propagation_, finish, tie_token_, std::move(pkt));
  } else if (peer_ != nullptr) {
    // The local delivery takes the same shape: scheduled now, stamped
    // with the finish as its causal time and carrying the port's tie
    // token, so its key is the one scheduling it at the finish gave.
    // The packet rides in the pool, not the closure: capturing it by
    // value would heap-allocate ~350 bytes per transmission. It stays
    // parked under this one handle until the peer receives it.
    const PacketPool::Handle h = pool_.put(std::move(pkt));
    tx_delivery_ = sim_.schedule_stamped(
        finish, finish + propagation_, tie_token_,
        [this, h] { peer_->receive(pool_.take(h), peer_in_port_); });
  } else {
    // Nobody to deliver to: the packet stays parked for its
    // serialization, so the finish must run to free it.
    const PacketPool::Handle h = pool_.put(std::move(pkt));
    tx_event_ = finish_.schedule([this, h] {
      pool_.take(h);
      finish_tx();
    });
    return;
  }
  if (!finish_is_idle()) tx_event_ = finish_.schedule([this] { finish_tx(); });
}

void EgressPort::finish_tx() {
  busy_ = false;
  kick();
}

void EgressPort::sample_queue() {
  if (queue_monitor_ != nullptr) {
    queue_monitor_->sample(sim_.now(), queue_bytes());
  }
}

BasicPort::BasicPort(sim::Simulator& simulator, sim::Bandwidth bw,
                     sim::TimePs propagation_delay,
                     std::unique_ptr<QueueDiscipline> queue)
    : EgressPort(simulator, bw, propagation_delay), queue_(std::move(queue)) {}

EgressPort::SelectResult BasicPort::try_select() {
  return SelectResult{queue_->pop()};
}

}  // namespace powertcp::net
