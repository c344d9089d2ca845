#include "net/egress_port.hpp"

#include "net/node.hpp"

namespace powertcp::net {

EgressPort::EgressPort(sim::Simulator& simulator, PacketPool& slab,
                       sim::Bandwidth bw, sim::TimePs propagation_delay)
    : sim_(simulator),
      slab_(slab),
      bandwidth_(bw),
      propagation_(propagation_delay),
      finish_(simulator) {}

EgressPort::~EgressPort() {
  // The pending wakeup, the finish and the delivery of a packet still
  // being serialized all capture `this`; cancel them so destroying a
  // port mid-run (e.g. tearing a topology down) cannot leave a dangling
  // callback in the engine. Packets whose serialization has finished
  // (propagation events) still reference this port and its peer, so
  // nodes must outlive deliveries in flight — don't run the simulator
  // after destroying parts of a network that still has packets
  // airborne.
  if (pending_kick_at_ != sim::kTimeInfinity) sim_.cancel(pending_kick_id_);
  if (busy()) {
    if (!finish_.held()) sim_.cancel(tx_event_);
    sim_.cancel(tx_delivery_);
  }
}

bool EgressPort::enqueue(PacketPool::Handle h) {
  Packet& pkt = slab_.ref(h);
  const std::int64_t sz = pkt.wire_bytes();
  if (shared_buffer_ != nullptr &&
      !shared_buffer_->admits(queue_bytes(), sz)) {
    ++drops_;
    slab_.release(h);
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
      slab_.release(h);
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
  push_to_queue(h);
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
  PacketPool::Handle h;
  sim::TimePs retry_at = sim::kTimeInfinity;
  if (select_next(h, retry_at)) {
    if (pending_kick_at_ != sim::kTimeInfinity) {
      sim_.cancel(pending_kick_id_);
      pending_kick_at_ = sim::kTimeInfinity;
    }
    start_tx(h);
    return;
  }
  if (retry_at == sim::kTimeInfinity) return;
  // Deduplicate wakeups: keep only the earliest pending retry.
  if (pending_kick_at_ != sim::kTimeInfinity && pending_kick_at_ <= retry_at) {
    return;
  }
  if (pending_kick_at_ != sim::kTimeInfinity) sim_.cancel(pending_kick_id_);
  pending_kick_at_ = retry_at;
  pending_kick_id_ = sim_.schedule_at(retry_at, [this] {
    pending_kick_at_ = sim::kTimeInfinity;
    kick();
  });
}

void EgressPort::start_tx(PacketPool::Handle h) {
  Packet& pkt = slab_.ref(h);
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
  if (peer_ != nullptr) {
    // The delivery is scheduled now, stamped with the finish as its
    // causal time and carrying the port's tie token, so its key is the
    // one scheduling it at the finish gave.
    // The packet stays in the slab, not the closure: capturing it by
    // value would heap-allocate ~360 bytes per transmission. The peer's
    // receive takes over the handle.
    tx_delivery_ = sim_.schedule_stamped(
        finish, finish + propagation_, tie_token_,
        [this, h] { peer_->receive(h, peer_in_port_); });
  } else {
    // Nobody to deliver to: the packet stays in the slab for its
    // serialization, so the finish must run to free it.
    tx_event_ = finish_.schedule([this, h] {
      slab_.release(h);
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

BasicPort::BasicPort(sim::Simulator& simulator, PacketPool& slab,
                     sim::Bandwidth bw, sim::TimePs propagation_delay,
                     std::unique_ptr<QueueDiscipline> queue)
    : EgressPort(simulator, slab, bw, propagation_delay),
      queue_(std::move(queue)) {}

bool BasicPort::select_next(PacketPool::Handle& out,
                            sim::TimePs& /*retry_at*/) {
  return queue_->pop(out);
}

}  // namespace powertcp::net
