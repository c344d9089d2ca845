#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/aqm.hpp"
#include "net/dt_buffer.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "stats/timeseries.hpp"

/// \file egress_port.hpp
/// Egress ports drain their backlog at line rate, stamp INT records at
/// the instant a data packet is scheduled for transmission (the paper's
/// §3.3 semantics), consult their AQM policy (net/aqm.hpp — step/RED
/// marking by default) at enqueue, and enforce the switch's
/// shared-buffer admission (Dynamic Thresholds).

namespace powertcp::net {

class Node;

class EgressPort {
 public:
  /// `slab` is the network's packet slab, which holds every packet
  /// this port queues, serializes and delivers.
  EgressPort(sim::Simulator& simulator, PacketPool& slab, sim::Bandwidth bw,
             sim::TimePs propagation_delay);
  virtual ~EgressPort();

  EgressPort(const EgressPort&) = delete;
  EgressPort& operator=(const EgressPort&) = delete;

  void set_peer(Node* peer, int peer_in_port) {
    peer_ = peer;
    peer_in_port_ = peer_in_port;
  }
  Node* peer() const { return peer_; }
  int peer_in_port() const { return peer_in_port_; }

  /// This port's tie token: a nonzero, topology-derived identifier
  /// stamped into every delivery event's key so same-picosecond
  /// delivery ties resolve by port (see Node::attach_port, which
  /// installs it).
  void set_tie_token(std::uint32_t tie) { tie_token_ = tie; }
  std::uint32_t tie_token() const { return tie_token_; }

  /// Installs the historical step/RED marking profile — sugar for
  /// set_aqm(StepRedAqm): byte-identical to the pre-AQM-layer marking.
  void set_ecn(const EcnConfig& cfg, std::uint64_t seed) {
    aqm_ = std::make_unique<StepRedAqm>(cfg, seed);
  }
  /// Installs an arbitrary queue-management policy (owned). nullptr
  /// restores the AQM-free hot path.
  void set_aqm(std::unique_ptr<Aqm> aqm) { aqm_ = std::move(aqm); }
  /// The installed policy, or nullptr (hosts, disabled-ECN fabrics).
  const Aqm* aqm() const { return aqm_.get(); }
  void set_int_enabled(bool on) { int_enabled_ = on; }
  void set_shared_buffer(DtSharedBuffer* buf) {
    shared_buffer_ = buf;
    if (buf != nullptr) buf->attach(sim_);
  }

  /// Admits (or drops) the slab packet `h` and starts the transmitter if
  /// idle. Returns false iff the packet was dropped (buffer admission or
  /// AQM); a drop releases `h`.
  bool enqueue(PacketPool::Handle h);

  sim::Bandwidth bandwidth() const { return bandwidth_; }
  sim::TimePs propagation_delay() const { return propagation_; }

  /// Backlog awaiting transmission (excludes the packet on the wire).
  virtual std::int64_t queue_bytes() const = 0;

  /// Queue length reported in INT records. Defaults to queue_bytes();
  /// VOQ-based ports report only the backlog the stamped packet actually
  /// contends with.
  virtual std::int64_t int_qlen_bytes() const { return queue_bytes(); }

  std::int64_t tx_bytes() const { return tx_bytes_; }
  std::uint64_t tx_packets() const { return tx_packets_; }
  /// Packets dropped at this port — buffer admission plus AQM drops.
  std::uint64_t drops() const { return drops_; }
  /// Cumulative packets ECN-marked by this port's AQM — a
  /// flight-recorder tap point.
  std::uint64_t ecn_marks() const { return ecn_marks_; }
  /// True while a packet is being serialized. An elided finish (see
  /// start_tx) flips this exactly at its key.
  bool busy() const { return busy_ && !(finish_.held() && finish_.passed()); }
  /// Optional monitoring hooks (not owned).
  void set_queue_monitor(stats::QueueSeries* m) { queue_monitor_ = m; }
  void set_sojourn_callback(std::function<void(sim::TimePs)> cb) {
    sojourn_cb_ = std::move(cb);
  }

  /// Re-evaluates whether transmission can start (called after enqueues
  /// and by subclasses when external conditions change, e.g. a circuit
  /// day beginning).
  void kick();

 protected:
  /// Stores the handle in the discipline-specific backlog.
  virtual void push_to_queue(PacketPool::Handle h) = 0;
  /// Hands the next packet to serialize to `out` and returns true.
  /// Otherwise returns false, leaves `out` untouched and may set
  /// `retry_at` to when to try again; left at kTimeInfinity it means
  /// "wait for an explicit kick" (e.g. the next enqueue).
  virtual bool select_next(PacketPool::Handle& out, sim::TimePs& retry_at) = 0;
  /// True if a serialization finishing now would leave nothing to do but
  /// mark the wire idle: nothing to select, and no retry to arm. The
  /// finish is then elided (see start_tx). Only ports whose empty-backlog
  /// kick() is a no-op may say so.
  virtual bool finish_is_idle() const { return false; }

  sim::Simulator& simulator() { return sim_; }
  const sim::Simulator& simulator() const { return sim_; }

 private:
  /// Serializes the slab packet `h`.
  void start_tx(PacketPool::Handle h);
  /// The serialization finish, when it runs as an event: frees the wire
  /// and serves the backlog.
  void finish_tx();
  void sample_queue();

  sim::Simulator& sim_;
  PacketPool& slab_;
  sim::Bandwidth bandwidth_;
  sim::TimePs propagation_;
  Node* peer_ = nullptr;
  int peer_in_port_ = -1;
  std::uint32_t tie_token_ = 0;

  std::unique_ptr<Aqm> aqm_;
  std::uint64_t ecn_marks_ = 0;
  bool int_enabled_ = false;
  DtSharedBuffer* shared_buffer_ = nullptr;

  bool busy_ = false;
  std::int64_t tx_bytes_ = 0;
  std::uint64_t tx_packets_ = 0;
  std::uint64_t drops_ = 0;

  sim::TimePs pending_kick_at_ = sim::kTimeInfinity;
  sim::EventId pending_kick_id_{};
  /// The running serialization's finish. While busy_ it either holds the
  /// finish's reserved key (elided) or the finish is the heap event
  /// tx_event_.
  sim::ElidableEvent finish_;
  sim::EventId tx_event_{};
  /// The running serialization's local delivery, scheduled at start_tx;
  /// cancelled if the port dies before the serialization finishes.
  sim::EventId tx_delivery_{};

  stats::QueueSeries* queue_monitor_ = nullptr;
  std::function<void(sim::TimePs)> sojourn_cb_;
};

/// Port with a self-contained queueing discipline (FIFO or priority).
class BasicPort final : public EgressPort {
 public:
  BasicPort(sim::Simulator& simulator, PacketPool& slab, sim::Bandwidth bw,
            sim::TimePs propagation_delay,
            std::unique_ptr<QueueDiscipline> queue);

  std::int64_t queue_bytes() const override { return queue_->bytes(); }
  const QueueDiscipline& queue() const { return *queue_; }

 protected:
  void push_to_queue(PacketPool::Handle h) override { queue_->push(h); }
  bool select_next(PacketPool::Handle& out, sim::TimePs& retry_at) override;
  bool finish_is_idle() const override { return queue_->empty(); }

 private:
  std::unique_ptr<QueueDiscipline> queue_;
};

}  // namespace powertcp::net
