#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

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
class ShardChannel;

class EgressPort {
 public:
  EgressPort(sim::Simulator& simulator, sim::Bandwidth bw,
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

  /// Marks the peer as living on another shard of a partitioned run:
  /// deliveries go through `ch` (a cross-shard SPSC channel, see
  /// shard_link.hpp) instead of being scheduled on this shard's
  /// simulator. Installed by Network when a link crosses the shard
  /// plan's cut; nullptr (the default) keeps the local path.
  void set_remote_channel(ShardChannel* ch) { remote_ = ch; }
  ShardChannel* remote_channel() const { return remote_; }

  /// This port's tie token: a nonzero, topology-derived identifier
  /// stamped into every delivery event's key so same-picosecond
  /// delivery ties resolve identically in sequential and sharded runs
  /// (see Node::attach_port, which installs it).
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
  void set_shared_buffer(DtSharedBuffer* buf) { shared_buffer_ = buf; }

  /// Admits (or drops) a packet and starts the transmitter if idle.
  /// Returns false iff the packet was dropped by buffer admission.
  bool enqueue(Packet pkt);

  sim::Bandwidth bandwidth() const { return bandwidth_; }
  void set_bandwidth(sim::Bandwidth bw) { bandwidth_ = bw; }
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
  bool busy() const { return busy_; }

  /// Optional monitoring hooks (not owned).
  void set_queue_monitor(stats::QueueSeries* m) { queue_monitor_ = m; }
  void set_tx_monitor(stats::ThroughputSeries* m) { tx_monitor_ = m; }
  void set_sojourn_callback(std::function<void(sim::TimePs)> cb) {
    sojourn_cb_ = std::move(cb);
  }

  /// Re-evaluates whether transmission can start (called after enqueues
  /// and by subclasses when external conditions change, e.g. a circuit
  /// day beginning).
  void kick();

 protected:
  struct SelectResult {
    std::optional<Packet> pkt;
    /// When to retry if no packet was selectable; kTimeInfinity means
    /// "wait for an explicit kick" (e.g. the next enqueue).
    sim::TimePs retry_at = sim::kTimeInfinity;
  };

  /// Stores the packet in the discipline-specific backlog.
  virtual void push_to_queue(Packet pkt) = 0;
  /// Chooses the next packet to serialize, or a retry time.
  virtual SelectResult try_select() = 0;

  sim::Simulator& simulator() { return sim_; }
  const sim::Simulator& simulator() const { return sim_; }

 private:
  void start_tx(Packet pkt);
  void finish_tx(Packet pkt);
  /// Serialization-complete bookkeeping for the cross-shard path: the
  /// packet itself was already published to the remote channel at
  /// start_tx (early publication — its delivery time, causal stamp and
  /// content are final there), so the finish event only frees the wire
  /// and settles byte accounting.
  void finish_remote_tx(std::int64_t wire_bytes);
  void sample_queue();

  sim::Simulator& sim_;
  sim::Bandwidth bandwidth_;
  sim::TimePs propagation_;
  Node* peer_ = nullptr;
  int peer_in_port_ = -1;
  ShardChannel* remote_ = nullptr;
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
  sim::EventId tx_event_{};  ///< pending finish_tx; valid while busy_

  /// Parks packets between start_tx -> finish_tx and finish_tx ->
  /// delivery so those events capture an 8-byte handle, not the packet.
  PacketPool pool_;

  stats::QueueSeries* queue_monitor_ = nullptr;
  stats::ThroughputSeries* tx_monitor_ = nullptr;
  std::function<void(sim::TimePs)> sojourn_cb_;
};

/// Port with a self-contained queueing discipline (FIFO or priority).
class BasicPort final : public EgressPort {
 public:
  BasicPort(sim::Simulator& simulator, sim::Bandwidth bw,
            sim::TimePs propagation_delay,
            std::unique_ptr<QueueDiscipline> queue);

  std::int64_t queue_bytes() const override { return queue_->bytes(); }
  const QueueDiscipline& queue() const { return *queue_; }

 protected:
  void push_to_queue(Packet pkt) override { queue_->push(std::move(pkt)); }
  SelectResult try_select() override;

 private:
  std::unique_ptr<QueueDiscipline> queue_;
};

}  // namespace powertcp::net
