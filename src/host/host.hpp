#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "cc/cc_algorithm.hpp"
#include "host/flow.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

/// \file host.hpp
/// End host: one NIC, window/pacing senders (PowerTCP and friends), a
/// per-packet-acking receiver, and optionally the receiver-driven
/// (HOMA-like) message transport.

namespace powertcp::host {

class HomaTransport;

/// Invoked on every data payload delivered to this host (goodput hook).
using DataCallback =
    std::function<void(net::FlowId, std::int64_t bytes, sim::TimePs now)>;

class Host final : public net::Node {
 public:
  Host(sim::Simulator& simulator, net::NodeId id, std::string name);
  ~Host() override;

  /// The NIC egress port (created by Network::connect; exactly one link
  /// per host).
  net::EgressPort& nic();
  sim::Bandwidth nic_bandwidth() const;

  void receive(net::Packet&& pkt, int in_port) override;

  /// Creates a sender flow; transmission begins at `start_time`.
  FlowSender& start_flow(net::FlowId flow, net::NodeId dst,
                         std::int64_t size_bytes,
                         std::unique_ptr<cc::CcAlgorithm> algorithm,
                         const cc::FlowParams& params,
                         sim::TimePs start_time,
                         CompletionCallback on_complete = nullptr);

  /// Attaches the receiver-driven message transport (HOMA baseline).
  HomaTransport& enable_homa(const struct HomaConfig& cfg);
  HomaTransport* homa() { return homa_.get(); }

  void set_data_callback(DataCallback cb) { data_cb_ = std::move(cb); }

  /// Fires the goodput hook for payload delivered outside the standard
  /// receiver path (used by the HOMA transport).
  void notify_payload(net::FlowId flow, std::int64_t bytes) {
    if (data_cb_) data_cb_(flow, bytes, sim_.now());
  }

  sim::Simulator& simulator() { return sim_; }

  /// Looks up a live (started or pending) sender flow. Completed flows
  /// are swept from the table — at paper scale hundreds of thousands of
  /// short flows churn through one host, so per-flow state must retire
  /// with the flow. Returns nullptr after completion.
  FlowSender* sender(net::FlowId flow);

  /// Live per-flow state counts (leak regression tests).
  std::size_t active_senders() const { return senders_.size(); }
  std::size_t active_receivers() const { return receivers_.size(); }

  /// Enqueues a packet on the NIC, stamping src/sent_time.
  void send_packet(net::Packet&& pkt);

  /// Quiet period after a flow's last data packet before its receiver
  /// state retires. Long enough that go-back-N replays (the sender's
  /// RTO racing our acks, with exponential backoff) still find the
  /// state and see identical acks; after retirement the sender-edge
  /// echo in data packets answers stragglers statelessly.
  static constexpr sim::TimePs kReceiverGrace = sim::milliseconds(2);

 private:
  struct ReceiverState {
    std::int64_t expected_seq = 0;
    sim::TimePs last_activity = 0;
    bool retire_armed = false;
    sim::EventId retire_event{};
  };

  void handle_data(net::Packet&& pkt);
  void handle_ack(const net::Packet& pkt);
  void retire_receiver(net::FlowId flow);

  sim::Simulator& sim_;
  std::unordered_map<net::FlowId, std::unique_ptr<FlowSender>> senders_;
  std::unordered_map<net::FlowId, ReceiverState> receivers_;
  std::unique_ptr<HomaTransport> homa_;
  DataCallback data_cb_;
};

}  // namespace powertcp::host
