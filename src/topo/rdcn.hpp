#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "host/host.hpp"
#include "net/circuit.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"

/// \file rdcn.hpp
/// The reconfigurable-datacenter topology of the §5 case study: N ToRs
/// × k servers, every ToR attached both to a packet-switched core
/// (25 Gbps links) and to an optical circuit switch (100 Gbps) that
/// cycles through a rotor schedule (day 225 µs / night 20 µs). ToRs keep
/// per-destination VOQs drained by the circuit when the matching is up
/// and by the packet uplink otherwise.

namespace powertcp::topo {

struct RdcnConfig {
  int n_tors = 25;
  int servers_per_tor = 10;
  sim::Bandwidth host_bw = sim::Bandwidth::gbps(25);
  sim::Bandwidth packet_bw = sim::Bandwidth::gbps(25);
  sim::Bandwidth circuit_bw = sim::Bandwidth::gbps(100);
  sim::TimePs day = sim::microseconds(225);
  sim::TimePs night = sim::microseconds(20);
  sim::TimePs host_link_delay = sim::microseconds(1);
  sim::TimePs fabric_link_delay = sim::microseconds(1);
  std::int64_t tor_buffer_bytes = 16'000'000;  ///< deep (reTCP prebuffers)
  double dt_alpha = 4.0;  ///< permissive: VOQs legitimately stand
  bool int_enabled = true;

  /// Small preset for tests: 4 ToRs × 2 servers.
  static RdcnConfig small();
};

/// ToR switch of the RDCN plane: hosts below, shared VOQ set above,
/// drained by a CircuitPort and a VoqUplinkPort.
class RdcnTor final : public net::Node {
 public:
  RdcnTor(sim::Simulator& simulator, net::NodeId id, std::string name,
          int tor_index, std::int64_t buffer_bytes, double dt_alpha);

  void receive(net::Packet pkt, int in_port) override;

  /// Registers a directly attached host and its down-port index.
  void add_local_host(net::NodeId host, int down_port);
  /// Installs the VOQ set once the ToR count and classifier are known.
  void init_voqs(int n_tors, std::function<int(net::NodeId)> classify);

  net::VoqSet& voqs() { return *voqs_; }
  net::DtSharedBuffer& buffer() { return buffer_; }
  int tor_index() const { return tor_index_; }

  void set_circuit_port(int idx) { circuit_port_ = idx; }
  void set_uplink_port(int idx) { uplink_port_ = idx; }
  int circuit_port_index() const { return circuit_port_; }
  int uplink_port_index() const { return uplink_port_; }

 private:
  sim::Simulator& sim_;
  int tor_index_;
  net::DtSharedBuffer buffer_;
  std::unique_ptr<net::VoqSet> voqs_;
  std::unordered_map<net::NodeId, int> local_hosts_;
  int circuit_port_ = -1;
  int uplink_port_ = -1;
};

class Rdcn {
 public:
  Rdcn(net::Network& network, const RdcnConfig& cfg);

  const RdcnConfig& config() const { return cfg_; }
  const net::CircuitSchedule& schedule() const { return *schedule_; }

  int host_count() const { return static_cast<int>(hosts_.size()); }
  host::Host& host(int i) { return *hosts_.at(static_cast<std::size_t>(i)); }
  RdcnTor& tor(int i) { return *tors_.at(static_cast<std::size_t>(i)); }
  net::Switch& packet_core() { return *packet_core_; }

  int tor_of_host(int host_index) const {
    return host_index / cfg_.servers_per_tor;
  }
  int tor_of_node(net::NodeId id) const;

  /// Base RTT over the packet plane between hosts in different racks —
  /// the maximum RTT, i.e. the τ of §5 (the circuit path is shorter).
  sim::TimePs max_base_rtt(std::int32_t mss = net::kDefaultMss) const;

 private:
  net::Network& net_;
  RdcnConfig cfg_;
  std::unique_ptr<net::CircuitSchedule> schedule_;
  std::vector<RdcnTor*> tors_;
  std::vector<host::Host*> hosts_;
  net::Switch* packet_core_ = nullptr;
  net::CircuitSwitchNode* circuit_ = nullptr;
  std::unordered_map<net::NodeId, int> host_tor_;
};

}  // namespace powertcp::topo
