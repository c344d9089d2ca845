#pragma once

#include <vector>

#include "host/host.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"

/// \file dumbbell.hpp
/// Single-bottleneck topology for microbenchmarks and the incast /
/// fairness experiments (Figs. 4, 5): `n_senders` hosts and one
/// receiver hang off one shared-memory switch; the switch-to-receiver
/// link is the bottleneck.

namespace powertcp::topo {

struct DumbbellConfig {
  int n_senders = 10;
  sim::Bandwidth host_bw = sim::Bandwidth::gbps(25);
  sim::Bandwidth bottleneck_bw = sim::Bandwidth::gbps(25);
  sim::TimePs link_delay = sim::microseconds(1);
  std::int64_t buffer_bytes = 0;  ///< 0 = derive Tofino-like 10 KB/Gbps
  double dt_alpha = 1.0;
  bool int_enabled = true;
  net::EcnConfig ecn;  ///< per-Gbps thresholds, scaled per port speed
  net::AqmSpec aqm;    ///< per-port queue policy ("red" = `ecn` above)
  int priority_bands = 0;
};

class Dumbbell {
 public:
  Dumbbell(net::Network& network, const DumbbellConfig& cfg);

  host::Host& sender(int i) {
    return *senders_.at(static_cast<std::size_t>(i));
  }
  host::Host& receiver() { return *receiver_; }
  net::Switch& bottleneck_switch() { return *sw_; }
  /// The egress port feeding the receiver (the bottleneck queue).
  net::EgressPort& bottleneck_port();

  /// Base RTT sender -> receiver -> sender including serialization.
  sim::TimePs base_rtt(std::int32_t mss = net::kDefaultMss) const;

 private:
  net::Network& net_;
  DumbbellConfig cfg_;
  std::vector<host::Host*> senders_;
  host::Host* receiver_ = nullptr;
  net::Switch* sw_ = nullptr;
  int bottleneck_port_ = -1;
};

}  // namespace powertcp::topo
