#pragma once

#include <vector>

#include "host/host.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"

/// \file fat_tree.hpp
/// The paper's evaluation topology (§4.1): a fat-tree with `pods` pods
/// of (tors_per_pod ToRs + aggs_per_pod aggregation switches), `cores`
/// core switches, and `servers_per_tor` servers per ToR. Defaults match
/// the paper: 4 pods × (2 ToR + 2 Agg), 2 cores, 32 servers/ToR
/// (256 servers), 100 Gbps fabric links, 25 Gbps server links (4:1
/// oversubscription), 5 µs core-link and 1 µs other propagation delays,
/// shared-memory switches with Dynamic Thresholds and Tofino-like
/// buffering.

namespace powertcp::topo {

struct FatTreeConfig {
  int pods = 4;
  int tors_per_pod = 2;
  int aggs_per_pod = 2;
  int cores = 2;
  int servers_per_tor = 32;

  sim::Bandwidth host_bw = sim::Bandwidth::gbps(25);
  sim::Bandwidth fabric_bw = sim::Bandwidth::gbps(100);
  sim::TimePs host_link_delay = sim::microseconds(1);
  sim::TimePs fabric_link_delay = sim::microseconds(1);
  sim::TimePs core_link_delay = sim::microseconds(5);

  /// Tofino-like shared buffer: bytes per Gbps of aggregate port speed.
  std::int64_t buffer_bytes_per_gbps = 10'000;
  double dt_alpha = 1.0;
  bool int_enabled = true;
  net::EcnConfig ecn;      ///< optional; thresholds per Gbps
  net::AqmSpec aqm;        ///< per-port queue policy ("red" = `ecn` above)
  int priority_bands = 0;  ///< >0 for the HOMA configuration

  /// Paper-quick scaled-down preset: 8 servers/ToR at 25 G hosts with
  /// 50 G fabric (oversubscription preserved at 4:1), 2 µs core links.
  static FatTreeConfig quick();
};

class FatTree {
 public:
  FatTree(net::Network& network, const FatTreeConfig& cfg);

  const FatTreeConfig& config() const { return cfg_; }

  int host_count() const { return static_cast<int>(hosts_.size()); }
  host::Host& host(int i) { return *hosts_.at(static_cast<std::size_t>(i)); }
  net::NodeId host_node(int i) const {
    return hosts_.at(static_cast<std::size_t>(i))->id();
  }

  int tor_count() const { return static_cast<int>(tors_.size()); }
  net::Switch& tor(int i) { return *tors_.at(static_cast<std::size_t>(i)); }
  net::Switch& agg(int i) { return *aggs_.at(static_cast<std::size_t>(i)); }
  net::Switch& core(int i) { return *cores_.at(static_cast<std::size_t>(i)); }
  int agg_count() const { return static_cast<int>(aggs_.size()); }
  int core_count() const { return static_cast<int>(cores_.size()); }

  int tor_of_host(int host_index) const {
    return host_index / cfg_.servers_per_tor;
  }
  /// ToR port index carrying traffic *down* to this host.
  int tor_down_port(int host_index) const {
    return host_index % cfg_.servers_per_tor;
  }
  /// The ToR uplink ports (toward the aggregation layer).
  std::vector<int> tor_uplink_ports(int tor_index) const;

  /// Maximum base RTT between any host pair: propagation plus one MSS
  /// serialization per data-path hop plus one header serialization per
  /// ack-path hop — the τ the paper configures for PowerTCP and HPCC.
  sim::TimePs max_base_rtt(std::int32_t mss = net::kDefaultMss) const;

  /// ToR-uplink oversubscription factor (host capacity / uplink
  /// capacity per ToR), 4.0 in the paper's setup.
  double oversubscription() const;

  /// Converts a desired *ToR uplink* load into the per-host load knob
  /// for workload::PoissonConfig, accounting for oversubscription and
  /// the fraction of traffic leaving the rack. Throws
  /// std::invalid_argument for a one-rack fabric, where no traffic
  /// leaves the rack.
  double host_load_for_uplink_load(double uplink_load) const;

  std::uint64_t total_drops() const;

 private:
  net::Network& net_;
  FatTreeConfig cfg_;
  std::vector<host::Host*> hosts_;
  std::vector<net::Switch*> tors_;
  std::vector<net::Switch*> aggs_;
  std::vector<net::Switch*> cores_;
};

}  // namespace powertcp::topo
