#include "topo/fat_tree.hpp"

#include <stdexcept>
#include <string>

namespace powertcp::topo {

FatTreeConfig FatTreeConfig::quick() {
  // 64 hosts; 8 x 25G down vs 2 x 25G up preserves the paper's 4:1
  // ToR oversubscription at a fraction of the event cost.
  FatTreeConfig cfg;
  cfg.servers_per_tor = 8;
  cfg.host_bw = sim::Bandwidth::gbps(25);
  cfg.fabric_bw = sim::Bandwidth::gbps(25);
  cfg.core_link_delay = sim::microseconds(2);
  return cfg;
}

FatTree::FatTree(net::Network& network, const FatTreeConfig& cfg)
    : net_(network), cfg_(cfg) {
  if (cfg_.cores < 1 || cfg_.pods < 1 || cfg_.tors_per_pod < 1 ||
      cfg_.aggs_per_pod < 1 || cfg_.servers_per_tor < 1) {
    throw std::invalid_argument("FatTree: all counts must be positive");
  }

  // Per-switch buffer sized from aggregate port capacity (Tofino-like
  // bandwidth-buffer ratio).
  const auto buffer_for = [&](double total_gbps) {
    net::SwitchConfig sc;
    sc.buffer_bytes = static_cast<std::int64_t>(
        total_gbps * static_cast<double>(cfg_.buffer_bytes_per_gbps));
    sc.dt_alpha = cfg_.dt_alpha;
    sc.int_enabled = cfg_.int_enabled;
    sc.ecn = cfg_.ecn;
    sc.ecn_per_gbps = cfg_.ecn.enabled;
    sc.aqm = cfg_.aqm;
    sc.priority_bands = cfg_.priority_bands;
    return sc;
  };

  const double tor_gbps =
      cfg_.servers_per_tor * cfg_.host_bw.gbps_value() +
      cfg_.aggs_per_pod * cfg_.fabric_bw.gbps_value();
  const double agg_gbps =
      (cfg_.tors_per_pod + cfg_.cores) * cfg_.fabric_bw.gbps_value();
  const double core_gbps =
      cfg_.pods * cfg_.aggs_per_pod * cfg_.fabric_bw.gbps_value();

  for (int c = 0; c < cfg_.cores; ++c) {
    cores_.push_back(net_.add_node<net::Switch>(
        "core" + std::to_string(c), buffer_for(core_gbps)));
  }
  for (int p = 0; p < cfg_.pods; ++p) {
    for (int a = 0; a < cfg_.aggs_per_pod; ++a) {
      aggs_.push_back(net_.add_node<net::Switch>(
          "agg" + std::to_string(p) + "." + std::to_string(a),
          buffer_for(agg_gbps)));
    }
    for (int t = 0; t < cfg_.tors_per_pod; ++t) {
      tors_.push_back(net_.add_node<net::Switch>(
          "tor" + std::to_string(p) + "." + std::to_string(t),
          buffer_for(tor_gbps)));
    }
  }

  // Hosts, wired in index order so ToR down-port == host % servers_per_tor.
  const int n_tors = cfg_.pods * cfg_.tors_per_pod;
  for (int t = 0; t < n_tors; ++t) {
    for (int s = 0; s < cfg_.servers_per_tor; ++s) {
      const int h = t * cfg_.servers_per_tor + s;
      host::Host* host =
          net_.add_node<host::Host>("h" + std::to_string(h));
      hosts_.push_back(host);
      // ToR side first so down-port indices are contiguous from 0.
      net_.connect(*tors_[static_cast<std::size_t>(t)], *host, cfg_.host_bw,
                   cfg_.host_link_delay);
    }
  }

  // ToR -> every Agg in its pod.
  for (int p = 0; p < cfg_.pods; ++p) {
    for (int t = 0; t < cfg_.tors_per_pod; ++t) {
      const int tor_idx = p * cfg_.tors_per_pod + t;
      for (int a = 0; a < cfg_.aggs_per_pod; ++a) {
        const int agg_idx = p * cfg_.aggs_per_pod + a;
        net_.connect(*tors_[static_cast<std::size_t>(tor_idx)],
                     *aggs_[static_cast<std::size_t>(agg_idx)],
                     cfg_.fabric_bw, cfg_.fabric_link_delay);
      }
    }
  }

  // Agg a of each pod -> core c where c % aggs_per_pod == a (the paper's
  // 2-core / 2-agg wiring generalized).
  for (int p = 0; p < cfg_.pods; ++p) {
    for (int a = 0; a < cfg_.aggs_per_pod; ++a) {
      const int agg_idx = p * cfg_.aggs_per_pod + a;
      for (int c = 0; c < cfg_.cores; ++c) {
        if (c % cfg_.aggs_per_pod != a % cfg_.aggs_per_pod) continue;
        net_.connect(*aggs_[static_cast<std::size_t>(agg_idx)],
                     *cores_[static_cast<std::size_t>(c)], cfg_.fabric_bw,
                     cfg_.core_link_delay);
      }
    }
  }

  net_.compute_routes();
}

std::vector<int> FatTree::tor_uplink_ports(int tor_index) const {
  // Down ports occupy [0, servers_per_tor); uplinks follow.
  (void)tor_index;
  std::vector<int> ports;
  for (int a = 0; a < cfg_.aggs_per_pod; ++a) {
    ports.push_back(cfg_.servers_per_tor + a);
  }
  return ports;
}

sim::TimePs FatTree::max_base_rtt(std::int32_t mss) const {
  // Longest path: host - ToR - Agg - Core - Agg - ToR - host.
  const sim::TimePs one_way_prop =
      2 * cfg_.host_link_delay + 2 * cfg_.fabric_link_delay +
      2 * cfg_.core_link_delay;
  const std::int64_t data_bytes = mss + net::kHeaderBytes;
  // Data path: NIC + ToR-up + Agg-up + Core-down + Agg-down + ToR-down.
  const sim::TimePs data_ser = cfg_.host_bw.tx_time(data_bytes) * 2 +
                               cfg_.fabric_bw.tx_time(data_bytes) * 4;
  // Ack path: header-only packet over the same hops.
  const sim::TimePs ack_ser =
      cfg_.host_bw.tx_time(net::kHeaderBytes) * 2 +
      cfg_.fabric_bw.tx_time(net::kHeaderBytes) * 4;
  return 2 * one_way_prop + data_ser + ack_ser;
}

double FatTree::oversubscription() const {
  const double down = cfg_.servers_per_tor * cfg_.host_bw.gbps_value();
  const double up = cfg_.aggs_per_pod * cfg_.fabric_bw.gbps_value();
  return down / up;
}

double FatTree::host_load_for_uplink_load(double uplink_load) const {
  // Uplink load = host_load * oversubscription * inter-rack fraction.
  const int n_hosts = host_count();
  if (n_hosts - cfg_.servers_per_tor < 1) {
    // A zero fraction would ask every host for infinite load.
    throw std::invalid_argument(
        "FatTree::host_load_for_uplink_load: no host outside a rack carries "
        "uplink load (grow pods/tors_per_pod)");
  }
  const double inter_rack_fraction =
      static_cast<double>(n_hosts - cfg_.servers_per_tor) /
      static_cast<double>(n_hosts - 1);
  return uplink_load / (oversubscription() * inter_rack_fraction);
}

std::uint64_t FatTree::total_drops() const {
  std::uint64_t total = 0;
  for (const auto* sw : tors_) total += sw->total_drops();
  for (const auto* sw : aggs_) total += sw->total_drops();
  for (const auto* sw : cores_) total += sw->total_drops();
  return total;
}

}  // namespace powertcp::topo
