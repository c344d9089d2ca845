#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "workload/flow_size_dist.hpp"

/// \file traffic_gen.hpp
/// Open-loop workload generation: Poisson flow arrivals dialed to a
/// target network load (the paper sweeps 20–95% on the ToR uplinks) and
/// the synthetic incast/query workload of §4.1 (every request fans in
/// from `fan_in` servers in other racks simultaneously).

namespace powertcp::workload {

/// One planned flow arrival (host indices, not node ids).
struct FlowArrival {
  int src_host = 0;
  int dst_host = 0;
  std::int64_t size_bytes = 0;
  sim::TimePs start = 0;
};

struct PoissonConfig {
  /// Target load as a fraction of per-host NIC capacity contributed by
  /// each host. (To express ToR-uplink load, divide by the
  /// oversubscription factor times the inter-rack fraction — the topo
  /// builders expose helpers.)
  double load_per_host = 0.4;
  sim::Bandwidth host_bw;
  sim::TimePs start = 0;
  sim::TimePs stop = 0;
  int n_hosts = 0;
  /// Restrict destinations to a different "group" (rack) than the
  /// source; group = host / hosts_per_group. 0 disables the constraint.
  int hosts_per_group = 0;
};

/// Draws Poisson arrivals per host with exponential inter-arrival times
/// of mean (mean_size · 8) / (load · host_bw); uniform random remote
/// destination. Results are sorted by start time.
std::vector<FlowArrival> generate_poisson(const PoissonConfig& cfg,
                                          const FlowSizeDistribution& dist,
                                          sim::Rng& rng);

struct IncastConfig {
  /// Query requests per second across the cluster.
  double requests_per_sec = 4.0;
  /// Total response bytes per request, split evenly over the fan-in.
  std::int64_t request_bytes = 2'000'000;
  int fan_in = 32;
  sim::TimePs start = 0;
  sim::TimePs stop = 0;
  int n_hosts = 0;
  int hosts_per_group = 0;  ///< responders are drawn from other groups
};

/// Synthetic distributed-file-system queries: at each (Poisson) request
/// time a uniformly random host requests `request_bytes` split across
/// `fan_in` servers in other racks, which all respond simultaneously.
/// Throws std::invalid_argument unless 1 <= fan_in <= the hosts outside
/// one group (n_hosts - hosts_per_group, or n_hosts - 1 without groups).
std::vector<FlowArrival> generate_incast(const IncastConfig& cfg,
                                         sim::Rng& rng);

}  // namespace powertcp::workload
