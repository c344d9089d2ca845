#include "workload/traffic_gen.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace powertcp::workload {
namespace {

int pick_remote_host(int src, int n_hosts, int hosts_per_group,
                     sim::Rng& rng) {
  if (n_hosts < 2) throw std::invalid_argument("need at least two hosts");
  for (;;) {
    const int dst = static_cast<int>(rng.uniform_int(0, n_hosts - 1));
    if (dst == src) continue;
    if (hosts_per_group > 0 &&
        dst / hosts_per_group == src / hosts_per_group) {
      continue;  // same rack; draw again
    }
    return dst;
  }
}

}  // namespace

std::vector<FlowArrival> generate_poisson(const PoissonConfig& cfg,
                                          const FlowSizeDistribution& dist,
                                          sim::Rng& rng) {
  if (cfg.n_hosts < 2) {
    throw std::invalid_argument("generate_poisson: n_hosts < 2");
  }
  if (cfg.load_per_host <= 0 || cfg.stop <= cfg.start) return {};
  const double mean_interarrival_sec =
      dist.mean_bytes() * 8.0 / (cfg.load_per_host * cfg.host_bw.bps());

  std::vector<FlowArrival> out;
  for (int src = 0; src < cfg.n_hosts; ++src) {
    sim::TimePs t = cfg.start;
    for (;;) {
      t += sim::from_seconds(rng.exponential(mean_interarrival_sec));
      if (t >= cfg.stop) break;
      FlowArrival a;
      a.src_host = src;
      a.dst_host = pick_remote_host(src, cfg.n_hosts, cfg.hosts_per_group, rng);
      a.size_bytes = dist.sample(rng);
      a.start = t;
      out.push_back(a);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlowArrival& a, const FlowArrival& b) {
              return a.start < b.start;
            });
  return out;
}

std::vector<FlowArrival> generate_incast(const IncastConfig& cfg,
                                         sim::Rng& rng) {
  // The distinct-responder draw below needs fan_in hosts outside the
  // requester's group; with fewer it would never finish.
  const int remote = cfg.hosts_per_group > 0
                         ? cfg.n_hosts - cfg.hosts_per_group
                         : cfg.n_hosts - 1;
  if (cfg.fan_in < 1 || cfg.fan_in > remote) {
    throw std::invalid_argument(
        "generate_incast: fan_in " + std::to_string(cfg.fan_in) +
        " needs that many hosts outside the requester's group; there are " +
        std::to_string(remote));
  }
  const double mean_interarrival_sec = 1.0 / cfg.requests_per_sec;
  const std::int64_t per_responder =
      std::max<std::int64_t>(1, cfg.request_bytes / cfg.fan_in);

  std::vector<FlowArrival> out;
  sim::TimePs t = cfg.start;
  for (;;) {
    t += sim::from_seconds(rng.exponential(mean_interarrival_sec));
    if (t >= cfg.stop) break;
    const int requester = static_cast<int>(rng.uniform_int(0, cfg.n_hosts - 1));
    // Draw fan_in distinct responders from other racks.
    std::vector<int> responders;
    responders.reserve(static_cast<std::size_t>(cfg.fan_in));
    while (static_cast<int>(responders.size()) < cfg.fan_in) {
      const int r = pick_remote_host(requester, cfg.n_hosts,
                                     cfg.hosts_per_group, rng);
      if (std::find(responders.begin(), responders.end(), r) ==
          responders.end()) {
        responders.push_back(r);
      }
    }
    for (const int r : responders) {
      out.push_back(FlowArrival{r, requester, per_responder, t});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlowArrival& a, const FlowArrival& b) {
              return a.start < b.start;
            });
  return out;
}

}  // namespace powertcp::workload
