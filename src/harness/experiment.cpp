#include "harness/experiment.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "cc/registry.hpp"
#include "harness/point.hpp"
#include "net/egress_port.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "workload/traffic_gen.hpp"

namespace powertcp::harness {

namespace {

workload::FlowSizeDistribution scaled_websearch(double scale) {
  if (scale == 1.0) return workload::FlowSizeDistribution::websearch();
  auto points = workload::FlowSizeDistribution::websearch().points();
  std::int64_t prev = 0;
  for (auto& [bytes, cdf] : points) {
    bytes = static_cast<std::int64_t>(static_cast<double>(bytes) * scale);
    // Aggressive scales can collapse neighboring CDF points; keep the
    // support strictly increasing.
    bytes = std::max(bytes, prev + 1);
    prev = bytes;
  }
  return workload::FlowSizeDistribution(std::move(points), /*min_bytes=*/100);
}

}  // namespace

ExperimentResult run_fat_tree_experiment(const FatTreeExperiment& cfg,
                                         const SchemeRun& scheme_run) {
  // The registry entry carries everything scheme-specific; no scheme
  // is special-cased by name.
  const cc::Scheme& scheme = cc::Registry::instance().at(scheme_run.scheme);
  FatTreePoint point(cfg.topo, scheme.needs, cfg.expected_flows);
  topo::FatTree& fabric = point.fabric;

  ExperimentResult result;
  result.tau = point.params.base_rtt;

  // ---- workload plan ----
  sim::Rng rng(cfg.seed);
  const auto dist = scaled_websearch(cfg.size_scale);
  workload::PoissonConfig pc;
  pc.load_per_host = fabric.host_load_for_uplink_load(cfg.uplink_load);
  pc.host_bw = cfg.topo.host_bw;
  pc.start = 0;
  pc.stop = cfg.duration;
  pc.n_hosts = fabric.host_count();
  pc.hosts_per_group = 0;  // any remote host (paper: uniform)
  std::vector<workload::FlowArrival> plan =
      workload::generate_poisson(pc, dist, rng);

  if (cfg.incast) {
    workload::IncastConfig ic;
    ic.requests_per_sec = cfg.incast_requests_per_sec;
    ic.request_bytes = cfg.incast_request_bytes;
    ic.fan_in = cfg.incast_fan_in;
    ic.start = 0;
    ic.stop = cfg.duration;
    ic.n_hosts = fabric.host_count();
    ic.hosts_per_group = cfg.topo.servers_per_tor;  // other racks only
    auto bursts = workload::generate_incast(ic, rng);
    plan.insert(plan.end(), bursts.begin(), bursts.end());
  }
  result.flows_started = plan.size();

  // Ideal FCT: line-rate transfer plus one base RTT.
  const FlowDone done = [&](int, const host::FlowCompletion& c) {
    result.fct.record({c.flow, c.size_bytes, c.start, c.finish,
                       result.tau + cfg.topo.host_bw.tx_time(c.size_bytes)});
    ++result.flows_completed;
  };

  // ---- flow setup: plan ids are sequential from 1 ----
  SchemeRun run = scheme_run;
  if (scheme.experiment_defaults) {
    scheme.experiment_defaults(point.params, run.params);
  }
  std::vector<FlowStart> flows;
  flows.reserve(plan.size());
  for (const auto& arrival : plan) {
    flows.push_back({static_cast<net::FlowId>(flows.size() + 1),
                     arrival.src_host, arrival.dst_host, arrival.size_bytes,
                     arrival.start});
  }
  point.start({run}, flows, &done);

  // ---- fabric queue sampling (ToR uplinks, Fig. 7g style) ----
  std::vector<const net::EgressPort*> uplinks;
  for (int t = 0; t < fabric.tor_count(); ++t) {
    for (const int p : fabric.tor_uplink_ports(t)) {
      uplinks.push_back(&fabric.tor(t).port(p));
    }
  }
  // Flight tap: the first ToR uplink (the load target of the sweep)
  // plus the telemetry.flow-th planned arrival's sender, when that
  // arrival exists.
  const std::int64_t tapped = cfg.telemetry.flow;
  std::optional<FlightTap> tap = point.tap(
      cfg.telemetry, fabric.tor(0).port(fabric.tor_uplink_ports(0).front()),
      tapped >= 1 && static_cast<std::size_t>(tapped) <= plan.size()
          ? plan[static_cast<std::size_t>(tapped - 1)].src_host
          : -1,
      tapped, cfg.duration);

  std::function<void()> sample = [&] {
    for (const net::EgressPort* port : uplinks) {
      result.uplink_queue_bytes.add(static_cast<double>(port->queue_bytes()));
    }
    if (point.sim.now() < cfg.duration) {
      point.sim.schedule_in(kQueueSampleEvery, [&sample] { sample(); });
    }
  };
  if (!uplinks.empty()) point.sim.schedule_at(0, [&sample] { sample(); });

  // Run past the horizon so in-flight flows can finish.
  point.sim.run_until(cfg.duration + sim::milliseconds(20));

  result.drops = fabric.total_drops();
  if (tap) result.flight = tap->series();
  return result;
}

}  // namespace powertcp::harness
