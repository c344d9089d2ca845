#include "harness/experiment.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "cc/registry.hpp"
#include "harness/point.hpp"
#include "net/network.hpp"
#include "sim/rng.hpp"
#include "sim/shard.hpp"
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

ExperimentResult run_fat_tree_experiment(const FatTreeExperiment& cfg) {
  // The registry entry carries everything scheme-specific; no scheme
  // is special-cased by name.
  const cc::Scheme& scheme = cc::Registry::instance().at(cfg.cc);
  FatTreePoint point(cfg.topo, scheme.needs, cfg.expected_flows,
                     cfg.sim_threads, cfg.telemetry.enabled);
  net::Network& network = point.sharded.network;
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

  // Completion callbacks fire on the shard of the host that detects
  // them, so each shard records into its own sink; the sinks merge
  // after the run (verbatim for one shard, ordered by (finish,
  // flow_id) otherwise — cross-shard same-picosecond finishes are the
  // only case where that could differ from the sequential record
  // order, and the golden tests pin that it doesn't).
  struct ShardSink {
    stats::FctRecorder fct;
    std::uint64_t completed = 0;
  };
  std::vector<ShardSink> sinks(
      static_cast<std::size_t>(point.sharded.plan.shards));
  // Ideal FCT: line-rate transfer plus one base RTT.
  const FlowDone done = [&](int host, const host::FlowCompletion& c) {
    ShardSink& sink = sinks[static_cast<std::size_t>(
        network.shard_of(fabric.host_node(host)))];
    sink.fct.record({c.flow, c.size_bytes, c.start, c.finish,
                     result.tau + cfg.topo.host_bw.tx_time(c.size_bytes)});
    ++sink.completed;
  };

  // ---- flow setup: plan ids are sequential from 1 ----
  SchemeRun run{"", cfg.cc, cfg.cc_params};
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
  // Each shard samples its own ToRs' uplinks (one self-rescheduling
  // event per shard per tick); the per-shard streams carry (tick,
  // global port rank) so the merge reproduces the sequential append
  // order exactly.
  struct RankedPort {
    int rank;
    net::EgressPort* port;
  };
  std::vector<std::vector<RankedPort>> shard_uplinks(
      static_cast<std::size_t>(point.sharded.plan.shards));
  {
    int rank = 0;
    for (int t = 0; t < fabric.tor_count(); ++t) {
      const auto s = static_cast<std::size_t>(
          network.shard_of(fabric.tor(t).id()));
      for (const int p : fabric.tor_uplink_ports(t)) {
        shard_uplinks[s].push_back({rank++, &fabric.tor(t).port(p)});
      }
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

  struct UplinkSample {
    std::int64_t tick;
    int rank;
    double value;
  };
  struct ShardSampler {
    std::function<void()> fn;
    std::int64_t tick = 0;
    std::vector<UplinkSample> out;
  };
  std::vector<std::unique_ptr<ShardSampler>> samplers;
  for (int s = 0; s < point.sharded.plan.shards; ++s) {
    const auto& ports = shard_uplinks[static_cast<std::size_t>(s)];
    if (ports.empty()) continue;
    sim::Simulator* ssim = &point.sharded.engine.shard(s);
    auto sampler = std::make_unique<ShardSampler>();
    ShardSampler* self = sampler.get();
    self->fn = [self, ssim, &ports, &cfg] {
      for (const RankedPort& rp : ports) {
        self->out.push_back({self->tick, rp.rank,
                             static_cast<double>(rp.port->queue_bytes())});
      }
      ++self->tick;
      if (ssim->now() < cfg.duration) {
        ssim->schedule_in(kQueueSampleEvery, self->fn);
      }
    };
    ssim->schedule_at(0, self->fn);
    samplers.push_back(std::move(sampler));
  }

  // Run past the horizon so in-flight flows can finish.
  point.run_until(cfg.duration + sim::milliseconds(20));

  // ---- merge per-shard sinks back into the sequential shapes ----
  if (point.sharded.plan.shards == 1) {
    result.fct = std::move(sinks[0].fct);
    result.flows_completed = sinks[0].completed;
  } else {
    const auto by_finish = [](const stats::FlowRecord& a,
                              const stats::FlowRecord& b) {
      return std::tie(a.finish, a.flow_id) < std::tie(b.finish, b.flow_id);
    };
    std::vector<stats::FlowRecord> all;
    for (auto& s : sinks) {
      result.flows_completed += s.completed;
      all.insert(all.end(), s.fct.flows().begin(), s.fct.flows().end());
    }
    std::stable_sort(all.begin(), all.end(), by_finish);
    for (const auto& r : all) result.fct.record(r);
  }
  {
    std::vector<UplinkSample> merged;
    for (const auto& s : samplers) {
      merged.insert(merged.end(), s->out.begin(), s->out.end());
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const UplinkSample& a, const UplinkSample& b) {
                       return std::tie(a.tick, a.rank) <
                              std::tie(b.tick, b.rank);
                     });
    for (const auto& s : merged) result.uplink_queue_bytes.add(s.value);
  }

  result.drops = fabric.total_drops();
  if (tap) result.flight = tap->series();
  return result;
}

}  // namespace powertcp::harness
