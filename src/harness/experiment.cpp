#include "harness/experiment.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "cc/registry.hpp"
#include "host/homa.hpp"
#include "net/network.hpp"
#include "harness/shard_setup.hpp"
#include "sim/rng.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "topo/partition.hpp"
#include "workload/traffic_gen.hpp"

namespace powertcp::harness {

net::EcnConfig ecn_profile_for(const std::string& cc) {
  const cc::Scheme* scheme = cc::Registry::instance().find(cc);
  return scheme == nullptr ? net::EcnConfig{} : scheme->needs.ecn;
}

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
  // The registry entry carries everything scheme-specific: the fabric
  // features to configure, the tunable parameters, and the factory (or
  // the message-transport flag) — no scheme is special-cased by name.
  const cc::Scheme& scheme = cc::Registry::instance().at(cfg.cc);

  // Partitioned engine: the fat-tree is cut per pod; one shard drives
  // the whole thing when sim_threads is 1 (or the plan falls back).
  ShardedPoint point(topo::fat_tree_shard_plan(
      cfg.topo, effective_sim_threads(cfg.sim_threads, cfg.telemetry.enabled)));
  sim::Simulator& simulator = point.sim();
  net::Network& network = point.network;

  topo::FatTreeConfig topo_cfg = cfg.topo;
  topo_cfg.ecn = scheme.needs.ecn;
  topo_cfg.priority_bands = scheme.needs.priority_bands;
  topo_cfg.int_enabled = true;
  topo::FatTree fabric(network, topo_cfg);

  ExperimentResult result;
  result.tau = fabric.max_base_rtt();

  cc::FlowParams params;
  params.host_bw = topo_cfg.host_bw;
  params.base_rtt = result.tau;
  params.expected_flows = cfg.expected_flows;

  // ---- workload plan ----
  sim::Rng rng(cfg.seed);
  const auto dist = scaled_websearch(cfg.size_scale);
  workload::PoissonConfig pc;
  pc.load_per_host = fabric.host_load_for_uplink_load(cfg.uplink_load);
  pc.host_bw = topo_cfg.host_bw;
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
    ic.hosts_per_group = topo_cfg.servers_per_tor;  // other racks only
    auto bursts = workload::generate_incast(ic, rng);
    plan.insert(plan.end(), bursts.begin(), bursts.end());
  }
  result.flows_started = plan.size();

  // ---- ideal FCT model: line-rate transfer plus one base RTT ----
  const auto ideal_fct = [&](std::int64_t bytes) {
    return result.tau + topo_cfg.host_bw.tx_time(bytes);
  };

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
  std::vector<ShardSink> sinks(static_cast<std::size_t>(point.plan.shards));
  const auto sink_of = [&](int host_index) {
    return &sinks[static_cast<std::size_t>(
        network.shard_of(fabric.host_node(host_index)))];
  };

  // ---- flow setup ----
  cc::ParamMap scheme_params = cfg.cc_params;
  if (scheme.experiment_defaults) {
    scheme.experiment_defaults(params, scheme_params);
  }
  if (scheme.message_transport) {
    const host::HomaConfig hc =
        host::homa_config_from_params(scheme_params, params);
    for (int h = 0; h < fabric.host_count(); ++h) {
      ShardSink* sink = sink_of(h);
      fabric.host(h).enable_homa(hc).set_message_callback(
          [sink, &ideal_fct](const host::MessageCompletion& done) {
            stats::FlowRecord rec;
            rec.flow_id = done.message;
            rec.size_bytes = done.size_bytes;
            rec.start = done.start;
            rec.finish = done.finish;
            rec.ideal = ideal_fct(done.size_bytes);
            sink->fct.record(rec);
            ++sink->completed;
          });
    }
    net::FlowId next_id = 1;
    for (const auto& arrival : plan) {
      const net::FlowId id = next_id++;
      host::Host& src = fabric.host(arrival.src_host);
      const net::NodeId dst = fabric.host_node(arrival.dst_host);
      const std::int64_t size = arrival.size_bytes;
      // Scheduled on the sender's shard — the event belongs to it.
      src.simulator().schedule_at(arrival.start, [&src, id, dst, size] {
        src.homa()->send_message(id, dst, size);
      });
    }
  } else {
    const cc::FlowCcFactory factory =
        scheme.make(scheme_params, cc::SchemeTopology{});
    net::FlowId next_id = 1;
    for (const auto& arrival : plan) {
      const net::FlowId id = next_id++;
      const cc::FlowEndpoints endpoints{fabric.tor_of_host(arrival.src_host),
                                        fabric.tor_of_host(arrival.dst_host)};
      // Completion is detected at the sender (final ack), so this
      // flow's record lands in the sender's shard sink.
      ShardSink* sink = sink_of(arrival.src_host);
      fabric.host(arrival.src_host)
          .start_flow(id, fabric.host_node(arrival.dst_host),
                      arrival.size_bytes, factory(params, endpoints), params,
                      arrival.start,
                      [sink, &ideal_fct](const host::FlowCompletion& c) {
                        stats::FlowRecord rec;
                        rec.flow_id = c.flow;
                        rec.size_bytes = c.size_bytes;
                        rec.start = c.start;
                        rec.finish = c.finish;
                        rec.ideal = ideal_fct(c.size_bytes);
                        sink->fct.record(rec);
                        ++sink->completed;
                      });
    }
  }

  // ---- fabric queue sampling (ToR uplinks, Fig. 7g style) ----
  // Each shard samples its own ToRs' uplinks (one self-rescheduling
  // event per shard per tick); the per-shard streams carry (tick,
  // global port rank) so the merge reproduces the sequential append
  // order exactly.
  std::vector<net::EgressPort*> uplinks;
  for (int t = 0; t < fabric.tor_count(); ++t) {
    for (const int p : fabric.tor_uplink_ports(t)) {
      uplinks.push_back(&fabric.tor(t).port(p));
    }
  }
  struct RankedPort {
    int rank;
    net::EgressPort* port;
  };
  std::vector<std::vector<RankedPort>> shard_uplinks(
      static_cast<std::size_t>(point.plan.shards));
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
  // arrival exists and the scheme has a sender window.
  std::optional<FlightTap> tap;
  if (cfg.telemetry.enabled && !uplinks.empty()) {
    host::Host* tap_host = nullptr;
    if (!scheme.message_transport && cfg.telemetry.flow >= 1 &&
        static_cast<std::size_t>(cfg.telemetry.flow) <= plan.size()) {
      tap_host = &fabric.host(
          plan[static_cast<std::size_t>(cfg.telemetry.flow - 1)].src_host);
    }
    tap.emplace(cfg.telemetry, simulator, *uplinks.front(), tap_host,
                cfg.telemetry.flow, result.tau, cfg.duration);
  }

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
  for (int s = 0; s < point.plan.shards; ++s) {
    const auto& ports = shard_uplinks[static_cast<std::size_t>(s)];
    if (ports.empty()) continue;
    sim::Simulator* ssim = &point.engine.shard(s);
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
  if (point.plan.shards == 1) {
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
