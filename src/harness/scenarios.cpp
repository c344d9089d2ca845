#include "harness/scenarios.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <utility>

#include "cc/mix.hpp"
#include "cc/registry.hpp"
#include "harness/shard_setup.hpp"
#include "host/homa.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "stats/percentiles.hpp"
#include "stats/timeseries.hpp"

namespace powertcp::harness {

namespace {

const cc::Scheme& resolve(const SchemeRun& run) {
  return cc::Registry::instance().at(run.scheme);
}

/// Hosts outside the receiver's rack (rack 0), excluding the long
/// sender — the round-robin pool the query fan-in draws responders
/// from. Throws when the fabric has no such host: the responder modulo
/// would otherwise divide by zero.
int checked_remote_responders(const topo::FatTree& fabric,
                              int servers_per_tor) {
  const int remote = fabric.host_count() - servers_per_tor - 1;
  if (remote < 1) {
    throw std::invalid_argument(
        "IncastScenario: the fan-in needs at least one host outside the "
        "receiver's rack (grow pods/tors_per_pod)");
  }
  return remote;
}

}  // namespace

IncastSeries summarize_burst_queue(const stats::QueueSeries& queue,
                                   sim::TimePs burst_at, sim::TimePs horizon) {
  IncastSeries out;
  out.peak_queue_kb = static_cast<double>(queue.max_bytes()) / 1e3;
  using Point = stats::QueueSeries::Point;
  const auto& points = queue.points();
  const auto peak = std::max_element(
      points.begin(), points.end(),
      [](const Point& a, const Point& b) { return a.bytes < b.bytes; });
  if (peak == points.end()) return out;
  const auto settle =
      std::find_if(std::next(peak), points.end(), [&queue](const Point& p) {
        return p.bytes <= queue.max_bytes() / 10;
      });
  if (settle == points.end()) return out;
  out.settle_us = sim::to_microseconds(settle->t - burst_at);
  out.residual_queue_kb = queue.time_weighted_mean(settle->t, horizon) / 1e3;
  return out;
}

IncastSeries run_incast_scenario(const IncastScenario& cfg,
                                 const SchemeRun& scheme_run) {
  const cc::Scheme& scheme = resolve(scheme_run);
  // Partitioned engine (per-pod cut); monitors live on pod 0 = shard 0.
  ShardedPoint point(topo::fat_tree_shard_plan(
      cfg.topo, effective_sim_threads(cfg.sim_threads, cfg.telemetry.enabled)));
  sim::Simulator& simulator = point.sim();
  net::Network& network = point.network;
  topo::FatTreeConfig topo_cfg = cfg.topo;
  topo_cfg.ecn = scheme.needs.ecn;
  topo_cfg.priority_bands = scheme.needs.priority_bands;
  topo::FatTree fabric(network, topo_cfg);

  cc::FlowParams params;
  params.host_bw = topo_cfg.host_bw;
  params.base_rtt = fabric.max_base_rtt();
  params.expected_flows = cfg.expected_flows;

  const int receiver = 0;
  const int long_sender = fabric.host_count() - 1;
  stats::ThroughputSeries goodput(0, cfg.bin);
  fabric.host(receiver).set_data_callback(
      [&goodput](net::FlowId, std::int64_t bytes, sim::TimePs now) {
        goodput.add_bytes(now, bytes);
      });
  stats::QueueSeries queue;
  fabric.tor(0).port(fabric.tor_down_port(receiver)).set_queue_monitor(&queue);

  if (cfg.responder_bytes > 0 && cfg.fan_in < 1) {
    throw std::invalid_argument(
        "IncastScenario: responder_bytes > 0 needs fan_in >= 1");
  }
  // Companion i sends from host servers_per_tor + 1 + i.
  if (cfg.long_companions > 0 &&
      topo_cfg.servers_per_tor + cfg.long_companions >= fabric.host_count()) {
    throw std::invalid_argument(
        "IncastScenario: long_companions runs past the host count");
  }
  // Paper setup: `long_companions` long flows join the long flow's
  // receiver at `burst_at`; the large-scale case additionally has
  // `fan_in` responders from every other server send `responder_bytes`
  // each.
  const bool query = cfg.responder_bytes > 0;
  const std::int64_t burst_bytes = cfg.responder_bytes;
  const int remote_responders =
      query ? checked_remote_responders(fabric, topo_cfg.servers_per_tor)
            : 1;  // responder_of is never called without a query fan-in
  const auto responder_of = [&](int i) {
    return topo_cfg.servers_per_tor + i % remote_responders;
  };

  if (scheme.message_transport) {
    const host::HomaConfig hc =
        host::homa_config_from_params(scheme_run.params, params);
    for (int h = 0; h < fabric.host_count(); ++h) {
      fabric.host(h).enable_homa(hc);
    }
    host::Host& ls = fabric.host(long_sender);
    const std::int64_t long_bytes = cfg.long_flow_bytes;
    // Message starts are scheduled on each sender's own shard.
    ls.simulator().schedule_at(0, [&ls, &fabric, receiver, long_bytes] {
      ls.homa()->send_message(1, fabric.host_node(receiver), long_bytes);
    });
    for (int i = 0; i < cfg.long_companions; ++i) {
      host::Host& h = fabric.host(topo_cfg.servers_per_tor + 1 + i);
      const net::FlowId fid = static_cast<net::FlowId>(10 + i);
      h.simulator().schedule_at(cfg.burst_at,
                                [&h, fid, &fabric, receiver, long_bytes] {
                                  h.homa()->send_message(
                                      fid, fabric.host_node(receiver),
                                      long_bytes);
                                });
    }
    for (int i = 0; query && i < cfg.fan_in; ++i) {
      host::Host& h = fabric.host(responder_of(i));
      const net::FlowId fid = static_cast<net::FlowId>(100 + i);
      h.simulator().schedule_at(cfg.burst_at, [&h, fid, &fabric, receiver,
                                               burst_bytes] {
        h.homa()->send_message(fid, fabric.host_node(receiver), burst_bytes);
      });
    }
  } else {
    const cc::FlowCcFactory factory =
        scheme.make(scheme_run.params, cc::SchemeTopology{});
    const auto endpoints = [&](int src_host) {
      return cc::FlowEndpoints{fabric.tor_of_host(src_host),
                               fabric.tor_of_host(receiver)};
    };
    fabric.host(long_sender)
        .start_flow(1, fabric.host_node(receiver), cfg.long_flow_bytes,
                    factory(params, endpoints(long_sender)), params, 0);
    for (int i = 0; i < cfg.long_companions; ++i) {
      const int responder = topo_cfg.servers_per_tor + 1 + i;
      fabric.host(responder).start_flow(
          static_cast<net::FlowId>(10 + i), fabric.host_node(receiver),
          cfg.long_flow_bytes, factory(params, endpoints(responder)), params,
          cfg.burst_at);
    }
    for (int i = 0; query && i < cfg.fan_in; ++i) {
      const int responder = responder_of(i);
      fabric.host(responder).start_flow(
          static_cast<net::FlowId>(100 + i), fabric.host_node(receiver),
          burst_bytes, factory(params, endpoints(responder)), params,
          cfg.burst_at);
    }
  }

  // The flight tap watches the same bottleneck the queue monitor does,
  // plus the long foreground flow's sender (message transports have no
  // sender window; those channels read 0).
  std::optional<FlightTap> tap;
  if (cfg.telemetry.enabled) {
    tap.emplace(cfg.telemetry, simulator,
                fabric.tor(0).port(fabric.tor_down_port(receiver)),
                scheme.message_transport ? nullptr : &fabric.host(long_sender),
                1, params.base_rtt, cfg.horizon);
  }

  point.run_until(cfg.horizon);

  IncastSeries out = summarize_burst_queue(queue, cfg.burst_at, cfg.horizon);
  out.drops = fabric.total_drops();
  out.mean_goodput_gbps = goodput.mean_gbps(0, goodput.bin_count());
  const auto bins = static_cast<std::size_t>(cfg.horizon / cfg.bin);
  for (std::size_t b = 0; b < bins; ++b) {
    out.gbps.push_back(goodput.gbps(b));
    out.queue_kb.push_back(
        static_cast<double>(queue.at(goodput.bin_start(b) + cfg.bin / 2)) /
        1e3);
  }
  if (tap) out.flight = tap->series();
  return out;
}

RdcnResult run_rdcn_scenario(const RdcnScenario& cfg,
                             const SchemeRun& scheme_run) {
  const cc::Scheme& scheme = resolve(scheme_run);
  if (scheme.message_transport) {
    throw std::invalid_argument("scheme '" + scheme_run.scheme +
                                "' is a message transport; the RDCN "
                                "scenario drives sender CC algorithms");
  }

  sim::Simulator simulator;
  net::Network network(simulator);
  topo::Rdcn rdcn(network, cfg.topo);

  cc::FlowParams params;
  params.host_bw = cfg.topo.host_bw;
  params.base_rtt = rdcn.max_base_rtt();
  params.expected_flows = cfg.expected_flows;

  cc::SchemeTopology scheme_topo;
  scheme_topo.circuit = &rdcn.schedule();
  scheme_topo.circuit_bw_bps = cfg.topo.circuit_bw.bps();
  scheme_topo.packet_bw_bps = cfg.topo.packet_bw.bps();
  const cc::FlowCcFactory factory =
      scheme.make(scheme_run.params, scheme_topo);

  stats::ThroughputSeries goodput(0, cfg.bin);
  stats::QueueSeries voq;
  stats::Samples sojourns_us;
  rdcn.tor(0).port(rdcn.tor(0).circuit_port_index()).set_queue_monitor(&voq);
  const auto sojourn_cb = [&sojourns_us](sim::TimePs d) {
    sojourns_us.add(sim::to_microseconds(d));
  };
  rdcn.tor(0)
      .port(rdcn.tor(0).circuit_port_index())
      .set_sojourn_callback(sojourn_cb);
  rdcn.tor(0)
      .port(rdcn.tor(0).uplink_port_index())
      .set_sojourn_callback(sojourn_cb);

  for (int s = 0; s < cfg.topo.servers_per_tor; ++s) {
    const int dst_host = cfg.topo.servers_per_tor + s;  // rack 1
    rdcn.host(dst_host).set_data_callback(
        [&goodput](net::FlowId, std::int64_t bytes, sim::TimePs now) {
          goodput.add_bytes(now, bytes);
        });
    rdcn.host(s).start_flow(static_cast<net::FlowId>(s + 1),
                            rdcn.host(dst_host).id(), cfg.flow_bytes,
                            factory(params, cc::FlowEndpoints{0, 1}), params,
                            0);
  }

  // Flight tap: ToR-0's circuit port (the VOQ the paper plots) plus
  // the telemetry.flow-th rack-0 flow, clamped to the rack.
  std::optional<FlightTap> tap;
  if (cfg.telemetry.enabled) {
    const auto idx = static_cast<int>(
        std::min<std::int64_t>(cfg.telemetry.flow, cfg.topo.servers_per_tor));
    tap.emplace(cfg.telemetry, simulator,
                rdcn.tor(0).port(rdcn.tor(0).circuit_port_index()),
                &rdcn.host(idx - 1), idx, params.base_rtt, cfg.horizon);
  }

  simulator.run_until(cfg.horizon);

  RdcnResult out;
  double day_bytes = 0, day_secs = 0;
  const auto bins = static_cast<std::size_t>(cfg.horizon / cfg.bin);
  for (std::size_t b = 0; b < bins; ++b) {
    const sim::TimePs t = goodput.bin_start(b);
    out.gbps.push_back(goodput.gbps(b));
    out.voq_kb.push_back(static_cast<double>(voq.at(t + cfg.bin / 2)) / 1e3);
    if (rdcn.schedule().active_peer(0, t) == 1 &&
        rdcn.schedule().active_peer(0, t + cfg.bin) == 1) {
      day_bytes += goodput.gbps(b) * sim::to_seconds(cfg.bin) / 8.0 * 1e9;
      day_secs += sim::to_seconds(cfg.bin);
    }
  }
  if (day_secs > 0) {
    out.circuit_utilization =
        day_bytes * 8.0 / day_secs / cfg.topo.circuit_bw.bps();
  }
  if (!sojourns_us.empty()) out.p99_sojourn_us = sojourns_us.percentile(99);
  if (tap) out.flight = tap->series();
  return out;
}

DumbbellSeries run_dumbbell_scenario(const DumbbellScenario& cfg,
                                     const SchemeRun& scheme_run) {
  const cc::Scheme& scheme = resolve(scheme_run);
  const int n_flows = static_cast<int>(cfg.flow_bytes.size());
  if (n_flows < 1) {
    throw std::invalid_argument("DumbbellScenario: needs at least one flow");
  }

  topo::DumbbellConfig topo_cfg = cfg.topo;
  topo_cfg.n_senders = n_flows;
  topo_cfg.ecn = scheme.needs.ecn;
  topo_cfg.priority_bands = scheme.needs.priority_bands;
  sim::Simulator simulator;
  net::Network network(simulator);
  topo::Dumbbell topo(network, topo_cfg);

  cc::FlowParams params;
  params.host_bw = topo_cfg.host_bw;
  params.base_rtt = topo.base_rtt();
  params.expected_flows = n_flows;

  std::vector<stats::ThroughputSeries> series(
      static_cast<std::size_t>(n_flows), stats::ThroughputSeries(0, cfg.bin));
  const auto max_flow = static_cast<net::FlowId>(n_flows);
  topo.receiver().set_data_callback(
      [&series, max_flow](net::FlowId flow, std::int64_t bytes,
                          sim::TimePs now) {
        if (flow >= 1 && flow <= max_flow) {
          series[static_cast<std::size_t>(flow - 1)].add_bytes(now, bytes);
        }
      });

  if (scheme.message_transport) {
    const host::HomaConfig hc =
        host::homa_config_from_params(scheme_run.params, params);
    for (int i = 0; i < n_flows; ++i) topo.sender(i).enable_homa(hc);
    topo.receiver().enable_homa(hc);
    for (int i = 0; i < n_flows; ++i) {
      host::Host& s = topo.sender(i);
      const auto fid = static_cast<net::FlowId>(i + 1);
      const std::int64_t size = cfg.flow_bytes[static_cast<std::size_t>(i)];
      const net::NodeId dst = topo.receiver_node();
      s.simulator().schedule_at(i * cfg.stagger, [&s, fid, size, dst] {
        s.homa()->send_message(fid, dst, size);
      });
    }
  } else {
    const cc::FlowCcFactory factory =
        scheme.make(scheme_run.params, cc::SchemeTopology{});
    for (int i = 0; i < n_flows; ++i) {
      topo.sender(i).start_flow(static_cast<net::FlowId>(i + 1),
                                topo.receiver_node(),
                                cfg.flow_bytes[static_cast<std::size_t>(i)],
                                factory(params, cc::FlowEndpoints{}), params,
                                i * cfg.stagger);
    }
  }

  // Flight tap: the shared bottleneck plus the telemetry.flow-th flow
  // (sender flow-1), clamped to the flow count.
  std::optional<FlightTap> tap;
  if (cfg.telemetry.enabled) {
    const auto idx = static_cast<int>(
        std::min<std::int64_t>(cfg.telemetry.flow, n_flows));
    tap.emplace(cfg.telemetry, simulator, topo.bottleneck_port(),
                scheme.message_transport ? nullptr : &topo.sender(idx - 1),
                idx, params.base_rtt, cfg.horizon);
  }

  simulator.run_until(cfg.horizon);

  DumbbellSeries out;
  out.gbps.resize(static_cast<std::size_t>(n_flows));
  const auto stride = static_cast<std::size_t>(std::max(cfg.row_stride, 1));
  // Rows span the longest-lived flow, not flow 0: arrival order and
  // size order are both config-controlled (gbps() past a series' end
  // is 0).
  std::size_t bins = 0;
  for (const auto& s : series) bins = std::max(bins, s.bin_count());
  for (std::size_t b = 0; b < bins; b += stride) {
    out.bin_start.push_back(series[0].bin_start(b));
    for (std::size_t f = 0; f < static_cast<std::size_t>(n_flows); ++f) {
      out.gbps[f].push_back(series[f].gbps(b));
    }
  }
  if (tap) out.flight = tap->series();
  return out;
}

ResultTable dumbbell_series_table(const DumbbellSeries& series,
                                  const std::string& slug,
                                  const std::string& title) {
  ResultTable t;
  t.title = title;
  t.slug = slug;
  t.key_columns = {"time"};
  for (std::size_t f = 0; f < series.gbps.size(); ++f) {
    t.value_columns.push_back("f" + std::to_string(f + 1));
  }
  for (std::size_t b = 0; b < series.bin_start.size(); ++b) {
    ResultTable::Row row;
    row.keys = {Cell(sim::format_time(series.bin_start[b]))};
    for (const auto& flow : series.gbps) {
      row.values.push_back(Cell(flow[b], 1));
    }
    t.rows.push_back(std::move(row));
  }
  return t;
}

std::vector<ResultTable> dumbbell_fairness_tables(
    const SweepRunner& runner, const DumbbellScenario& cfg,
    const std::vector<SchemeRun>& schemes, const std::string& slug_prefix) {
  std::vector<std::function<DumbbellSeries()>> jobs;
  jobs.reserve(schemes.size());
  for (const auto& s : schemes) {
    jobs.push_back([cfg, s] { return run_dumbbell_scenario(cfg, s); });
  }
  const std::vector<DumbbellSeries> results = runner.map(jobs);

  std::vector<ResultTable> tables;
  tables.reserve(schemes.size());
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const std::string name = schemes[i].display();
    tables.push_back(dumbbell_series_table(results[i], slug_prefix + "_" + name,
                                           name + " (Gbps per flow)"));
    if (!results[i].flight.empty()) {
      tables.push_back(flight_table(
          results[i].flight, slug_prefix + "_" + name + "_flight",
          name + " flight recorder (bottleneck port + tapped flow)"));
    }
  }
  return tables;
}

std::vector<ResultTable> homa_oc_tables(const SweepRunner& runner,
                                        const HomaOcScenario& cfg,
                                        const std::vector<SchemeRun>& schemes,
                                        const std::string& slug_prefix) {
  for (const auto& s : schemes) {
    if (!resolve(s).message_transport) {
      throw std::invalid_argument(
          "scheme '" + s.scheme +
          "' is not a receiver-driven message transport; the overcommitment "
          "sweep (kind homa_oc) drives message transports only");
    }
  }
  if (cfg.overcommit.empty()) {
    throw std::invalid_argument("HomaOcScenario: needs overcommit levels");
  }

  // Every (scheme, level) point is one independent simulation; the
  // injected `overcommit` param rides the scheme's declared tunables.
  const auto at_level = [](const SchemeRun& s, int oc) {
    SchemeRun run = s;
    run.params["overcommit"] = std::to_string(oc);
    return run;
  };

  IncastScenario incast = cfg.incast;
  std::vector<std::function<DumbbellSeries()>> fairness_jobs;
  fairness_jobs.reserve(schemes.size() * cfg.overcommit.size());
  std::vector<std::function<IncastSeries()>> incast_jobs;
  incast_jobs.reserve(schemes.size() * cfg.fan_in.size() *
                      cfg.overcommit.size());
  for (const auto& s : schemes) {
    for (const int oc : cfg.overcommit) {
      const SchemeRun run = at_level(s, oc);
      fairness_jobs.push_back(
          [&cfg, run] { return run_dumbbell_scenario(cfg.fairness, run); });
    }
    for (const int fan : cfg.fan_in) {
      incast.fan_in = fan;
      for (const int oc : cfg.overcommit) {
        const SchemeRun run = at_level(s, oc);
        incast_jobs.push_back(
            [incast, run] { return run_incast_scenario(incast, run); });
      }
    }
  }
  // One pool batch for both panels: every point is independent, so
  // incast simulations start as soon as workers free up instead of
  // waiting behind the slowest fairness run. Results land by index,
  // keeping the tables deterministic.
  std::vector<DumbbellSeries> fairness_results(fairness_jobs.size());
  std::vector<IncastSeries> incast_results(incast_jobs.size());
  runner.run_indexed(
      fairness_jobs.size() + incast_jobs.size(), [&](std::size_t i) {
        if (i < fairness_jobs.size()) {
          fairness_results[i] = fairness_jobs[i]();
        } else {
          incast_results[i - fairness_jobs.size()] =
              incast_jobs[i - fairness_jobs.size()]();
        }
      });

  std::vector<ResultTable> tables;
  std::size_t fairness_at = 0, incast_at = 0;
  for (const auto& s : schemes) {
    const std::string name = s.display();
    for (const int oc : cfg.overcommit) {
      const DumbbellSeries& r = fairness_results[fairness_at++];
      const std::string point =
          slug_prefix + "_" + name + "_oc" + std::to_string(oc);
      tables.push_back(dumbbell_series_table(
          r, point,
          name + " fairness, overcommitment " + std::to_string(oc) +
              " (Gbps per flow)"));
      if (!r.flight.empty()) {
        tables.push_back(flight_table(
            r.flight, point + "_flight",
            name + " oc" + std::to_string(oc) +
                " flight recorder (bottleneck port)"));
      }
    }
    for (const int fan : cfg.fan_in) {
      ResultTable t;
      t.title = name + " " + std::to_string(fan) +
                ":1 incast vs overcommitment (peak ToR queue, drops, "
                "receiver goodput)";
      t.slug = slug_prefix + "_" + name + "_incast" + std::to_string(fan) +
               "to1";
      t.key_columns = {"oc"};
      t.value_columns = {"peakQ(KB)", "drops", "goodput(Gbps)"};
      std::vector<ResultTable> flights;
      for (const int oc : cfg.overcommit) {
        const IncastSeries& r = incast_results[incast_at++];
        ResultTable::Row row;
        row.keys = {Cell(std::to_string(oc))};
        row.values = {Cell(r.peak_queue_kb, 1),
                      Cell::integer(static_cast<std::int64_t>(r.drops)),
                      Cell(r.mean_goodput_gbps, 1)};
        t.rows.push_back(std::move(row));
        if (!r.flight.empty()) {
          flights.push_back(flight_table(
              r.flight, t.slug + "_oc" + std::to_string(oc) + "_flight",
              name + " " + std::to_string(fan) + ":1 oc" + std::to_string(oc) +
                  " flight recorder (receiver ToR downlink)"));
        }
      }
      tables.push_back(std::move(t));
      for (auto& f : flights) tables.push_back(std::move(f));
    }
  }
  return tables;
}

MixedCcCellResult run_mixed_cc_cell(const MixedCcScenario& cfg,
                                    const MixedCcMix& mix,
                                    const std::string& aqm_kind,
                                    double rtt_us,
                                    std::int64_t buffer_bytes) {
  if (mix.members.empty() || mix.members.size() != mix.weights.size()) {
    throw std::invalid_argument("mixed_cc: malformed mix '" + mix.display +
                                "'");
  }
  std::vector<const cc::Scheme*> schemes;
  for (const auto& run : mix.members) {
    const cc::Scheme& s = resolve(run);
    if (s.message_transport) {
      throw std::invalid_argument(
          "mixed_cc: mix member '" + run.display() +
          "' is a receiver-driven message transport; it reshapes the fabric "
          "(priority bands, receiver grants) and cannot share a bottleneck "
          "with sender CC algorithms");
    }
    if (s.needs.circuit_schedule) {
      throw std::invalid_argument(
          "mixed_cc: mix member '" + run.display() +
          "' needs a circuit schedule; the coexistence dumbbell has none");
    }
    schemes.push_back(&s);
  }

  topo::DumbbellConfig topo_cfg = cfg.topo;
  topo_cfg.n_senders = cfg.senders;
  topo_cfg.link_delay = sim::from_seconds(rtt_us * 1e-6 / 4.0);
  if (buffer_bytes > 0) topo_cfg.buffer_bytes = buffer_bytes;
  topo_cfg.priority_bands = 0;
  topo_cfg.aqm = cfg.aqm;
  topo_cfg.aqm.kind = aqm_kind;
  // First marking-dependent member's (per-Gbps) ECN profile wins —
  // one fabric, one profile, exactly the brownfield constraint.
  topo_cfg.ecn = net::EcnConfig{};
  for (const cc::Scheme* s : schemes) {
    if (s->needs.ecn.enabled) {
      topo_cfg.ecn = s->needs.ecn;
      break;
    }
  }
  sim::Simulator simulator;
  net::Network network(simulator);
  topo::Dumbbell topo(network, topo_cfg);

  cc::FlowParams params;
  params.host_bw = topo_cfg.host_bw;
  params.base_rtt = topo.base_rtt();
  params.expected_flows = cfg.senders;

  std::vector<cc::FlowCcFactory> factories;
  factories.reserve(mix.members.size());
  for (std::size_t i = 0; i < mix.members.size(); ++i) {
    factories.push_back(
        schemes[i]->make(mix.members[i].params, cc::SchemeTopology{}));
  }
  std::vector<cc::MixMember> mm;
  mm.reserve(mix.members.size());
  for (std::size_t i = 0; i < mix.members.size(); ++i) {
    mm.push_back({mix.members[i].display(), mix.weights[i]});
  }
  const std::vector<int> assign =
      cc::mix_assignment(mm, cfg.senders, cfg.seed);

  const auto n = static_cast<std::size_t>(cfg.senders);
  std::vector<std::int64_t> bytes(n, 0);
  std::vector<sim::TimePs> finish(n, 0);
  std::vector<char> done(n, 0);
  topo.receiver().set_data_callback(
      [&bytes, n](net::FlowId flow, std::int64_t b, sim::TimePs) {
        if (flow >= 1 && static_cast<std::size_t>(flow) <= n) {
          bytes[static_cast<std::size_t>(flow - 1)] += b;
        }
      });
  for (int i = 0; i < cfg.senders; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    topo.sender(i).start_flow(
        static_cast<net::FlowId>(i + 1), topo.receiver_node(), cfg.flow_bytes,
        factories[static_cast<std::size_t>(assign[idx])](params,
                                                         cc::FlowEndpoints{}),
        params, 0,
        [&finish, &done, idx](const host::FlowCompletion& c) {
          finish[idx] = c.finish;
          done[idx] = 1;
        });
  }

  simulator.run_until(cfg.horizon);

  // Per-flow delivery rate over the flow's own active window, so a
  // stack that finishes early is credited its speed rather than
  // averaged down by its idle tail.
  const double horizon_s = sim::to_seconds(cfg.horizon);
  std::vector<double> rate_gbps(n, 0);
  double sum = 0, sum_sq = 0;
  std::int64_t total_bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double active_s = done[i] ? sim::to_seconds(finish[i]) : horizon_s;
    rate_gbps[i] = active_s > 0
                       ? static_cast<double>(bytes[i]) * 8.0 / active_s / 1e9
                       : 0.0;
    sum += rate_gbps[i];
    sum_sq += rate_gbps[i] * rate_gbps[i];
    total_bytes += bytes[i];
  }

  MixedCcCellResult out;
  if (sum_sq > 0) {
    out.jain = sum * sum / (static_cast<double>(n) * sum_sq);
  }
  out.agg_gbps = static_cast<double>(total_bytes) * 8.0 / horizon_s / 1e9;
  out.drops = topo.bottleneck_switch().total_drops();
  out.ecn_marks = topo.bottleneck_port().ecn_marks();

  const double ideal_s = sim::to_seconds(
      params.base_rtt + topo_cfg.bottleneck_bw.tx_time(cfg.flow_bytes));
  out.members.resize(mix.members.size());
  int done_total = 0;
  for (std::size_t m = 0; m < mix.members.size(); ++m) {
    auto& stat = out.members[m];
    stats::Samples slowdowns;
    std::int64_t member_bytes = 0;
    double member_rate = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (static_cast<std::size_t>(assign[i]) != m) continue;
      ++stat.hosts;
      member_bytes += bytes[i];
      member_rate += rate_gbps[i];
      if (done[i]) {
        ++stat.done;
        ++done_total;
        slowdowns.add(sim::to_seconds(finish[i]) / ideal_s);
      }
    }
    if (total_bytes > 0) {
      stat.share_pct = static_cast<double>(member_bytes) /
                       static_cast<double>(total_bytes) * 100.0;
    }
    if (stat.hosts > 0) stat.mean_gbps = member_rate / stat.hosts;
    if (!slowdowns.empty()) {
      stat.p50_slowdown = slowdowns.percentile(50);
      stat.p99_slowdown = slowdowns.percentile(99);
    }
  }
  out.done_frac =
      static_cast<double>(done_total) / static_cast<double>(cfg.senders);
  return out;
}

std::vector<ResultTable> mixed_cc_tables(const SweepRunner& runner,
                                         const MixedCcScenario& cfg,
                                         const std::string& slug_prefix) {
  if (cfg.mixes.empty()) {
    throw std::invalid_argument("mixed_cc: needs at least one cc_mix");
  }
  struct CellKey {
    std::size_t mix;
    std::string aqm;
    double rtt_us;
    std::int64_t buffer;
  };
  std::vector<CellKey> cells;
  for (std::size_t m = 0; m < cfg.mixes.size(); ++m) {
    for (const auto& aqm : cfg.aqm_kinds) {
      for (const double rtt : cfg.rtt_us) {
        for (const std::int64_t buf : cfg.buffer_bytes) {
          cells.push_back({m, aqm, rtt, buf});
        }
      }
    }
  }

  std::vector<std::function<MixedCcCellResult()>> jobs;
  jobs.reserve(cells.size());
  for (const auto& c : cells) {
    jobs.push_back([cfg, c] {
      return run_mixed_cc_cell(cfg, cfg.mixes[c.mix], c.aqm, c.rtt_us,
                               c.buffer);
    });
  }
  const std::vector<MixedCcCellResult> results = runner.map(jobs);

  const auto cell_keys = [&](const CellKey& c) {
    std::vector<Cell> keys;
    keys.push_back(Cell(cfg.mixes[c.mix].display));
    keys.push_back(Cell(c.aqm));
    keys.push_back(Cell(c.rtt_us, 1));
    keys.push_back(c.buffer > 0 ? Cell(static_cast<double>(c.buffer) / 1e3, 0)
                                : Cell(std::string("default")));
    return keys;
  };

  ResultTable fairness;
  fairness.title =
      "Coexistence fairness per (mix, aqm, rtt, buffer) cell — Jain's "
      "index over per-flow delivery rates";
  fairness.slug = slug_prefix + "_fairness";
  fairness.key_columns = {"mix", "aqm", "rttus", "bufKB"};
  fairness.value_columns = {"jain", "aggGbps", "done%", "drops", "marks"};

  ResultTable share;
  share.title = "Per-member throughput share (member bytes / total bytes)";
  share.slug = slug_prefix + "_share";
  share.key_columns = {"mix", "aqm", "rttus", "bufKB", "member"};
  share.value_columns = {"hosts", "share%", "meanGbps"};

  ResultTable fct;
  fct.title = "Per-member FCT slowdown (completed flows only)";
  fct.slug = slug_prefix + "_fct";
  fct.key_columns = {"mix", "aqm", "rttus", "bufKB", "member"};
  fct.value_columns = {"p50slow", "p99slow", "done"};

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellKey& c = cells[i];
    const MixedCcCellResult& r = results[i];

    ResultTable::Row row;
    row.keys = cell_keys(c);
    row.values = {Cell(r.jain, 3), Cell(r.agg_gbps, 2),
                  Cell(r.done_frac * 100.0, 0),
                  Cell::integer(static_cast<std::int64_t>(r.drops)),
                  Cell::integer(static_cast<std::int64_t>(r.ecn_marks))};
    fairness.rows.push_back(std::move(row));

    const MixedCcMix& mix = cfg.mixes[c.mix];
    for (std::size_t m = 0; m < mix.members.size(); ++m) {
      const auto& stat = r.members[m];
      ResultTable::Row srow;
      srow.keys = cell_keys(c);
      srow.keys.push_back(Cell(mix.members[m].display()));
      srow.values = {Cell::integer(stat.hosts), Cell(stat.share_pct, 1),
                     Cell(stat.mean_gbps, 2)};
      share.rows.push_back(std::move(srow));

      ResultTable::Row frow;
      frow.keys = cell_keys(c);
      frow.keys.push_back(Cell(mix.members[m].display()));
      frow.values = {Cell(stat.p50_slowdown, 2), Cell(stat.p99_slowdown, 2),
                     Cell::integer(stat.done)};
      fct.rows.push_back(std::move(frow));
    }
  }

  std::vector<ResultTable> tables;
  tables.push_back(std::move(fairness));
  tables.push_back(std::move(share));
  tables.push_back(std::move(fct));
  return tables;
}

}  // namespace powertcp::harness
