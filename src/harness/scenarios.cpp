#include "harness/scenarios.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <utility>

#include "cc/mix.hpp"
#include "cc/registry.hpp"
#include "harness/point.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "stats/percentiles.hpp"
#include "stats/timeseries.hpp"

namespace powertcp::harness {

namespace {

const cc::Scheme& resolve(const SchemeRun& run) {
  return cc::Registry::instance().at(run.scheme);
}

/// Pure formatting: time rows, one f1..fN goodput column per flow.
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
  FatTreePoint point(cfg.topo, resolve(scheme_run).needs, cfg.expected_flows);
  topo::FatTree& fabric = point.fabric;
  const int servers_per_tor = cfg.topo.servers_per_tor;

  const int receiver = 0;
  const int long_sender = fabric.host_count() - 1;
  stats::ThroughputSeries goodput(0, cfg.bin);
  fabric.host(receiver).set_data_callback(
      [&goodput](net::FlowId, std::int64_t bytes, sim::TimePs now) {
        goodput.add_bytes(now, bytes);
      });
  stats::QueueSeries queue;
  net::EgressPort& downlink =
      fabric.tor(0).port(fabric.tor_down_port(receiver));
  downlink.set_queue_monitor(&queue);

  if (cfg.responder_bytes > 0 && cfg.fan_in < 1) {
    throw std::invalid_argument(
        "IncastScenario: responder_bytes > 0 needs fan_in >= 1");
  }
  // Companion i sends from host servers_per_tor + 1 + i.
  if (cfg.long_companions > 0 &&
      servers_per_tor + cfg.long_companions >= fabric.host_count()) {
    throw std::invalid_argument(
        "IncastScenario: long_companions runs past the host count");
  }
  // Paper setup: the long flow (id 1) starts at 0; `long_companions`
  // long flows (ids 10+i) join its receiver at `burst_at`; the
  // large-scale case additionally has `fan_in` responders (ids 100+i)
  // from every other server send `responder_bytes` each.
  std::vector<FlowStart> flows{
      {1, long_sender, receiver, cfg.long_flow_bytes, 0}};
  for (int i = 0; i < cfg.long_companions; ++i) {
    flows.push_back({static_cast<net::FlowId>(10 + i), servers_per_tor + 1 + i,
                     receiver, cfg.long_flow_bytes, cfg.burst_at});
  }
  if (cfg.responder_bytes > 0) {
    // Responders rotate over the hosts outside the receiver's rack,
    // excluding the long sender (the last host).
    const int remote = fabric.host_count() - servers_per_tor - 1;
    if (remote < 1) {
      throw std::invalid_argument(
          "IncastScenario: the fan-in needs at least one host outside the "
          "receiver's rack (grow pods/tors_per_pod)");
    }
    for (int i = 0; i < cfg.fan_in; ++i) {
      flows.push_back({static_cast<net::FlowId>(100 + i),
                       servers_per_tor + i % remote, receiver,
                       cfg.responder_bytes, cfg.burst_at});
    }
  }
  point.start({scheme_run}, flows);

  // The flight tap watches the same bottleneck the queue monitor does,
  // plus the long foreground flow's sender.
  std::optional<FlightTap> tap =
      point.tap(cfg.telemetry, downlink, long_sender, 1, cfg.horizon);

  point.sim.run_until(cfg.horizon);

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
  RdcnPoint point(cfg.topo, resolve(scheme_run).needs, cfg.expected_flows);
  topo::Rdcn& rdcn = point.fabric;

  stats::ThroughputSeries goodput(0, cfg.bin);
  stats::QueueSeries voq;
  stats::Samples sojourns_us;
  net::EgressPort& circuit =
      rdcn.tor(0).port(rdcn.tor(0).circuit_port_index());
  circuit.set_queue_monitor(&voq);
  const auto sojourn_cb = [&sojourns_us](sim::TimePs d) {
    sojourns_us.add(sim::to_microseconds(d));
  };
  circuit.set_sojourn_callback(sojourn_cb);
  rdcn.tor(0)
      .port(rdcn.tor(0).uplink_port_index())
      .set_sojourn_callback(sojourn_cb);

  // Flow s+1 leaves rack-0 server s for its rack-1 peer at t=0.
  const int servers = cfg.topo.servers_per_tor;
  std::vector<FlowStart> flows;
  for (int s = 0; s < servers; ++s) {
    rdcn.host(servers + s).set_data_callback(
        [&goodput](net::FlowId, std::int64_t bytes, sim::TimePs now) {
          goodput.add_bytes(now, bytes);
        });
    flows.push_back(
        {static_cast<net::FlowId>(s + 1), s, servers + s, cfg.flow_bytes, 0});
  }
  point.start({scheme_run}, flows);
  // The flight tap watches the VOQ the paper plots.
  std::optional<FlightTap> tap =
      point.tap_sender_flow(cfg.telemetry, circuit, servers, cfg.horizon);

  point.sim.run_until(cfg.horizon);

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
  const int n_flows = static_cast<int>(cfg.flow_bytes.size());
  if (n_flows < 1) {
    throw std::invalid_argument("DumbbellScenario: needs at least one flow");
  }
  topo::DumbbellConfig topo_cfg = cfg.topo;
  topo_cfg.n_senders = n_flows;
  DumbbellPoint point(topo_cfg, resolve(scheme_run).needs, n_flows);

  std::vector<stats::ThroughputSeries> series(
      static_cast<std::size_t>(n_flows), stats::ThroughputSeries(0, cfg.bin));
  const auto max_flow = static_cast<net::FlowId>(n_flows);
  point.fabric.receiver().set_data_callback(
      [&series, max_flow](net::FlowId flow, std::int64_t bytes,
                          sim::TimePs now) {
        if (flow >= 1 && flow <= max_flow) {
          series[static_cast<std::size_t>(flow - 1)].add_bytes(now, bytes);
        }
      });

  // Flow i+1 leaves sender i at i * stagger.
  std::vector<FlowStart> flows;
  for (int i = 0; i < n_flows; ++i) {
    flows.push_back({static_cast<net::FlowId>(i + 1), i, point.receiver(),
                     cfg.flow_bytes[static_cast<std::size_t>(i)],
                     i * cfg.stagger});
  }
  point.start({scheme_run}, flows);
  std::optional<FlightTap> tap = point.tap_sender_flow(
      cfg.telemetry, point.fabric.bottleneck_port(), n_flows, cfg.horizon);

  point.sim.run_until(cfg.horizon);

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

std::string HomaOcScenario::unmet(const cc::Scheme& scheme) {
  return scheme.message_transport
             ? ""
             : "which is not a receiver-driven message transport; the "
               "overcommitment sweep (kind homa_oc) drives message "
               "transports only";
}

std::vector<ResultTable> homa_oc_tables(const SweepRunner& runner,
                                        const HomaOcScenario& cfg,
                                        const std::vector<SchemeRun>& schemes,
                                        const std::string& slug_prefix) {
  for (const auto& s : schemes) {
    const std::string why = HomaOcScenario::unmet(resolve(s));
    if (!why.empty()) {
      throw std::invalid_argument("HomaOcScenario: scheme '" + s.scheme +
                                  "', " + why);
    }
    if (s.params.contains("overcommit")) {
      throw std::invalid_argument(
          "HomaOcScenario: scheme '" + s.display() +
          "' sets overcommit, which the sweep sets per level");
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

  // One pool batch for both panels, fairness points first: every point
  // is independent, so incast simulations start as soon as workers
  // free up instead of waiting behind the slowest fairness run.
  // Results land by index, keeping the tables deterministic.
  std::vector<DumbbellSeries> fairness_results(schemes.size() *
                                               cfg.overcommit.size());
  std::vector<IncastSeries> incast_results(fairness_results.size() *
                                           cfg.fan_in.size());
  std::vector<std::function<void()>> jobs;
  for (const auto& s : schemes) {
    for (const int oc : cfg.overcommit) {
      jobs.push_back([&cfg, &out = fairness_results[jobs.size()],
                      run = at_level(s, oc)] {
        out = run_dumbbell_scenario(cfg.fairness, run);
      });
    }
  }
  IncastScenario incast = cfg.incast;
  for (const auto& s : schemes) {
    for (const int fan : cfg.fan_in) {
      incast.fan_in = fan;
      for (const int oc : cfg.overcommit) {
        jobs.push_back([incast, run = at_level(s, oc),
                        &out = incast_results[jobs.size() -
                                              fairness_results.size()]] {
          out = run_incast_scenario(incast, run);
        });
      }
    }
  }
  runner.run_indexed(jobs.size(), [&jobs](std::size_t i) { jobs[i](); });

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

std::string MixedCcScenario::unmet(const cc::Scheme& scheme) {
  if (scheme.message_transport) {
    return "is a receiver-driven message transport; it reshapes the fabric "
           "and cannot share a bottleneck with sender CC algorithms";
  }
  if (scheme.needs.circuit_schedule) {
    return "needs a circuit schedule; the coexistence dumbbell has none";
  }
  return "";
}

namespace {

/// One (mix, aqm, rtt, buffer) cell: fairness, aggregate, and
/// per-member share/FCT statistics from a single simulation.
struct MixedCcCellResult {
  double jain = 0;       ///< Jain's index over per-flow delivery rates
  double agg_gbps = 0;   ///< aggregate receiver goodput over the horizon
  double done_frac = 0;  ///< flows finished before the horizon
  std::uint64_t drops = 0;      ///< switch drops (admission + AQM)
  std::uint64_t ecn_marks = 0;  ///< bottleneck-port CE marks
  struct MemberStat {
    int hosts = 0;
    double share_pct = 0;  ///< member bytes / total delivered bytes
    double mean_gbps = 0;  ///< mean per-host delivery rate
    double p50_slowdown = 0, p99_slowdown = 0;  ///< 0 when none finished
    int done = 0;
  };
  std::vector<MemberStat> members;  ///< parallel to the mix's members
  TelemetrySeries flight;  ///< empty unless telemetry.enabled
};

/// One (mix, aqm, rtt, buffer) point of the cell grid.
struct MixedCcCell {
  std::size_t mix;
  std::string aqm;
  double rtt_us;
  std::int64_t buffer;
};

/// Runs one cell. Throws std::invalid_argument for message-transport
/// (Homa) or circuit-bound (reTCP) members and unknown AQM kinds.
MixedCcCellResult run_mixed_cc_cell(const MixedCcScenario& cfg,
                                    const MixedCcCell& cell) {
  const MixedCcMix& mix = cfg.mixes[cell.mix];
  if (mix.members.empty() || mix.members.size() != mix.weights.size()) {
    throw std::invalid_argument("mixed_cc: malformed mix '" + mix.display +
                                "'");
  }
  // First marking-dependent member's (per-Gbps) ECN profile wins —
  // one fabric, one profile, exactly the brownfield constraint. No
  // member is a message transport, so there are no priority bands.
  cc::TopologyNeeds needs;
  std::vector<cc::MixMember> mm;
  for (std::size_t m = 0; m < mix.members.size(); ++m) {
    const SchemeRun& run = mix.members[m];
    const cc::Scheme& s = resolve(run);
    const std::string why = MixedCcScenario::unmet(s);
    if (!why.empty()) {
      throw std::invalid_argument("mixed_cc: mix member '" + run.display() +
                                  "' " + why);
    }
    if (s.needs.ecn.enabled && !needs.ecn.enabled) needs.ecn = s.needs.ecn;
    mm.push_back({run.display(), mix.weights[m]});
  }

  topo::DumbbellConfig topo_cfg = cfg.topo;
  topo_cfg.n_senders = cfg.senders;
  topo_cfg.link_delay = sim::from_seconds(cell.rtt_us * 1e-6 / 4.0);
  if (cell.buffer > 0) topo_cfg.buffer_bytes = cell.buffer;
  topo_cfg.aqm = cfg.aqm;
  topo_cfg.aqm.kind = cell.aqm;
  DumbbellPoint point(topo_cfg, needs, cfg.senders);

  const std::vector<int> assign =
      cc::mix_assignment(mm, cfg.senders, cfg.seed);

  const auto n = static_cast<std::size_t>(cfg.senders);
  std::vector<std::int64_t> bytes(n, 0);
  std::vector<sim::TimePs> finish(n, 0);
  std::vector<char> done(n, 0);
  point.fabric.receiver().set_data_callback(
      [&bytes, n](net::FlowId flow, std::int64_t b, sim::TimePs) {
        if (flow >= 1 && static_cast<std::size_t>(flow) <= n) {
          bytes[static_cast<std::size_t>(flow - 1)] += b;
        }
      });
  // Flow i+1 leaves sender i at t=0 under its assigned member's CC.
  std::vector<FlowStart> flows;
  for (int i = 0; i < cfg.senders; ++i) {
    const int member = assign[static_cast<std::size_t>(i)];
    flows.push_back({static_cast<net::FlowId>(i + 1), i, point.receiver(),
                     cfg.flow_bytes, 0, static_cast<std::size_t>(member)});
  }
  const FlowDone on_done = [&finish, &done](int sender,
                                            const host::FlowCompletion& c) {
    finish[static_cast<std::size_t>(sender)] = c.finish;
    done[static_cast<std::size_t>(sender)] = 1;
  };
  point.start(mix.members, flows, &on_done);
  std::optional<FlightTap> tap = point.tap_sender_flow(
      cfg.telemetry, point.fabric.bottleneck_port(), cfg.senders, cfg.horizon);

  point.sim.run_until(cfg.horizon);

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
  out.drops = point.fabric.bottleneck_switch().total_drops();
  out.ecn_marks = point.fabric.bottleneck_port().ecn_marks();

  const double ideal_s = sim::to_seconds(
      point.params.base_rtt + topo_cfg.bottleneck_bw.tx_time(cfg.flow_bytes));
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
  if (tap) out.flight = tap->series();
  return out;
}

}  // namespace

Cell mixed_cc_rtt_key(double rtt_us) { return Cell(rtt_us, 1); }

Cell mixed_cc_buffer_key(std::int64_t buffer_bytes) {
  return buffer_bytes > 0 ? Cell(static_cast<double>(buffer_bytes) / 1e3, 0)
                          : Cell(std::string("default"));
}

std::vector<ResultTable> mixed_cc_tables(const SweepRunner& runner,
                                         const MixedCcScenario& cfg,
                                         const std::string& slug_prefix) {
  if (cfg.mixes.empty()) {
    throw std::invalid_argument("mixed_cc: needs at least one cc_mix");
  }
  std::vector<MixedCcCell> cells;
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
    jobs.push_back([cfg, c] { return run_mixed_cc_cell(cfg, c); });
  }
  const std::vector<MixedCcCellResult> results = runner.map(jobs);

  const auto cell_keys = [&](const MixedCcCell& c) {
    std::vector<Cell> keys;
    keys.push_back(Cell(cfg.mixes[c.mix].display));
    keys.push_back(Cell(c.aqm));
    keys.push_back(mixed_cc_rtt_key(c.rtt_us));
    keys.push_back(mixed_cc_buffer_key(c.buffer));
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
    const MixedCcCell& c = cells[i];
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
  const std::vector<std::string> key_names = tables.front().key_columns;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (results[i].flight.empty()) continue;
    const std::vector<Cell> keys = cell_keys(cells[i]);
    std::string title;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      title += (k > 0 ? ", " : "") + key_names[k] + "=" + keys[k].render();
    }
    tables.push_back(flight_table(
        results[i].flight,
        slug_prefix + "_cell" + std::to_string(i + 1) + "_flight",
        title + ": flight recorder (bottleneck port + tapped flow)"));
  }
  return tables;
}

}  // namespace powertcp::harness
