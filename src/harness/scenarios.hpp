#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cc/params.hpp"
#include "harness/sweep.hpp"
#include "harness/telemetry.hpp"
#include "sim/time.hpp"
#include "stats/timeseries.hpp"
#include "topo/dumbbell.hpp"
#include "topo/fat_tree.hpp"
#include "topo/rdcn.hpp"

/// \file scenarios.hpp
/// The non-sweep workhorse scenarios behind Figs. 4, 5, 8 and 9-11,
/// run by the scenario kinds of the `powertcp_run` config runner.
/// Every scenario resolves its scheme through cc::Registry — topology
/// needs (priority bands, ECN profile, CircuitSchedule) are applied
/// from the registry entry and `key=value` params flow into the
/// scheme's factory. Every scenario runs on a point builder of
/// point.hpp (fat tree, dumbbell or RDCN), whose Point::start starts
/// its traffic, running `message_transport` entries (Homa) through
/// host::Host::enable_homa instead of a sender algorithm.
///
/// A SchemeRun names one table column/row: a registered scheme plus
/// its parameter overrides and a display label (so e.g. reTCP-600us
/// and reTCP-1800us are two runs of the same scheme).

namespace powertcp::cc {
struct Scheme;
}  // namespace powertcp::cc

namespace powertcp::harness {

struct SchemeRun {
  std::string label;   ///< table heading; defaults to `scheme`
  std::string scheme;  ///< cc::Registry entry name
  cc::ParamMap params;

  std::string display() const { return label.empty() ? scheme : label; }
};

/// Fig. 4: a long flow streams to one receiver; at `burst_at` ten long
/// companions plus an optional query fan-in slam the same downlink.
struct IncastScenario {
  topo::FatTreeConfig topo = topo::FatTreeConfig::quick();
  int expected_flows = 8;
  int fan_in = 10;  ///< query responders
  /// What each of the `fan_in` responders sends (0 = no query).
  std::int64_t responder_bytes = 0;
  std::int64_t long_flow_bytes = 400'000'000;
  int long_companions = 10;
  sim::TimePs burst_at = sim::microseconds(500);
  sim::TimePs horizon = sim::milliseconds(3);
  sim::TimePs bin = sim::microseconds(50);
  /// Optional flight recorder on the receiver's ToR downlink + the
  /// long foreground flow.
  TelemetryConfig telemetry;
};

/// Receiver goodput and bottleneck ToR-downlink queue, one bin each,
/// plus the point's burst summary.
struct IncastSeries {
  std::vector<double> gbps;
  std::vector<double> queue_kb;
  double peak_queue_kb = 0;
  std::uint64_t drops = 0;       ///< fabric-wide
  double mean_goodput_gbps = 0;  ///< over the bins that saw data
  /// From `burst_at` to the first queue sample after the peak at or
  /// below a tenth of it; empty when the queue never settles.
  std::optional<double> settle_us;
  /// Time-weighted mean queue from settle to the horizon; empty with
  /// `settle_us`.
  std::optional<double> residual_queue_kb;
  TelemetrySeries flight;  ///< empty unless telemetry.enabled
};

IncastSeries run_incast_scenario(const IncastScenario& cfg,
                                 const SchemeRun& scheme);

/// The queue half of the burst summary: peak_queue_kb, settle_us and
/// residual_queue_kb of `queue` (the other fields stay empty).
IncastSeries summarize_burst_queue(const stats::QueueSeries& queue,
                                   sim::TimePs burst_at, sim::TimePs horizon);

/// Fig. 8: rack0's servers stream to rack1 across the RDCN while the
/// rotor schedule connects and disconnects them. The fabric marks no
/// packets and has no priority bands, so the scenario throws
/// std::invalid_argument for DCQCN, DCTCP and Homa (RdcnPoint).
struct RdcnScenario {
  topo::RdcnConfig topo;  ///< caller sizes n_tors/servers_per_tor/bws
  int expected_flows = 10;
  std::int64_t flow_bytes = 2'000'000'000;
  sim::TimePs horizon = sim::milliseconds(4);
  sim::TimePs bin = sim::microseconds(50);
  /// Optional flight recorder on ToR-0's circuit port + the
  /// `telemetry.flow`-th rack-0 flow.
  TelemetryConfig telemetry;
};

struct RdcnResult {
  std::vector<double> gbps;    ///< rack0 -> rack1 goodput per bin
  std::vector<double> voq_kb;  ///< ToR-0 VOQ backlog per bin
  double p99_sojourn_us = 0;   ///< ToR-0 queuing latency tail
  double circuit_utilization = 0;  ///< day-time goodput / circuit rate
  TelemetrySeries flight;  ///< empty unless telemetry.enabled
};

RdcnResult run_rdcn_scenario(const RdcnScenario& cfg,
                             const SchemeRun& scheme);

/// Fig. 5: `flow_bytes.size()` flows share one dumbbell bottleneck,
/// arriving staggered by `stagger` and (with the descending default
/// sizes) departing in reverse order — the fairness/stability shape.
struct DumbbellScenario {
  /// n_senders is overwritten with the flow count at run time.
  topo::DumbbellConfig topo;
  std::vector<std::int64_t> flow_bytes = {14'000'000, 10'000'000, 6'000'000,
                                          2'500'000};
  sim::TimePs stagger = sim::microseconds(800);
  sim::TimePs horizon = sim::milliseconds(8);
  sim::TimePs bin = sim::microseconds(100);
  /// Table rows sample every `row_stride`-th bin.
  int row_stride = 4;
  /// Optional flight recorder on the bottleneck port + the
  /// `telemetry.flow`-th flow (sender flow-1).
  TelemetryConfig telemetry;
};

/// Per-flow receiver goodput, one sampled row per table line.
struct DumbbellSeries {
  std::vector<sim::TimePs> bin_start;
  /// gbps[flow][row]; one entry per flow in DumbbellScenario order.
  std::vector<std::vector<double>> gbps;
  TelemetrySeries flight;  ///< empty unless telemetry.enabled
};

DumbbellSeries run_dumbbell_scenario(const DumbbellScenario& cfg,
                                     const SchemeRun& scheme);

/// One "<scheme> (Gbps per flow)" table per scheme, slug
/// "<prefix>_<display>". Per-scheme simulations run on the runner's
/// pool; output is identical for every thread count.
std::vector<ResultTable> dumbbell_fairness_tables(
    const SweepRunner& runner, const DumbbellScenario& cfg,
    const std::vector<SchemeRun>& schemes, const std::string& slug_prefix);

/// Figs. 9-11 (Appendix D): a receiver-driven message transport swept
/// across overcommitment levels — the dumbbell fairness series per
/// level, plus N:1 incast reaction summaries on the fat-tree. Every
/// scheme in the list must be a registry `message_transport` entry;
/// the sweep injects `overcommit = <level>` into its params per point.
struct HomaOcScenario {
  /// Fig. 9's table density: every 8th fairness bin becomes a row.
  static DumbbellScenario default_fairness() {
    DumbbellScenario d;
    d.row_stride = 8;
    return d;
  }
  /// A long message holds the receiver's downlink when a synchronized
  /// burst of 100 KB messages arrives; no long companions.
  static IncastScenario default_incast() {
    IncastScenario s;
    s.long_flow_bytes = 200'000'000;
    s.long_companions = 0;
    s.responder_bytes = 100'000;
    s.bin = sim::microseconds(100);
    return s;
  }

  /// Fig. 9 panel (per-level fairness series).
  DumbbellScenario fairness = default_fairness();
  /// Figs. 10/11 panel (incast reaction summaries), run once per
  /// `fan_in` entry. Its flight tap reads the receiver's ToR downlink;
  /// message transports have no sender window, so cwnd/pace read 0.
  IncastScenario incast = default_incast();
  std::vector<int> overcommit = {1, 2, 3, 4, 5, 6};
  std::vector<int> fan_in = {10, 55};

  /// Why the sweep cannot run `scheme` ("which is not ..."), or "".
  static std::string unmet(const cc::Scheme& scheme);
};

/// Per scheme: one fairness table per overcommitment level, then one
/// summary table per fan-in with a row per level. Throws
/// std::invalid_argument for schemes that are not message transports
/// and for a scheme whose params set `overcommit`, which the sweep
/// sets per level.
std::vector<ResultTable> homa_oc_tables(const SweepRunner& runner,
                                        const HomaOcScenario& cfg,
                                        const std::vector<SchemeRun>& schemes,
                                        const std::string& slug_prefix);

/// One congestion-control mix: resolved scheme runs plus normalized
/// host weights, parallel vectors. `display` keys the mix's table rows
/// (cc::mix_display form, stable across input spellings).
struct MixedCcMix {
  std::string display;
  std::vector<SchemeRun> members;
  std::vector<double> weights;
};

/// Brownfield coexistence (the ROADMAP item this layer pays for): a
/// dumbbell whose senders are pinned per host to one mix member —
/// incumbent and candidate stacks sharing one bottleneck — swept over
/// (cc_mix, aqm, rtt, buffer) cells. The buffer axis reaches down to
/// the Tiny-Buffer regime (a few KB per port), where marking policy
/// dominates the outcome.
struct MixedCcScenario {
  /// Bandwidth/alpha template; n_senders, link_delay, buffer_bytes and
  /// aqm.kind are overridden per cell.
  topo::DumbbellConfig topo;
  int senders = 8;
  std::int64_t flow_bytes = 4'000'000;  ///< one flow per sender, all at t=0
  sim::TimePs horizon = sim::milliseconds(8);
  std::uint64_t seed = 1;  ///< pins the host->member assignment
  /// AQM tunables shared by every cell; the swept axis picks `kind`.
  net::AqmSpec aqm;

  // Cell axes (outer product, mix-major):
  std::vector<MixedCcMix> mixes;
  std::vector<std::string> aqm_kinds = {"red"};
  std::vector<double> rtt_us = {8.0};          ///< base RTT; link_delay = rtt/4
  std::vector<std::int64_t> buffer_bytes = {0}; ///< 0 = topo default
  /// Optional flight recorder per cell on the bottleneck port + the
  /// `telemetry.flow`-th sender's flow.
  TelemetryConfig telemetry;

  /// Why `scheme` cannot be a mix member ("is ..." or "needs ..."), or
  /// "".
  static std::string unmet(const cc::Scheme& scheme);
};

/// A cell's `rttus` and `bufKB` row keys, as the coexistence tables
/// render them (a 0 buffer is the topology's "default").
Cell mixed_cc_rtt_key(double rtt_us);
Cell mixed_cc_buffer_key(std::int64_t buffer_bytes);

/// The three coexistence tables — `<prefix>_fairness` (one row per
/// cell), `<prefix>_share` and `<prefix>_fct` (one row per cell ×
/// member) — then, with telemetry on, one `<prefix>_cell<N>_flight`
/// table per cell (N counts cells from 1 in fairness-row order). Cell
/// simulations run on the runner's pool; output is identical for every
/// thread count.
std::vector<ResultTable> mixed_cc_tables(const SweepRunner& runner,
                                         const MixedCcScenario& cfg,
                                         const std::string& slug_prefix);

/// Renders one finalized flight recording as a time-keyed table (the
/// shared q/power/cwnd/pace/ecn channel schema; see telemetry.hpp).
/// Returns an empty-rowed table for an empty series; callers skip
/// those. Defined in telemetry.cpp.
ResultTable flight_table(const TelemetrySeries& series,
                         const std::string& slug, const std::string& title);

}  // namespace powertcp::harness
