#pragma once

#include <cstdint>
#include <string>

#include "cc/params.hpp"
#include "harness/telemetry.hpp"
#include "sim/time.hpp"
#include "stats/fct_recorder.hpp"
#include "stats/percentiles.hpp"
#include "topo/fat_tree.hpp"

/// \file experiment.hpp
/// The paper's workhorse experiment (§4.1): a fat-tree carrying the web
/// search workload at a target ToR-uplink load, optionally overlaid
/// with the synthetic incast/query workload, under a chosen congestion
/// control scheme. Returns per-flow FCT slowdowns and fabric buffer
/// occupancy samples — the raw material of Figs. 6 and 7.

namespace powertcp::harness {

struct FatTreeExperiment {
  topo::FatTreeConfig topo = topo::FatTreeConfig::quick();
  /// Any cc::Registry scheme runnable on a fat-tree — the window/rate
  /// algorithms or "homa" (whose registry entry switches the fabric to
  /// its priority bands and runs flows through the message transport).
  std::string cc = "powertcp";
  /// `key=value` overrides for the scheme's declared tunables
  /// (config-file `[cc.<scheme>]` sections end up here). Keys the map
  /// does not pin fall back to the scheme's experiment defaults (e.g.
  /// PowerTCP's HPCC-matched beta), then to its paper defaults.
  cc::ParamMap cc_params;
  double uplink_load = 0.6;  ///< websearch load on the ToR uplinks
  sim::TimePs duration = sim::milliseconds(20);
  std::uint64_t seed = 1;
  /// Scale factor applied to websearch flow sizes; < 1 trades flow size
  /// for flow count so quick runs still populate tail percentiles.
  double size_scale = 1.0;
  /// Expected flows per host NIC (the N in β = HostBw·τ/N). Loaded
  /// fabrics run tens of concurrent flows per host; the standing queue
  /// of every β-driven law is Σβ, so N must reflect that concurrency
  /// (configs/ablation_beta.toml sweeps the β it derives).
  int expected_flows = 64;

  // Optional incast overlay (§4.1's distributed-file-system queries);
  // the fat_tree kind sweeps its (rate, size) pairs for Fig. 7c-f.
  bool incast = false;
  double incast_requests_per_sec = 4.0;
  std::int64_t incast_request_bytes = 2'000'000;
  int incast_fan_in = 16;

  /// Optional flight-recorder tap (off by default): samples the first
  /// ToR's first uplink port and the `telemetry.flow`-th planned
  /// arrival's sender. Read-only probes — enabling it never changes
  /// the simulation's results (pinned by golden tests).
  TelemetryConfig telemetry;
};

/// ToR-uplink queue sampling period (ExperimentResult::uplink_queue_bytes).
inline constexpr sim::TimePs kQueueSampleEvery = sim::microseconds(20);

struct ExperimentResult {
  stats::FctRecorder fct;
  /// Every ToR uplink's queue, sampled every kQueueSampleEvery: the
  /// occupancy CDF of Fig. 7g/7h.
  stats::Samples uplink_queue_bytes;
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t drops = 0;
  sim::TimePs tau = 0;
  TelemetrySeries flight;  ///< empty unless cfg.telemetry.enabled

  double completion_rate() const {
    return flows_started == 0
               ? 1.0
               : static_cast<double>(flows_completed) /
                     static_cast<double>(flows_started);
  }
};

/// Builds the fabric, generates the workload, runs to completion of the
/// time horizon, and collects results. Deterministic in `cfg.seed`.
ExperimentResult run_fat_tree_experiment(const FatTreeExperiment& cfg);

}  // namespace powertcp::harness
