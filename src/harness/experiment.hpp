#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cc/mix.hpp"
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
  /// Per-host CC mix (brownfield coexistence). When non-empty, `cc` /
  /// `cc_params` above are ignored: each host is pinned to one member
  /// by cc::mix_assignment, deterministic in `seed`. Members must be
  /// sender CC algorithms — message transports (Homa) reshape the
  /// fabric and cannot share it, so they are rejected. The fabric runs
  /// the ECN profile of the first member that needs marking.
  struct MixShare {
    std::string cc;          ///< cc::Registry entry name
    cc::ParamMap cc_params;  ///< per-member tunable overrides
    double weight = 1.0;     ///< normalized share of hosts
  };
  std::vector<MixShare> cc_mix;
  double uplink_load = 0.6;  ///< websearch load on the ToR uplinks
  sim::TimePs duration = sim::milliseconds(20);
  std::uint64_t seed = 1;
  /// Scale factor applied to websearch flow sizes; < 1 trades flow size
  /// for flow count so quick runs still populate tail percentiles.
  double size_scale = 1.0;
  /// Expected flows per host NIC (the N in β = HostBw·τ/N). Loaded
  /// fabrics run tens of concurrent flows per host; the standing queue
  /// of every β-driven law is Σβ, so N must reflect that concurrency
  /// (bench_ablation_params sweeps it).
  int expected_flows = 64;
  int homa_overcommit = 1;

  // Optional incast overlay (§4.1's distributed-file-system queries).
  bool incast = false;
  double incast_requests_per_sec = 4.0;
  std::int64_t incast_request_bytes = 2'000'000;
  int incast_fan_in = 16;

  /// Fabric queue sampling period for the occupancy CDF (Fig. 7g/7h).
  sim::TimePs queue_sample_every = sim::microseconds(20);

  /// Shards for the parallel engine (sim/shard.hpp): the fat-tree is
  /// cut per pod (topo::fat_tree_shard_plan) and run on this many
  /// threads. 1 = the sequential engine, verbatim; results are
  /// thread-count-independent (pinned by golden tests). Telemetry runs
  /// force 1 (the flight tap reads across the cut).
  int sim_threads = 1;

  /// Optional flight-recorder tap (off by default): samples the first
  /// ToR's first uplink port and the `telemetry.flow`-th planned
  /// arrival's sender. Read-only probes — enabling it never changes
  /// the simulation's results (pinned by golden tests).
  TelemetryConfig telemetry;
};

struct ExperimentResult {
  stats::FctRecorder fct;
  stats::Samples uplink_queue_bytes;  ///< periodic ToR-uplink samples
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t drops = 0;
  sim::TimePs tau = 0;
  TelemetrySeries flight;  ///< empty unless cfg.telemetry.enabled

  // Populated only for cc_mix runs:
  /// mix-member index each host was pinned to (empty when homogeneous).
  std::vector<int> host_member;
  /// per-member FCT recorders, parallel to cfg.cc_mix; `fct` above
  /// still aggregates every flow.
  std::vector<stats::FctRecorder> member_fct;

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

/// ECN profile used when `cc` needs marking (DCQCN: RED 1000/4000
/// bytes-per-Gbps with pmax 0.2; DCTCP: step at 700 bytes-per-Gbps).
/// Reads the scheme's registry entry; unknown names get the disabled
/// profile. Exposed for tests and non-fat-tree harnesses.
net::EcnConfig ecn_profile_for(const std::string& cc);

}  // namespace powertcp::harness
