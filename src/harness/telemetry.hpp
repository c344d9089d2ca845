#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/keys.hpp"
#include "sim/flight_recorder.hpp"
#include "sim/time.hpp"

/// \file telemetry.hpp
/// Per-run flight-recorder telemetry for the scenario harness.
///
/// A `[telemetry]` config section (or `powertcp_run --telemetry`)
/// attaches one FlightTap to every simulation point: a
/// sim::FlightRecorder sampling the scenario's foreground bottleneck
/// port and foreground flow — queue depth, normalized power, cwnd,
/// pacing rate, and cumulative ECN marks — on a bounded buffer that
/// 2:1-downsamples as the run outgrows it. The resulting
/// TelemetrySeries renders as one extra `<slug>_flight*` ResultTable
/// per point through the established tidy-CSV/JSON writers, with a
/// `time` key column like every other time-series table.
///
/// Telemetry is OFF by default, and the off path is byte-identical to
/// a build without it (pinned by golden tests); the on path adds zero
/// heap allocations per sample to the steady-state packet path
/// (pinned by the allocation-counting tests).
///
/// This header is deliberately light (no sweep.hpp) so experiment.hpp
/// and scenarios.hpp can embed the config/series types; the
/// ResultTable builder `flight_table` is declared in scenarios.hpp.

namespace powertcp::net {
class EgressPort;
}
namespace powertcp::host {
class Host;
}

namespace powertcp::harness {

/// Parsed `[telemetry]` section; defaults are all off/neutral.
struct TelemetryConfig {
  bool enabled = false;
  /// Stored samples per channel before 2:1 downsampling kicks in.
  std::int64_t capacity = 512;
  /// Base sampling period (the effective period doubles on each wrap).
  sim::TimePs sample_every = sim::microseconds(10);
  /// Foreground flow for the cwnd/pacing channels, where the kind
  /// supports choosing one (dumbbell: flow i is sender i-1; rdcn:
  /// flow i is rack-0 server i-1; both clamp it to their senders in
  /// Point::tap_sender_flow; fat_tree: the i-th planned arrival). The
  /// incast kinds always tap their long foreground flow.
  std::int64_t flow = 1;
};

/// Declares the optional `[telemetry]` section's keys (keys.hpp);
/// absent, telemetry stays disabled.
void declare_telemetry_keys(KeyTable& keys, TelemetryConfig* cfg);

/// One finalized flight recording, copied out of a simulation point.
/// Channel-major values share the time column.
struct TelemetrySeries {
  std::vector<sim::TimePs> time;
  std::vector<std::string> channels;
  std::vector<int> precision;  ///< table precision per channel
  std::vector<std::vector<double>> values;  ///< [channel][row]
  bool empty() const { return time.empty(); }
};

/// Wires the standard five channels to a scenario's foreground port
/// and (optionally) flow, and arms the recorder. Construct after the
/// topology and flows are set up, before Simulator::run; keep it
/// alive for the whole run (probes capture `this` and the port).
///
///   qKB       port backlog (KB)
///   power     normalized power at the port: λ·ν / (b²·τ), with
///             λ = Δq/Δt + Δtx/Δt and ν = q + b·τ between
///             consecutive ticks (1.0 = equilibrium, §3.1 semantics)
///   cwndKB    the tapped flow's window (0 when absent/finished or
///             for message transports, which have no sender window)
///   paceGbps  the tapped flow's pacing rate
///   ecn       cumulative ECN marks at the port
class FlightTap {
 public:
  FlightTap(const TelemetryConfig& cfg, sim::Simulator& sim,
            net::EgressPort& port, host::Host* flow_host,
            std::int64_t flow, sim::TimePs tau, sim::TimePs until);

  FlightTap(const FlightTap&) = delete;
  FlightTap& operator=(const FlightTap&) = delete;

  /// Finalizes the recording and copies it out (callable repeatedly).
  TelemetrySeries series();

 private:
  double power_probe();

  sim::Simulator& sim_;
  net::EgressPort& port_;
  host::Host* flow_host_;
  std::int64_t flow_;
  double bandwidth_Bps_;  ///< port line rate in bytes/sec
  double tau_s_;          ///< base RTT in seconds

  // Previous-tick state for the finite-difference power probe.
  bool have_prev_ = false;
  sim::TimePs prev_t_ = 0;
  std::int64_t prev_q_ = 0;
  std::int64_t prev_tx_ = 0;

  sim::FlightRecorder recorder_;
};

}  // namespace powertcp::harness
