#pragma once

#include <cstdint>

#include "harness/config.hpp"
#include "sim/time.hpp"

/// \file burst.hpp
/// Host NIC batching for the scenario harness.
///
/// The optional `[burst]` section sets two *behavior-changing* knobs
/// that model NIC features: `ack_agg_us` (receiver ack aggregation
/// window, host::Host) and `pacing_quantum` (packets per pacing-timer
/// tick, host::FlowSenderConfig). Their defaults are the per-packet
/// values, so an absent section leaves every run byte-identical. See
/// docs/performance.md.

namespace powertcp::net {
class Network;
}

namespace powertcp::harness {

/// Parsed `[burst]` section; defaults are the per-packet NIC.
struct BurstConfig {
  /// Receiver-side ack aggregation window (0 = ack every packet).
  /// Behavior-changing: applies whenever nonzero, pinned by its own
  /// tests rather than the byte-identity goldens.
  sim::TimePs ack_agg = 0;
  /// Packets released per pacing-timer wakeup (1 = legacy).
  /// Behavior-changing, like ack_agg.
  std::int32_t pacing_quantum = 1;
};

/// Parses the optional `[burst]` section (absent = all defaults).
/// Throws ConfigError on out-of-range values or unknown keys, with
/// file:line context.
BurstConfig load_burst_config(const ConfigFile& file);

/// Pushes ack_agg / pacing_quantum to every host in a freshly built
/// simulation point (when non-default). Call after the topology exists
/// and before flows start.
void apply_burst(const BurstConfig& cfg, net::Network& network);

}  // namespace powertcp::harness
