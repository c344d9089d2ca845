#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "cc/registry.hpp"
#include "harness/scenarios.hpp"
#include "host/flow.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "topo/dumbbell.hpp"
#include "topo/fat_tree.hpp"

/// \file point.hpp
/// One builder per topology the paper runs every scheme on: FatTreePoint
/// (Figs. 4, 6, 7) and DumbbellPoint (Fig. 5, Appendix D, mixed_cc)
/// build the engine, network and fabric (with the schemes'
/// cc::TopologyNeeds) and fill cc::FlowParams. Traffic starts through
/// Point::start, the one place a point chooses between the Homa
/// message transport and sender congestion control.

namespace powertcp::harness {

/// One flow (sender CC) or message (Homa) to start. `src` and `dst`
/// index the point's hosts: the fat tree's host index, or the
/// dumbbell's senders and then its receiver.
struct FlowStart {
  net::FlowId id = 0;
  int src = 0;
  int dst = 0;
  std::int64_t bytes = 0;
  sim::TimePs at = 0;
  std::size_t run = 0;  ///< start()'s run whose sender CC the flow uses
};

/// Fires per finished flow or message with the index of the host that
/// saw it finish (a flow's sender; a message's completing transport).
using FlowDone = std::function<void(int host, const host::FlowCompletion&)>;

/// What both builders share: the hosts, the flow parameters, the tap.
class Point {
 public:
  Point() = default;
  Point(const Point&) = delete;  // callbacks and taps hold its hosts
  Point& operator=(const Point&) = delete;

  cc::FlowParams params;  ///< every flow of the point starts with these

  /// Starts `flows` in order. If `runs.front()` is a message transport,
  /// every host enables it (with that run's params) before any message
  /// is scheduled; otherwise each flow starts under its run's sender
  /// CC. `done` must outlive the run.
  void start(const std::vector<SchemeRun>& runs,
             const std::vector<FlowStart>& flows,
             const FlowDone* done = nullptr);

  /// With `telemetry.enabled`, a flight tap on `port` plus flow `flow`
  /// of host `flow_host`, whose cwnd/pace channels read 0 when
  /// `flow_host` is negative or the point runs a message transport (no
  /// sender window). Call after start(); declare the tap after the
  /// point, so it cancels its sampling event before the engine goes.
  std::optional<FlightTap> tap(const TelemetryConfig& telemetry,
                               net::EgressPort& port, int flow_host,
                               std::int64_t flow, sim::TimePs until);

 protected:
  struct Endpoint {
    host::Host* host;
    int tor;  ///< for route-aware factories; -1 on the dumbbell
  };
  std::vector<Endpoint> hosts_;
  sim::Simulator* monitor_sim_ = nullptr;  ///< where the tap samples

 private:
  bool messages_ = false;
};

/// A fat tree.
class FatTreePoint final : public Point {
 public:
  FatTreePoint(const topo::FatTreeConfig& topo,
               const cc::TopologyNeeds& needs, int expected_flows);

  sim::Simulator sim;
  net::Network network;
  topo::FatTree fabric;
};

/// A dumbbell.
class DumbbellPoint final : public Point {
 public:
  DumbbellPoint(const topo::DumbbellConfig& topo,
                const cc::TopologyNeeds& needs, int expected_flows);

  sim::Simulator sim;
  net::Network network;
  topo::Dumbbell fabric;

  /// The receiver's host index, after the senders'.
  int receiver() const { return static_cast<int>(hosts_.size()) - 1; }

  /// The bottleneck port plus flow `telemetry.flow` (sender flow-1),
  /// clamped to the senders.
  std::optional<FlightTap> tap_bottleneck(const TelemetryConfig& telemetry,
                                          sim::TimePs until);
};

}  // namespace powertcp::harness
