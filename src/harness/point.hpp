#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cc/registry.hpp"
#include "harness/scenarios.hpp"
#include "host/flow.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "topo/dumbbell.hpp"
#include "topo/fat_tree.hpp"
#include "topo/rdcn.hpp"

/// \file point.hpp
/// One builder per topology the paper runs every scheme on: FatTreePoint
/// (Figs. 4, 6, 7), DumbbellPoint (Fig. 5, Appendix D, mixed_cc) and
/// RdcnPoint (Fig. 8) build the engine, network and fabric (with the
/// schemes' cc::TopologyNeeds) and fill cc::FlowParams. Traffic starts
/// through Point::start, the one place a point starts a flow and
/// chooses between the Homa message transport and sender congestion
/// control; Point::tap is the one place it arms a flight recorder.

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

/// What every builder shares: the engine, the network, the hosts, the
/// flow parameters, the tap.
class Point {
 public:
  Point() = default;
  Point(const Point&) = delete;  // callbacks and taps hold its hosts
  Point& operator=(const Point&) = delete;

  sim::Simulator sim;
  net::Network network{sim};
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

  /// tap() on `port` plus flow `telemetry.flow` clamped to `senders`,
  /// where flow i is host i-1's (the dumbbell's and rdcn's numbering).
  std::optional<FlightTap> tap_sender_flow(const TelemetryConfig& telemetry,
                                           net::EgressPort& port, int senders,
                                           sim::TimePs until);

 protected:
  struct Endpoint {
    host::Host* host;
    int tor;  ///< for route-aware factories; -1 on the dumbbell
  };
  std::vector<Endpoint> hosts_;
  /// What the fabric hands every scheme factory (rdcn: its circuit).
  cc::SchemeTopology scheme_topology_;

 private:
  bool messages_ = false;
};

/// A fat tree.
class FatTreePoint final : public Point {
 public:
  FatTreePoint(const topo::FatTreeConfig& topo,
               const cc::TopologyNeeds& needs, int expected_flows);

  topo::FatTree fabric;
};

/// A dumbbell.
class DumbbellPoint final : public Point {
 public:
  DumbbellPoint(const topo::DumbbellConfig& topo,
                const cc::TopologyNeeds& needs, int expected_flows);

  topo::Dumbbell fabric;

  /// The receiver's host index, after the senders'.
  int receiver() const { return static_cast<int>(hosts_.size()) - 1; }
};

/// The reconfigurable fabric, whose schemes get its circuit schedule.
/// It marks no packets and has no priority bands, so it throws
/// std::invalid_argument for a scheme that needs either (DCQCN, DCTCP,
/// the Homa message transport).
class RdcnPoint final : public Point {
 public:
  RdcnPoint(const topo::RdcnConfig& topo, const cc::TopologyNeeds& needs,
            int expected_flows);

  /// Why the fabric cannot serve `needs` ("which needs ..."), or "".
  static std::string unmet(const cc::TopologyNeeds& needs);

  topo::Rdcn fabric;
};

}  // namespace powertcp::harness
