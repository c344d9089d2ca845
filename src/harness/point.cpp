#include "harness/point.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "host/homa.hpp"

namespace powertcp::harness {

namespace {

/// `topo` with the fabric features the schemes need.
template <typename TopoConfig>
TopoConfig with_needs(TopoConfig topo, const cc::TopologyNeeds& needs) {
  topo.ecn = needs.ecn;
  topo.priority_bands = needs.priority_bands;
  return topo;
}

const topo::RdcnConfig& servable(const topo::RdcnConfig& topo,
                                 const cc::TopologyNeeds& needs) {
  const std::string why = RdcnPoint::unmet(needs);
  if (!why.empty()) throw std::invalid_argument("RdcnPoint: a scheme " + why);
  return topo;
}

}  // namespace

void Point::start(const std::vector<SchemeRun>& runs,
                  const std::vector<FlowStart>& flows, const FlowDone* done) {
  const cc::Registry& registry = cc::Registry::instance();
  messages_ = registry.at(runs.front().scheme).message_transport;
  if (messages_) {
    const host::HomaConfig hc =
        host::homa_config_from_params(runs.front().params, params);
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
      host::HomaTransport& homa = hosts_[h].host->enable_homa(hc);
      if (done == nullptr) continue;
      homa.set_message_callback(
          [done, h = static_cast<int>(h)](const host::MessageCompletion& m) {
            (*done)(h, host::FlowCompletion{m.message, m.size_bytes, m.start,
                                            m.finish});
          });
    }
    for (const FlowStart& f : flows) {
      host::Host& src = *hosts_[static_cast<std::size_t>(f.src)].host;
      const net::NodeId dst =
          hosts_[static_cast<std::size_t>(f.dst)].host->id();
      src.simulator().schedule_at(f.at, [&src, id = f.id, dst, size = f.bytes] {
        src.homa()->send_message(id, dst, size);
      });
    }
    return;
  }
  std::vector<cc::FlowCcFactory> factories;
  factories.reserve(runs.size());
  for (const SchemeRun& run : runs) {
    factories.push_back(
        registry.at(run.scheme).make(run.params, scheme_topology_));
  }
  for (const FlowStart& f : flows) {
    const Endpoint& src = hosts_[static_cast<std::size_t>(f.src)];
    const Endpoint& dst = hosts_[static_cast<std::size_t>(f.dst)];
    host::CompletionCallback on_complete;
    if (done != nullptr) {
      // Completion is detected at the sender (final ack).
      on_complete = [done, h = f.src](const host::FlowCompletion& c) {
        (*done)(h, c);
      };
    }
    src.host->start_flow(
        f.id, dst.host->id(), f.bytes,
        factories[f.run](params, cc::FlowEndpoints{src.tor, dst.tor}), params,
        f.at, std::move(on_complete));
  }
}

std::optional<FlightTap> Point::tap(const TelemetryConfig& telemetry,
                                    net::EgressPort& port, int flow_host,
                                    std::int64_t flow, sim::TimePs until) {
  if (!telemetry.enabled) return std::nullopt;
  host::Host* h = messages_ || flow_host < 0
                      ? nullptr
                      : hosts_[static_cast<std::size_t>(flow_host)].host;
  return std::optional<FlightTap>(std::in_place, telemetry, sim, port, h,
                                  flow, params.base_rtt, until);
}

std::optional<FlightTap> Point::tap_sender_flow(
    const TelemetryConfig& telemetry, net::EgressPort& port, int senders,
    sim::TimePs until) {
  const auto idx =
      static_cast<int>(std::min<std::int64_t>(telemetry.flow, senders));
  return tap(telemetry, port, idx - 1, idx, until);
}

FatTreePoint::FatTreePoint(const topo::FatTreeConfig& topo,
                           const cc::TopologyNeeds& needs, int expected_flows)
    : fabric(network, with_needs(topo, needs)) {
  for (int h = 0; h < fabric.host_count(); ++h) {
    hosts_.push_back({&fabric.host(h), fabric.tor_of_host(h)});
  }
  params.host_bw = topo.host_bw;
  params.base_rtt = fabric.max_base_rtt();
  params.expected_flows = expected_flows;
}

DumbbellPoint::DumbbellPoint(const topo::DumbbellConfig& topo,
                             const cc::TopologyNeeds& needs,
                             int expected_flows)
    : fabric(network, with_needs(topo, needs)) {
  for (int i = 0; i < topo.n_senders; ++i) {
    hosts_.push_back({&fabric.sender(i), -1});
  }
  hosts_.push_back({&fabric.receiver(), -1});
  params.host_bw = topo.host_bw;
  params.base_rtt = fabric.base_rtt();
  params.expected_flows = expected_flows;
}

RdcnPoint::RdcnPoint(const topo::RdcnConfig& topo,
                     const cc::TopologyNeeds& needs, int expected_flows)
    : fabric(network, servable(topo, needs)) {
  for (int h = 0; h < fabric.host_count(); ++h) {
    hosts_.push_back({&fabric.host(h), fabric.tor_of_host(h)});
  }
  scheme_topology_ = {&fabric.schedule(), topo.circuit_bw.bps(),
                      topo.packet_bw.bps()};
  params.host_bw = topo.host_bw;
  params.base_rtt = fabric.max_base_rtt();
  params.expected_flows = expected_flows;
}

std::string RdcnPoint::unmet(const cc::TopologyNeeds& needs) {
  if (needs.priority_bands > 0) {
    return "which needs switch priority bands; the RDCN fabric has none";
  }
  if (needs.ecn.enabled) {
    return "which reacts to ECN marks; the RDCN fabric marks no packets";
  }
  return "";
}

}  // namespace powertcp::harness
