#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cc/cc_algorithm.hpp"
#include "cc/params.hpp"
#include "net/egress_port.hpp"

/// \file registry.hpp
/// The scheme registry: one entry per congestion control scheme (plus
/// the receiver-driven HOMA transport), each carrying its factory, its
/// declared tunable parameters, and its *topology needs* — the fabric
/// features the scheme cannot run without (priority bands for HOMA, a
/// CircuitSchedule for reTCP, an ECN marking profile for DCQCN/DCTCP).
/// Harnesses and the `powertcp_run` config runner drive every scheme
/// through this table; no scheme is a string special-case anywhere
/// downstream.

namespace powertcp::net {
class CircuitSchedule;
}

namespace powertcp::cc {

/// Fabric features a scheme requires. The experiment harness applies
/// these to the topology before building it.
struct TopologyNeeds {
  /// Switch priority bands to configure (HOMA: 8; 0 = FIFO).
  int priority_bands = 0;
  /// Scheme receives explicit circuit-state feedback (reTCP): the
  /// factory throws unless SchemeTopology carries a CircuitSchedule.
  bool circuit_schedule = false;
  /// ECN marking profile (thresholds per Gbps, FatTreeConfig semantics);
  /// disabled for schemes that do not react to marks.
  net::EcnConfig ecn;
};

/// Topology-derived context handed to factories at construction time.
/// Plain window/rate schemes ignore it; reTCP needs all of it.
struct SchemeTopology {
  const net::CircuitSchedule* circuit = nullptr;
  double circuit_bw_bps = 0;
  double packet_bw_bps = 0;
};

/// Per-flow placement for factories whose algorithm is route-aware
/// (reTCP tracks its sender's (src ToR, dst ToR) circuit days).
struct FlowEndpoints {
  int src_tor = -1;
  int dst_tor = -1;
};

/// A per-flow algorithm factory bound to one (params, topology) pair.
using FlowCcFactory = std::function<std::unique_ptr<CcAlgorithm>(
    const FlowParams&, const FlowEndpoints&)>;

struct Scheme {
  std::string name;
  std::string summary;
  /// Declared `key=value` tunables (rendered by powertcp_run --schemes).
  std::vector<ParamSpec> params;
  TopologyNeeds needs;
  /// Receiver-driven message transport (HOMA): flows run through
  /// host::Host::enable_homa rather than a sender CcAlgorithm, so
  /// `make` is null.
  bool message_transport = false;
  /// Builds the flow factory. Throws std::invalid_argument on unknown
  /// parameter keys, unparseable values, or missing topology needs.
  std::function<FlowCcFactory(const ParamMap&, const SchemeTopology&)> make;
  /// Parses `params` as make() (or, for the message transport, the
  /// host) will, building nothing: throws ParamError for a value that
  /// does not parse, so a config loader can reject it at load.
  std::function<void(const ParamMap&)> check;
  /// Tuned defaults the workhorse fat-tree experiment injects for keys
  /// the config does not pin (e.g. PowerTCP's beta matched to HPCC's
  /// W_AI so the INT schemes hold comparable standing queues).
  std::function<void(const FlowParams&, ParamMap&)> experiment_defaults;
};

/// Name-based construction with default (paper §4.1) parameters and an
/// empty topology — the historical `factory.hpp` entry point, now a
/// thin wrapper over the registry. Throws std::invalid_argument for
/// unknown names, for message transports ("homa" is enabled via
/// host::Host::enable_homa), and for schemes with topology needs
/// ("retcp" needs the CircuitSchedule a SchemeTopology carries).
CcFactory make_factory(const std::string& name);

/// Sender algorithm names — excludes the message transport and
/// circuit-bound schemes, which need more than FlowParams to build.
const std::vector<std::string>& sender_cc_names();

class Registry {
 public:
  /// The process-wide table, built once (thread-safe magic static).
  static const Registry& instance();

  /// nullptr when `name` is not registered.
  const Scheme* find(const std::string& name) const;
  /// Throws std::invalid_argument listing the known names.
  const Scheme& at(const std::string& name) const;

  /// Registration order: the window/rate schemes of Fig. 1's taxonomy
  /// first, then reTCP, then the message transport.
  const std::vector<Scheme>& schemes() const { return schemes_; }
  std::vector<std::string> names() const;

 private:
  Registry();
  std::vector<Scheme> schemes_;
};

}  // namespace powertcp::cc
