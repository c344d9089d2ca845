#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/dt_buffer.hpp"
#include "net/egress_port.hpp"
#include "net/node.hpp"

/// \file switch_node.hpp
/// Shared-memory output-queued switch: Dynamic Thresholds buffer
/// management across all ports (§4.1), optional RED/ECN marking, INT
/// stamping, and ECMP next-hop selection by flow hash.

namespace powertcp::net {

struct SwitchConfig {
  /// Total shared packet buffer. The paper sizes buffers "proportional
  /// to the bandwidth-buffer ratio of Intel Tofino" — the topo builders
  /// compute ~10 KB per Gbps of aggregate port capacity.
  std::int64_t buffer_bytes = 4'000'000;
  double dt_alpha = 1.0;
  /// Default marking profile applied to every port (thresholds are
  /// absolute bytes; builders scale them per port speed if desired).
  EcnConfig ecn;
  /// Interpret ecn.kmin/kmax as bytes *per Gbps* of port speed, the
  /// usual practice of scaling marking thresholds with line rate.
  bool ecn_per_gbps = false;
  /// Which AQM variant each port runs and its tunables. The default
  /// ("red") reuses `ecn` above and is byte-identical to the historical
  /// fused marking; "pie" runs a delay-based probabilistic policy and
  /// is installed even when `ecn.enabled` is false (it drops).
  AqmSpec aqm;
  bool int_enabled = true;
  /// 0 = FIFO ports; >0 = strict-priority ports with this many bands
  /// (the HOMA configuration).
  int priority_bands = 0;
};

class Switch : public Node {
 public:
  Switch(sim::Simulator& simulator, PacketPool& slab, NodeId id,
         std::string name, SwitchConfig cfg);

  /// Creates an egress port (FIFO or priority per config) wired to
  /// nothing yet; returns the port index.
  int add_port(sim::Bandwidth bw, sim::TimePs propagation);

  /// Registers the ECMP next-hop port set toward destination `dst`.
  /// Throws std::invalid_argument for an empty set or a `dst` outside
  /// [0, kMaxNodes).
  void set_routes(NodeId dst, std::vector<int> ports);
  /// The next-hop set toward `dst`, or nullptr if none is registered.
  const std::vector<int>* routes_to(NodeId dst) const {
    const auto i = static_cast<std::size_t>(dst);
    // A negative id wraps to a huge index, so one bound check covers it.
    if (i >= routes_.size() || routes_[i].empty()) return nullptr;
    return &routes_[i];
  }

  /// Forwards `h` to its ECMP next hop. Throws std::logic_error, after
  /// releasing `h`, if no route to the packet's destination exists.
  void receive(PacketPool::Handle h, int in_port) override;

  DtSharedBuffer& shared_buffer() { return buffer_; }
  const SwitchConfig& config() const { return cfg_; }

  /// Total packets dropped by buffer admission across all ports.
  std::uint64_t total_drops() const;

 protected:
  /// Deterministic ECMP pick: hash of (flow, switch id) over `n`.
  std::size_t ecmp_index(FlowId flow, std::size_t n) const;

 private:
  sim::Simulator& sim_;
  SwitchConfig cfg_;
  DtSharedBuffer buffer_;
  /// Next-hop port sets indexed by destination node id (ids are dense:
  /// Network assigns them in creation order). An empty set = no route.
  std::vector<std::vector<int>> routes_;
};

}  // namespace powertcp::net
