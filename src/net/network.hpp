#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "net/node.hpp"
#include "net/packet_pool.hpp"
#include "net/switch_node.hpp"
#include "sim/simulator.hpp"

/// \file network.hpp
/// Owns all nodes of a simulated network, wires full-duplex links, and
/// computes shortest-path ECMP routes (all equal-cost next hops) with a
/// per-destination BFS over the link graph.
///
/// The Network also owns the packet slab (net/packet_pool.hpp) every
/// node and port of it keeps its packets in.

namespace powertcp::net {

class Network {
 public:
  explicit Network(sim::Simulator& simulator) : sim_(simulator) {}

  /// The packet slab every node of this network keeps its packets in.
  PacketPool& slab() { return slab_; }

  /// Packets alive in this network's slab: queued, serializing or
  /// propagating. Zero once the network drains.
  std::size_t parked_packets() const { return slab_.live(); }

  /// Constructs a node in place; the simulator, the slab and the
  /// NodeId are injected as the first three constructor arguments.
  template <typename T, typename... Args>
  T* add_node(Args&&... args) {
    const NodeId id = static_cast<NodeId>(nodes_.size());
    auto n = std::make_unique<T>(sim_, slab_, id, std::forward<Args>(args)...);
    T* raw = n.get();
    nodes_.push_back(std::move(n));
    return raw;
  }

  /// Takes ownership of an externally constructed node. Its id() must
  /// equal next_node_id() at the time of the call, and it must have
  /// been built on slab().
  Node* adopt(std::unique_ptr<Node> node);
  NodeId next_node_id() const { return static_cast<NodeId>(nodes_.size()); }

  /// Wires a full-duplex link, creating one egress port on each side.
  /// Switch sides get ports via Switch::add_port (shared buffer, ECN,
  /// INT per the switch config); other nodes get plain FIFO ports.
  struct LinkPorts {
    int a_port;
    int b_port;
  };
  LinkPorts connect(Node& a, Node& b, sim::Bandwidth bw, sim::TimePs prop) {
    return connect(a, bw, b, bw, prop);
  }
  LinkPorts connect(Node& a, sim::Bandwidth bw_ab, Node& b,
                    sim::Bandwidth bw_ba, sim::TimePs prop);

  /// Records an externally wired link (ports already created and
  /// peered) so route computation sees it.
  void register_link(Node& a, int a_port, Node& b, int b_port) {
    edges_.push_back({a.id(), a_port, b.id()});
    edges_.push_back({b.id(), b_port, a.id()});
  }

  /// Fills every Switch's ECMP tables with all shortest-path next hops
  /// toward every node. Must be called after all connect()s.
  void compute_routes();

  Node& node(NodeId id) { return *nodes_.at(static_cast<std::size_t>(id)); }
  const Node& node(NodeId id) const {
    return *nodes_.at(static_cast<std::size_t>(id));
  }
  std::size_t node_count() const { return nodes_.size(); }

  /// The simulator every node runs on.
  sim::Simulator& simulator() { return sim_; }

 private:
  int make_port_on(Node& n, sim::Bandwidth bw, sim::TimePs prop);

  sim::Simulator& sim_;
  PacketPool slab_;
  std::vector<std::unique_ptr<Node>> nodes_;
  /// (node, port) -> peer node, for route computation.
  struct Edge {
    NodeId from;
    int port;
    NodeId to;
  };
  std::vector<Edge> edges_;
};

}  // namespace powertcp::net
