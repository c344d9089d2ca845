#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "net/node.hpp"
#include "net/shard_link.hpp"
#include "net/switch_node.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

/// \file network.hpp
/// Owns all nodes of a simulated network, wires full-duplex links, and
/// computes shortest-path ECMP routes (all equal-cost next hops) with a
/// per-destination BFS over the link graph.
///
/// A Network can be bound either to one Simulator (the classic,
/// sequential mode) or to a ShardedSimulator plus a node->shard map: in
/// the latter case every node and its ports live on the event queue of
/// their assigned shard, and connect() transparently installs
/// cross-shard ShardChannels on links whose endpoints sit on different
/// shards. Topology builders stay unchanged — they call add_node /
/// connect exactly as before.
///
/// The Network also owns the packet slab (net/packet_pool.hpp) every
/// node and port of it keeps its packets in: one in sequential mode,
/// one per shard in partitioned mode, where a packet crossing the cut
/// is copied into the destination shard's slab at ingest.

namespace powertcp::net {

class Network {
 public:
  explicit Network(sim::Simulator& simulator) : sim_(simulator), slabs_(1) {}

  /// Partitioned mode: node i (by construction order) lives on shard
  /// `node_shard[i]` of `engine`. The map must cover every node the
  /// builder will add; connect() registers each cross-shard link's
  /// directions as the engine's cut edges.
  Network(sim::ShardedSimulator& engine, std::vector<int> node_shard)
      : sim_(engine.shard(0)),
        engine_(&engine),
        node_shard_(std::move(node_shard)),
        slabs_(static_cast<std::size_t>(engine.shard_count())) {
    if (engine.shard_count() > 1) {
      router_ = std::make_unique<ShardRouter>(engine, slabs_);
    }
  }

  /// The shard owning node `id` (0 in sequential mode).
  int shard_of(NodeId id) const {
    if (engine_ == nullptr || engine_->shard_count() == 1) return 0;
    return node_shard_.at(static_cast<std::size_t>(id));
  }

  /// The event queue node `id` runs on.
  sim::Simulator& sim_of(NodeId id) {
    return engine_ != nullptr ? engine_->shard(shard_of(id)) : sim_;
  }

  /// The packet slab node `id`'s packets live in.
  PacketPool& slab_of(NodeId id) {
    return slabs_[static_cast<std::size_t>(shard_of(id))];
  }

  /// Packets alive in this network's slabs: queued, serializing or
  /// propagating. Zero once the network drains.
  std::size_t parked_packets() const;

  /// Constructs a node in place; the owning simulator, the slab and the
  /// NodeId are injected as the first three constructor arguments (the
  /// owning shard's simulator and slab in partitioned mode).
  template <typename T, typename... Args>
  T* add_node(Args&&... args) {
    const NodeId id = static_cast<NodeId>(nodes_.size());
    auto owned = std::make_unique<T>(sim_of(id), slab_of(id), id,
                                     std::forward<Args>(args)...);
    T* raw = owned.get();
    nodes_.push_back(std::move(owned));
    return raw;
  }

  /// Takes ownership of an externally constructed node. Its id() must
  /// equal next_node_id() at the time of the call, and it must have
  /// been built on slab_of(id()).
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
  /// peered) so route computation sees it. In partitioned mode this
  /// also installs cross-shard channels if the endpoints' shards
  /// differ, exactly as connect() does.
  void register_link(Node& a, int a_port, Node& b, int b_port) {
    edges_.push_back({a.id(), a_port, b.id()});
    edges_.push_back({b.id(), b_port, a.id()});
    link_shards(a, a_port, b, b_port);
  }

  /// Fills every Switch's ECMP tables with all shortest-path next hops
  /// toward every node. Must be called after all connect()s.
  void compute_routes();

  Node& node(NodeId id) { return *nodes_.at(static_cast<std::size_t>(id)); }
  const Node& node(NodeId id) const {
    return *nodes_.at(static_cast<std::size_t>(id));
  }
  std::size_t node_count() const { return nodes_.size(); }

  /// Shard 0's event queue in partitioned mode.
  sim::Simulator& simulator() { return sim_; }
  /// The partitioned engine, or nullptr in sequential mode.
  sim::ShardedSimulator* engine() { return engine_; }
  /// Cross-shard channel registry (tests); nullptr unless partitioned
  /// across more than one shard.
  const ShardRouter* router() const { return router_.get(); }

 private:
  int make_port_on(Node& n, sim::Bandwidth bw, sim::TimePs prop);
  /// Installs remote channels on both ports if a and b live on
  /// different shards (no-op otherwise).
  void link_shards(Node& a, int a_port, Node& b, int b_port);

  sim::Simulator& sim_;
  sim::ShardedSimulator* engine_ = nullptr;
  std::vector<int> node_shard_;
  /// One per shard; sized once, so references to them stay valid.
  std::vector<PacketPool> slabs_;
  std::unique_ptr<ShardRouter> router_;
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
