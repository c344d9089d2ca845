#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"

/// \file node.hpp
/// Base class for anything attached to the network graph: hosts,
/// shared-buffer switches, and the optical circuit switch.

namespace powertcp::net {

class EgressPort;

/// The tie-token range (see Node::attach_port): a node has at most
/// kMaxPortsPerNode ports and a network at most kMaxNodes nodes.
inline constexpr int kMaxPortsPerNode = 511;
inline constexpr int kMaxNodes = 1 << 22;

class Node {
 public:
  /// `slab` is the network's packet slab (see Network::add_node): the
  /// handles this node receives redeem there, and its ports queue there.
  Node(PacketPool& slab, NodeId id, std::string name);
  virtual ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Called when the slab packet `h` has fully arrived
  /// (store-and-forward) on ingress `in_port` (the index of the local
  /// port whose peer sent it). The node takes over the handle: it
  /// forwards it or releases it, also when it throws.
  virtual void receive(PacketPool::Handle h, int in_port) = 0;

  PacketPool& slab() { return slab_; }

  /// Takes ownership of an egress port; returns its index. Throws
  /// std::logic_error outside the tie-token range.
  int attach_port(std::unique_ptr<EgressPort> port);

  EgressPort& port(int i) { return *ports_.at(static_cast<std::size_t>(i)); }
  const EgressPort& port(int i) const {
    return *ports_.at(static_cast<std::size_t>(i));
  }
  int port_count() const { return static_cast<int>(ports_.size()); }

 private:
  PacketPool& slab_;
  NodeId id_;
  std::string name_;
  std::vector<std::unique_ptr<EgressPort>> ports_;
};

}  // namespace powertcp::net
