#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/packet.hpp"

/// \file node.hpp
/// Base class for anything attached to the network graph: hosts,
/// shared-buffer switches, and the optical circuit switch.

namespace powertcp::net {

class EgressPort;

class Node {
 public:
  Node(NodeId id, std::string name);
  virtual ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Called when a packet has fully arrived (store-and-forward) on
  /// ingress `in_port` (the index of the local port whose peer sent it).
  virtual void receive(Packet&& pkt, int in_port) = 0;

  /// Takes ownership of an egress port; returns its index.
  int attach_port(std::unique_ptr<EgressPort> port);

  EgressPort& port(int i) { return *ports_.at(static_cast<std::size_t>(i)); }
  const EgressPort& port(int i) const {
    return *ports_.at(static_cast<std::size_t>(i));
  }
  int port_count() const { return static_cast<int>(ports_.size()); }

 private:
  NodeId id_;
  std::string name_;
  std::vector<std::unique_ptr<EgressPort>> ports_;
};

}  // namespace powertcp::net
