#include "net/network.hpp"

#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>

#include "net/egress_port.hpp"

namespace powertcp::net {

Node* Network::adopt(std::unique_ptr<Node> node) {
  if (node->id() != next_node_id()) {
    throw std::invalid_argument("Network::adopt: node id mismatch");
  }
  if (&node->slab() != &slab_) {
    throw std::invalid_argument("Network::adopt: node built on another slab");
  }
  nodes_.push_back(std::move(node));
  return nodes_.back().get();
}

int Network::make_port_on(Node& n, sim::Bandwidth bw, sim::TimePs prop) {
  if (auto* sw = dynamic_cast<Switch*>(&n)) {
    return sw->add_port(bw, prop);
  }
  return n.attach_port(std::make_unique<FifoPort>(sim_, slab_, bw, prop));
}

Network::LinkPorts Network::connect(Node& a, sim::Bandwidth bw_ab, Node& b,
                                    sim::Bandwidth bw_ba, sim::TimePs prop) {
  const int pa = make_port_on(a, bw_ab, prop);
  const int pb = make_port_on(b, bw_ba, prop);
  a.port(pa).set_peer(&b, pb);
  b.port(pb).set_peer(&a, pa);
  edges_.push_back({a.id(), pa, b.id()});
  edges_.push_back({b.id(), pb, a.id()});
  return LinkPorts{pa, pb};
}

void Network::compute_routes() {
  const std::size_t n = nodes_.size();
  // Adjacency: per node, (port, peer) pairs.
  std::vector<std::vector<std::pair<int, NodeId>>> adj(n);
  for (const Edge& e : edges_) {
    adj[static_cast<std::size_t>(e.from)].push_back({e.port, e.to});
  }

  constexpr int kUnreached = std::numeric_limits<int>::max();
  std::vector<int> dist(n);
  for (std::size_t dst = 0; dst < n; ++dst) {
    // BFS from the destination (links are symmetric).
    dist.assign(n, kUnreached);
    dist[dst] = 0;
    std::deque<std::size_t> frontier{dst};
    while (!frontier.empty()) {
      const std::size_t u = frontier.front();
      frontier.pop_front();
      for (const auto& [port, v] : adj[u]) {
        const auto vi = static_cast<std::size_t>(v);
        if (dist[vi] == kUnreached) {
          dist[vi] = dist[u] + 1;
          frontier.push_back(vi);
        }
      }
    }
    // Install all equal-cost next hops on switches.
    for (std::size_t u = 0; u < n; ++u) {
      if (u == dst || dist[u] == kUnreached) continue;
      auto* sw = dynamic_cast<Switch*>(nodes_[u].get());
      if (sw == nullptr) continue;
      std::vector<int> next_hops;
      for (const auto& [port, v] : adj[u]) {
        if (dist[static_cast<std::size_t>(v)] == dist[u] - 1) {
          next_hops.push_back(port);
        }
      }
      if (!next_hops.empty()) {
        sw->set_routes(static_cast<NodeId>(dst), std::move(next_hops));
      }
    }
  }
}

}  // namespace powertcp::net
