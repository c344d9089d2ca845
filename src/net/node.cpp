#include "net/node.hpp"

#include <stdexcept>

#include "net/egress_port.hpp"

namespace powertcp::net {

Node::Node(PacketPool& slab, NodeId id, std::string name)
    : slab_(slab), id_(id), name_(std::move(name)) {}

Node::~Node() = default;

int Node::attach_port(std::unique_ptr<EgressPort> port) {
  const int index = static_cast<int>(ports_.size());
  // Tie token: a nonzero per-port identifier that is a pure function of
  // the topology's construction order. Packet deliveries carry it in the
  // event key (sim::EventEntry::tie), which totally orders
  // same-(time, sched) delivery ties without consulting the global
  // scheduling chronology. 9 bits of port index, the rest node id.
  if (index >= kMaxPortsPerNode || id_ < 0 || id_ >= kMaxNodes) {
    throw std::logic_error(
        "Node::attach_port: node id / port index out of tie-token range");
  }
  port->set_tie_token((static_cast<std::uint32_t>(id_) << 9) |
                      static_cast<std::uint32_t>(index + 1));
  ports_.push_back(std::move(port));
  return index;
}

}  // namespace powertcp::net
