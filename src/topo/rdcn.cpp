#include "topo/rdcn.hpp"

#include <stdexcept>
#include <string>

namespace powertcp::topo {

RdcnConfig RdcnConfig::small() {
  RdcnConfig cfg;
  cfg.n_tors = 4;
  cfg.servers_per_tor = 2;
  return cfg;
}

RdcnTor::RdcnTor(sim::Simulator& simulator, net::PacketPool& slab,
                 net::NodeId id, std::string name, int tor_index,
                 std::int64_t buffer_bytes, double dt_alpha)
    : net::Node(slab, id, std::move(name)),
      sim_(simulator),
      tor_index_(tor_index),
      buffer_(buffer_bytes, dt_alpha) {}

void RdcnTor::add_local_host(net::NodeId host, int down_port) {
  local_hosts_[host] = down_port;
}

void RdcnTor::init_voqs(int n_tors, std::function<int(net::NodeId)> classify) {
  voqs_ = std::make_unique<net::VoqSet>(slab(), n_tors, std::move(classify));
}

void RdcnTor::receive(net::PacketPool::Handle h, int /*in_port*/) {
  const auto it = local_hosts_.find(slab().get(h).dst);
  if (it != local_hosts_.end()) {
    port(it->second).enqueue(h);
    return;
  }
  if (circuit_port_ < 0 || uplink_port_ < 0) {
    slab().release(h);
    throw std::logic_error("RdcnTor '" + name() + "': uplinks not wired");
  }
  // All inter-rack traffic lands in the shared VOQ set via the circuit
  // port (the VoqSet entry point); the packet uplink drains the same
  // set, so wake it too.
  port(circuit_port_).enqueue(h);
  port(uplink_port_).kick();
}

Rdcn::Rdcn(net::Network& network, const RdcnConfig& cfg)
    : net_(network), cfg_(cfg) {
  schedule_ = std::make_unique<net::CircuitSchedule>(cfg_.n_tors, cfg_.day,
                                                     cfg_.night);

  // Packet-switched core connecting all ToRs.
  net::SwitchConfig core_cfg;
  core_cfg.buffer_bytes = static_cast<std::int64_t>(
      cfg_.n_tors * cfg_.packet_bw.gbps_value() * 10'000.0);
  core_cfg.int_enabled = cfg_.int_enabled;
  packet_core_ = net_.add_node<net::Switch>("pktcore", core_cfg);

  // ToRs and hosts.
  for (int t = 0; t < cfg_.n_tors; ++t) {
    RdcnTor* tor = net_.add_node<RdcnTor>("rtor" + std::to_string(t), t,
                                          cfg_.tor_buffer_bytes,
                                          cfg_.dt_alpha);
    tors_.push_back(tor);
    for (int s = 0; s < cfg_.servers_per_tor; ++s) {
      const int h = t * cfg_.servers_per_tor + s;
      host::Host* host = net_.add_node<host::Host>("rh" + std::to_string(h));
      hosts_.push_back(host);
      const auto link =
          net_.connect(*tor, *host, cfg_.host_bw, cfg_.host_link_delay);
      tor->add_local_host(host->id(), link.a_port);
      host_tor_[host->id()] = t;
      // Host-facing ToR ports join the shared buffer and stamp INT
      // (they are real contention points under fan-in).
      tor->port(link.a_port).set_shared_buffer(&tor->buffer());
      tor->port(link.a_port).set_int_enabled(cfg_.int_enabled);
    }
  }

  const auto tor_of_node_fn = [this](net::NodeId dst) {
    return tor_of_node(dst);
  };

  // Circuit switch.
  circuit_ = net_.add_node<net::CircuitSwitchNode>("optical", schedule_.get(),
                                                   tor_of_node_fn);

  for (int t = 0; t < cfg_.n_tors; ++t) {
    RdcnTor* tor = tors_[static_cast<std::size_t>(t)];
    tor->init_voqs(cfg_.n_tors, tor_of_node_fn);

    // Circuit uplink: ToR -> optical switch.
    auto cport = std::make_unique<net::CircuitPort>(
        net_.simulator(), tor->slab(), cfg_.circuit_bw,
        cfg_.fabric_link_delay, &tor->voqs(), schedule_.get(), t);
    cport->set_shared_buffer(&tor->buffer());
    cport->set_int_enabled(cfg_.int_enabled);
    cport->set_peer(circuit_, /*peer_in_port=*/t);
    const int cidx = tor->attach_port(std::move(cport));
    tor->set_circuit_port(cidx);
    circuit_->attach_tor(t, tor, /*tor_in_port=*/cidx,
                         cfg_.fabric_link_delay);

    // Packet uplink: ToR -> packet core (and a core port back).
    auto uport = std::make_unique<net::VoqUplinkPort>(
        net_.simulator(), tor->slab(), cfg_.packet_bw,
        cfg_.fabric_link_delay, &tor->voqs(), schedule_.get(), t);
    uport->set_shared_buffer(&tor->buffer());
    uport->set_int_enabled(cfg_.int_enabled);
    const int uidx = tor->attach_port(std::move(uport));
    tor->set_uplink_port(uidx);
    const int core_port =
        packet_core_->add_port(cfg_.packet_bw, cfg_.fabric_link_delay);
    tor->port(uidx).set_peer(packet_core_, core_port);
    packet_core_->port(core_port).set_peer(tor, uidx);
    net_.register_link(*tor, uidx, *packet_core_, core_port);
  }

  net_.compute_routes();
}

int Rdcn::tor_of_node(net::NodeId id) const {
  const auto it = host_tor_.find(id);
  if (it == host_tor_.end()) {
    throw std::logic_error("Rdcn: node is not a host");
  }
  return it->second;
}

sim::TimePs Rdcn::max_base_rtt(std::int32_t mss) const {
  // Packet plane: host - ToR - core - ToR - host.
  const std::int64_t data_bytes = mss + net::kHeaderBytes;
  const sim::TimePs prop =
      2 * (2 * cfg_.host_link_delay + 2 * cfg_.fabric_link_delay);
  const sim::TimePs data_ser = cfg_.host_bw.tx_time(data_bytes) +
                               3 * cfg_.packet_bw.tx_time(data_bytes);
  const sim::TimePs ack_ser =
      cfg_.host_bw.tx_time(net::kHeaderBytes) +
      3 * cfg_.packet_bw.tx_time(net::kHeaderBytes);
  return prop + data_ser + ack_ser;
}

}  // namespace powertcp::topo
