/// Conservation and accounting invariants under randomized traffic:
/// every payload byte a receiver counts was sent exactly once (no
/// duplication of *new* data), switch byte counters balance, and the
/// shared buffer, every egress queue and the network's packet slab
/// return to empty when the network drains.

#include <gtest/gtest.h>

#include "cc/registry.hpp"
#include "net/egress_port.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"
#include "sim/rng.hpp"
#include "topo/dumbbell.hpp"
#include "topo/fat_tree.hpp"

namespace powertcp {
namespace {

/// A drained network is idle: no packet left in its slab (queued,
/// serializing or propagating) and every port idle and empty.
void expect_ports_drained(const net::Network& network) {
  EXPECT_EQ(network.parked_packets(), 0u);
  for (std::size_t id = 0; id < network.node_count(); ++id) {
    const net::Node& node = network.node(static_cast<net::NodeId>(id));
    for (int p = 0; p < node.port_count(); ++p) {
      const net::EgressPort& port = node.port(p);
      EXPECT_EQ(port.queue_bytes(), 0) << node.name() << " port " << p;
      EXPECT_FALSE(port.busy()) << node.name() << " port " << p;
    }
  }
}

TEST(Conservation, ReceiverCountsExactlyTheFlowBytes) {
  // Random flow sizes, all algorithms mixed on one bottleneck.
  sim::Simulator simulator;
  net::Network network(simulator);
  topo::DumbbellConfig cfg;
  cfg.n_senders = 6;
  topo::Dumbbell topo(network, cfg);
  cc::FlowParams params;
  params.host_bw = cfg.host_bw;
  params.base_rtt = topo.base_rtt();

  sim::Rng rng(99);
  std::unordered_map<net::FlowId, std::int64_t> sent, received;
  for (int i = 0; i < 6; ++i) {
    const auto id = static_cast<net::FlowId>(i + 1);
    const std::int64_t size = rng.uniform_int(1, 300'000);
    sent[id] = size;
    const auto& name =
        cc::sender_cc_names()[i % cc::sender_cc_names().size()];
    topo.sender(i).start_flow(id, topo.receiver().id(), size,
                              cc::make_factory(name)(params), params,
                              sim::microseconds(rng.uniform_int(0, 100)));
  }
  topo.receiver().set_data_callback(
      [&received](net::FlowId f, std::int64_t b, sim::TimePs) {
        received[f] += b;
      });
  simulator.run_until(sim::milliseconds(40));
  for (const auto& [id, size] : sent) {
    EXPECT_EQ(received[id], size) << "flow " << id;
  }
  expect_ports_drained(network);
}

TEST(Conservation, SharedBufferDrainsToZero) {
  sim::Simulator simulator;
  net::Network network(simulator);
  topo::FatTreeConfig cfg = topo::FatTreeConfig::quick();
  topo::FatTree fabric(network, cfg);
  cc::FlowParams params;
  params.host_bw = cfg.host_bw;
  params.base_rtt = fabric.max_base_rtt();

  sim::Rng rng(7);
  const auto factory = cc::make_factory("powertcp");
  for (int i = 0; i < 40; ++i) {
    const int src = static_cast<int>(rng.uniform_int(0, 63));
    int dst = static_cast<int>(rng.uniform_int(0, 63));
    if (dst == src) dst = (dst + 1) % 64;
    fabric.host(src).start_flow(
        static_cast<net::FlowId>(i + 1), fabric.host_node(dst),
        rng.uniform_int(1'000, 400'000), factory(params), params,
        sim::microseconds(rng.uniform_int(0, 500)));
  }
  simulator.run_until(sim::milliseconds(40));
  for (int t = 0; t < fabric.tor_count(); ++t) {
    EXPECT_EQ(fabric.tor(t).shared_buffer().used_bytes(), 0)
        << "tor " << t;
  }
  for (int a = 0; a < fabric.agg_count(); ++a) {
    EXPECT_EQ(fabric.agg(a).shared_buffer().used_bytes(), 0);
  }
  expect_ports_drained(network);
}

TEST(Conservation, PortWithoutPeerFreesItsSlotAtSerializationEnd) {
  // A packet stays in the slab until its receiver takes it; with no
  // peer to deliver to, the port must free the slot when serialization
  // ends instead of leaking it.
  sim::Simulator simulator;
  net::PacketPool slab;
  net::FifoPort port(simulator, slab, sim::Bandwidth::gbps(10),
                     sim::microseconds(1));
  net::Packet pkt;
  pkt.payload_bytes = 952;
  port.enqueue(slab.put(std::move(pkt)));
  EXPECT_TRUE(port.busy());
  EXPECT_EQ(slab.live(), 1u);
  simulator.run();
  EXPECT_FALSE(port.busy());
  EXPECT_EQ(slab.live(), 0u);
  EXPECT_EQ(port.tx_packets(), 1u);
  EXPECT_EQ(port.queue_bytes(), 0);
}

/// Drops every packet it is asked about.
class DropAllAqm final : public net::Aqm {
 public:
  net::AqmVerdict on_enqueue(std::int64_t, bool, sim::TimePs) override {
    return net::AqmVerdict{false, true};
  }
  const char* kind() const override { return "drop-all"; }
};

TEST(Conservation, DropsReleaseTheirSlabSlots) {
  // Whatever consumes a packet frees its slot: a buffer-admission drop,
  // an AQM drop and a switch with no route each leave the network's
  // live count where it was before the packet was written.
  sim::Simulator simulator;
  net::Network network(simulator);
  net::SwitchConfig cfg;
  cfg.buffer_bytes = 1'500;
  auto* sw = network.add_node<net::Switch>("sw", cfg);
  auto* a = network.add_node<net::Switch>("a", net::SwitchConfig{});
  auto* b = network.add_node<net::Switch>("b", net::SwitchConfig{});
  network.connect(*sw, *a, sim::Bandwidth::gbps(10), sim::microseconds(1));
  network.connect(*sw, *b, sim::Bandwidth::gbps(10), sim::microseconds(1));
  network.compute_routes();
  const auto packet_to = [&](net::NodeId dst) {
    net::Packet p;
    p.dst = dst;
    p.payload_bytes = 952;  // 1000 B on the wire
    return sw->slab().put(std::move(p));
  };

  // AQM: the buffer admits the packet, the policy drops it.
  net::EgressPort& to_b = sw->port(1);
  to_b.set_aqm(std::make_unique<DropAllAqm>());
  std::size_t before = network.parked_packets();
  EXPECT_FALSE(to_b.enqueue(packet_to(b->id())));
  EXPECT_EQ(to_b.drops(), 1u);
  EXPECT_EQ(network.parked_packets(), before);

  // DT admission: the first packet holds 1000 of the 1500 bytes while
  // it serializes, so a second does not fit.
  net::EgressPort& to_a = sw->port(0);
  ASSERT_TRUE(to_a.enqueue(packet_to(a->id())));
  before = network.parked_packets();
  EXPECT_FALSE(to_a.enqueue(packet_to(a->id())));
  EXPECT_EQ(to_a.drops(), 1u);
  EXPECT_EQ(network.parked_packets(), before);

  before = network.parked_packets();
  EXPECT_THROW(sw->receive(packet_to(99), 0), std::logic_error);
  EXPECT_EQ(network.parked_packets(), before);
}

TEST(Conservation, PortTxBytesMatchArrivalsPlusBacklog) {
  // On an uncongested path, the bottleneck's tx counter equals the
  // bytes that reached the receiver (wire bytes).
  sim::Simulator simulator;
  net::Network network(simulator);
  topo::DumbbellConfig cfg;
  cfg.n_senders = 1;
  topo::Dumbbell topo(network, cfg);
  cc::FlowParams params;
  params.host_bw = cfg.host_bw;
  params.base_rtt = topo.base_rtt();

  std::int64_t payload = 0;
  topo.receiver().set_data_callback(
      [&payload](net::FlowId, std::int64_t b, sim::TimePs) {
        payload += b;
      });
  topo.sender(0).start_flow(1, topo.receiver().id(), 500'000,
                            cc::make_factory("powertcp")(params), params,
                            0);
  simulator.run_until(sim::milliseconds(5));
  EXPECT_EQ(payload, 500'000);
  // 500 packets x 1048 B on the wire, no drops, nothing left queued.
  EXPECT_EQ(topo.bottleneck_port().tx_bytes(), 500 * 1048);
  EXPECT_EQ(topo.bottleneck_port().drops(), 0u);
  EXPECT_EQ(topo.bottleneck_port().queue_bytes(), 0);
}

TEST(MultiBottleneck, PowerTcpReactsToTheWorstHop) {
  // Chain: sender - sw1 -(25G)- sw2 -(10G)- receiver. The second hop
  // is the bottleneck; INT must steer the flow to ~10G with a small
  // queue at sw2 and none at sw1 (paper §3.5: INT reacts to the most
  // bottlenecked link).
  sim::Simulator simulator;
  net::Network network(simulator);
  auto* sw1 = network.add_node<net::Switch>("sw1", net::SwitchConfig{});
  auto* sw2 = network.add_node<net::Switch>("sw2", net::SwitchConfig{});
  auto* snd = network.add_node<host::Host>("snd");
  auto* rcv = network.add_node<host::Host>("rcv");
  network.connect(*snd, *sw1, sim::Bandwidth::gbps(25),
                  sim::microseconds(1));
  const auto mid = network.connect(*sw1, *sw2, sim::Bandwidth::gbps(25),
                                   sim::microseconds(1));
  const auto last = network.connect(*sw2, *rcv, sim::Bandwidth::gbps(10),
                                    sim::microseconds(1));
  network.compute_routes();

  cc::FlowParams params;
  params.host_bw = sim::Bandwidth::gbps(25);
  params.base_rtt = sim::microseconds(12);
  std::int64_t received = 0;
  rcv->set_data_callback(
      [&received](net::FlowId, std::int64_t b, sim::TimePs) {
        received += b;
      });
  snd->start_flow(1, rcv->id(), 1'000'000'000,
                  cc::make_factory("powertcp")(params), params, 0);
  simulator.run_until(sim::milliseconds(5));

  const double gbps = static_cast<double>(received) * 8.0 / 5e-3 / 1e9;
  EXPECT_GT(gbps, 0.8 * 9.5);   // fills the 10G bottleneck...
  EXPECT_LT(gbps, 10.0);        // ...but no more
  EXPECT_EQ(sw1->port(mid.a_port).drops(), 0u);
  EXPECT_EQ(sw2->port(last.a_port).drops(), 0u);
  // The first hop never congests.
  EXPECT_LT(sw1->port(mid.a_port).queue_bytes(), 3'000);
}

}  // namespace
}  // namespace powertcp
