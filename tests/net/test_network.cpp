#include "net/network.hpp"

#include <gtest/gtest.h>

#include "net/switch_node.hpp"

namespace powertcp::net {
namespace {

class LeafNode final : public Node {
 public:
  LeafNode(sim::Simulator&, PacketPool& slab, NodeId id, std::string name)
      : Node(slab, id, std::move(name)) {}
  void receive(PacketPool::Handle h, int) override {
    ++count;
    last = slab().get(h);
    slab().release(h);
  }
  int count = 0;
  Packet last;
};

struct NetworkFixture : ::testing::Test {
  sim::Simulator simulator;
  Network network{simulator};
};

TEST_F(NetworkFixture, AssignsSequentialNodeIds) {
  auto* a = network.add_node<LeafNode>("a");
  auto* b = network.add_node<LeafNode>("b");
  EXPECT_EQ(a->id(), 0);
  EXPECT_EQ(b->id(), 1);
  EXPECT_EQ(network.node_count(), 2u);
  EXPECT_EQ(&network.node(0), a);
}

TEST_F(NetworkFixture, ConnectCreatesPeeredPortsBothWays) {
  auto* a = network.add_node<LeafNode>("a");
  auto* b = network.add_node<LeafNode>("b");
  const auto link = network.connect(*a, *b, sim::Bandwidth::gbps(10),
                                    sim::microseconds(1));
  EXPECT_EQ(a->port(link.a_port).peer(), b);
  EXPECT_EQ(b->port(link.b_port).peer(), a);
  EXPECT_EQ(a->port(link.a_port).peer_in_port(), link.b_port);
}

TEST_F(NetworkFixture, AsymmetricBandwidths) {
  auto* a = network.add_node<LeafNode>("a");
  auto* b = network.add_node<LeafNode>("b");
  const auto link = network.connect(*a, sim::Bandwidth::gbps(100), *b,
                                    sim::Bandwidth::gbps(25), 0);
  EXPECT_EQ(a->port(link.a_port).bandwidth(), sim::Bandwidth::gbps(100));
  EXPECT_EQ(b->port(link.b_port).bandwidth(), sim::Bandwidth::gbps(25));
}

TEST_F(NetworkFixture, BfsRoutesLinearChain) {
  // a -- s1 -- s2 -- b : every switch must know both directions.
  auto* a = network.add_node<LeafNode>("a");
  auto* s1 = network.add_node<Switch>("s1", SwitchConfig{});
  auto* s2 = network.add_node<Switch>("s2", SwitchConfig{});
  auto* b = network.add_node<LeafNode>("b");
  network.connect(*a, *s1, sim::Bandwidth::gbps(10), 0);
  network.connect(*s1, *s2, sim::Bandwidth::gbps(10), 0);
  network.connect(*s2, *b, sim::Bandwidth::gbps(10), 0);
  network.compute_routes();

  Packet p;
  p.dst = b->id();
  p.payload_bytes = 100;
  s1->receive(s1->slab().put(std::move(p)), 0);
  simulator.run();
  EXPECT_EQ(b->count, 1);

  Packet q;
  q.dst = a->id();
  q.payload_bytes = 100;
  s2->receive(s2->slab().put(std::move(q)), 0);
  simulator.run();
  EXPECT_EQ(a->count, 1);
}

TEST_F(NetworkFixture, BfsInstallsAllEqualCostNextHops) {
  // Diamond: s0 -> {s1, s2} -> s3 -> leaf. s0 must hold two next hops.
  auto* s0 = network.add_node<Switch>("s0", SwitchConfig{});
  auto* s1 = network.add_node<Switch>("s1", SwitchConfig{});
  auto* s2 = network.add_node<Switch>("s2", SwitchConfig{});
  auto* s3 = network.add_node<Switch>("s3", SwitchConfig{});
  auto* leaf = network.add_node<LeafNode>("leaf");
  network.connect(*s0, *s1, sim::Bandwidth::gbps(10), 0);
  network.connect(*s0, *s2, sim::Bandwidth::gbps(10), 0);
  network.connect(*s1, *s3, sim::Bandwidth::gbps(10), 0);
  network.connect(*s2, *s3, sim::Bandwidth::gbps(10), 0);
  network.connect(*s3, *leaf, sim::Bandwidth::gbps(10), 0);
  network.compute_routes();

  const auto* routes = s0->routes_to(leaf->id());
  ASSERT_NE(routes, nullptr);
  EXPECT_EQ(routes->size(), 2u);
  // The longer path via s3 back up never appears at s1.
  const auto* s1_routes = s1->routes_to(leaf->id());
  ASSERT_NE(s1_routes, nullptr);
  EXPECT_EQ(s1_routes->size(), 1u);
}

TEST_F(NetworkFixture, RegisterLinkFeedsRouteComputation) {
  auto* sw = network.add_node<Switch>("sw", SwitchConfig{});
  auto* leaf = network.add_node<LeafNode>("leaf");
  // Wire manually instead of via connect().
  const int sp = sw->add_port(sim::Bandwidth::gbps(10), 0);
  auto port = std::make_unique<BasicPort>(
      simulator, leaf->slab(), sim::Bandwidth::gbps(10), 0,
      std::make_unique<FifoQueue>(leaf->slab()));
  const int lp = leaf->attach_port(std::move(port));
  sw->port(sp).set_peer(leaf, lp);
  leaf->port(lp).set_peer(sw, sp);
  network.register_link(*sw, sp, *leaf, lp);
  network.compute_routes();
  ASSERT_NE(sw->routes_to(leaf->id()), nullptr);
}

TEST_F(NetworkFixture, AdoptRejectsWrongId) {
  auto node =
      std::make_unique<LeafNode>(simulator, network.slab(), /*id=*/5, "x");
  EXPECT_THROW(network.adopt(std::move(node)), std::invalid_argument);
  // The right id on a slab of its own would strand its packets.
  PacketPool foreign;
  auto stray = std::make_unique<LeafNode>(simulator, foreign, /*id=*/0, "y");
  EXPECT_THROW(network.adopt(std::move(stray)), std::invalid_argument);
  auto own =
      std::make_unique<LeafNode>(simulator, network.slab(), /*id=*/0, "z");
  EXPECT_NO_THROW(network.adopt(std::move(own)));
}

TEST_F(NetworkFixture, EndToEndDeliveryThroughTwoSwitches) {
  auto* a = network.add_node<LeafNode>("a");
  auto* s1 = network.add_node<Switch>("s1", SwitchConfig{});
  auto* s2 = network.add_node<Switch>("s2", SwitchConfig{});
  auto* b = network.add_node<LeafNode>("b");
  network.connect(*a, *s1, sim::Bandwidth::gbps(10), sim::microseconds(1));
  network.connect(*s1, *s2, sim::Bandwidth::gbps(40), sim::microseconds(1));
  network.connect(*s2, *b, sim::Bandwidth::gbps(10), sim::microseconds(1));
  network.compute_routes();

  Packet p;
  p.dst = b->id();
  p.payload_bytes = 952;  // 1000 B wire
  p.flow = 3;
  a->port(0).enqueue(a->slab().put(std::move(p)));
  simulator.run();
  ASSERT_EQ(b->count, 1);
  // Arrival = 3 hops of store-and-forward + 3 propagation delays.
  const sim::TimePs expected = sim::Bandwidth::gbps(10).tx_time(1000) +
                               sim::Bandwidth::gbps(40).tx_time(1000) +
                               sim::Bandwidth::gbps(10).tx_time(1000) +
                               3 * sim::microseconds(1);
  EXPECT_EQ(simulator.now(), expected);
}

}  // namespace
}  // namespace powertcp::net
