#include "topo/rdcn.hpp"

#include <gtest/gtest.h>

#include "cc/registry.hpp"
#include "net/network.hpp"

namespace powertcp::topo {
namespace {

struct RdcnFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator};
};

TEST_F(RdcnFixture, SmallConfigBuilds) {
  Rdcn rdcn(network, RdcnConfig::small());
  EXPECT_EQ(rdcn.host_count(), 8);
  EXPECT_EQ(rdcn.tor_of_host(0), 0);
  EXPECT_EQ(rdcn.tor_of_host(7), 3);
  EXPECT_EQ(rdcn.schedule().n_matchings(), 3);
}

TEST_F(RdcnFixture, TorPortsStayInTheTieTokenRange) {
  // A ToR has a port per server plus two uplinks; 600 servers pass
  // net::kMaxPortsPerNode.
  RdcnConfig cfg = RdcnConfig::small();
  cfg.servers_per_tor = 600;
  EXPECT_THROW(Rdcn(network, cfg), std::logic_error);
}

TEST_F(RdcnFixture, TorOfNodeMapsHostsOnly) {
  Rdcn rdcn(network, RdcnConfig::small());
  EXPECT_EQ(rdcn.tor_of_node(rdcn.host(2).id()), 1);
  EXPECT_THROW(rdcn.tor_of_node(rdcn.packet_core().id()), std::logic_error);
}

TEST_F(RdcnFixture, IntraRackDeliveryBypassesUplinks) {
  Rdcn rdcn(network, RdcnConfig::small());
  cc::FlowParams params;
  params.host_bw = rdcn.config().host_bw;
  params.base_rtt = rdcn.max_base_rtt();
  int done = 0;
  rdcn.host(0).start_flow(
      1, rdcn.host(1).id(), 20'000, cc::make_factory("powertcp")(params),
      params, 0, [&done](const host::FlowCompletion&) { ++done; });
  simulator.run_until(sim::milliseconds(2));
  EXPECT_EQ(done, 1);
  EXPECT_EQ(rdcn.tor(0).voqs().total_packets(), 0u);
}

TEST_F(RdcnFixture, InterRackDeliveryViaPacketPlaneDuringNightSlots) {
  // Rack 0 -> rack 2 is connected by the circuit only in slot 1; before
  // that the packet plane must carry traffic.
  Rdcn rdcn(network, RdcnConfig::small());
  cc::FlowParams params;
  params.host_bw = rdcn.config().host_bw;
  params.base_rtt = rdcn.max_base_rtt();
  int done = 0;
  rdcn.host(0).start_flow(
      1, rdcn.host(4).id(), 20'000, cc::make_factory("powertcp")(params),
      params, 0, [&done](const host::FlowCompletion&) { ++done; });
  // Run for less than slot 1's start so only the packet plane exists.
  simulator.run_until(sim::microseconds(200));
  EXPECT_EQ(done, 1);
}

TEST_F(RdcnFixture, CircuitCarriesBulkDuringItsDay) {
  Rdcn rdcn(network, RdcnConfig::small());
  cc::FlowParams params;
  params.host_bw = rdcn.config().host_bw;
  params.base_rtt = rdcn.max_base_rtt();
  params.expected_flows = 4;
  // Rack 0 -> rack 1 is slot 0: the circuit is up from t=0. A large
  // transfer must beat the packet plane's 25G ceiling.
  std::int64_t received = 0;
  rdcn.host(2).set_data_callback(
      [&received](net::FlowId, std::int64_t b, sim::TimePs) {
        received += b;
      });
  rdcn.host(0).start_flow(1, rdcn.host(2).id(), 100'000'000,
                          cc::make_factory("powertcp")(params), params, 0);
  simulator.run_until(rdcn.config().day);
  // One host NIC is 25G, so the ceiling here is NIC-bound; check we're
  // at it rather than at some lower packet-plane share.
  const double gbps = static_cast<double>(received) * 8.0 /
                      sim::to_seconds(rdcn.config().day) / 1e9;
  EXPECT_GT(gbps, 20.0);
}

TEST_F(RdcnFixture, VoqHoldsTrafficHeadedToActiveCircuit) {
  Rdcn rdcn(network, RdcnConfig::small());
  // During slot 0, rack0's circuit serves rack 1; packets to rack 1 sit
  // in VOQ[1] and drain over the circuit, not the uplink.
  net::Packet p;
  p.src = rdcn.host(0).id();
  p.dst = rdcn.host(2).id();  // rack 1
  p.payload_bytes = 1000;
  p.type = net::PacketType::kData;
  rdcn.tor(0).receive(rdcn.tor(0).slab().put(std::move(p)), 0);
  // The circuit (up for rack 1 in slot 0) grabbed the packet for
  // serialization the moment it hit the VOQ.
  EXPECT_TRUE(rdcn.tor(0).port(rdcn.tor(0).circuit_port_index()).busy());
  EXPECT_EQ(rdcn.tor(0).voqs().voq_bytes(1), 0);
  simulator.run_until(sim::microseconds(50));
  EXPECT_FALSE(rdcn.tor(0).port(rdcn.tor(0).circuit_port_index()).busy());
}

TEST_F(RdcnFixture, MaxBaseRttIsPacketPlanePath) {
  Rdcn rdcn(network, RdcnConfig::small());
  const auto& cfg = rdcn.config();
  const sim::TimePs prop =
      2 * (2 * cfg.host_link_delay + 2 * cfg.fabric_link_delay);
  EXPECT_GT(rdcn.max_base_rtt(), prop);
  EXPECT_LT(rdcn.max_base_rtt(), prop + sim::microseconds(5));
}

}  // namespace
}  // namespace powertcp::topo
