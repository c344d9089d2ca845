#include "topo/fat_tree.hpp"

#include <gtest/gtest.h>

#include "cc/registry.hpp"
#include "net/network.hpp"

namespace powertcp::topo {
namespace {

struct FatTreeFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator};
};

TEST_F(FatTreeFixture, PaperConfigCounts) {
  FatTreeConfig cfg;  // paper defaults
  FatTree ft(network, cfg);
  EXPECT_EQ(ft.host_count(), 256);
  EXPECT_EQ(ft.tor_count(), 8);
  EXPECT_EQ(ft.agg_count(), 8);
  EXPECT_EQ(ft.core_count(), 2);
  EXPECT_DOUBLE_EQ(ft.oversubscription(), 4.0);
}

TEST_F(FatTreeFixture, QuickConfigPreservesOversubscription) {
  FatTree ft(network, FatTreeConfig::quick());
  EXPECT_DOUBLE_EQ(ft.oversubscription(), 4.0);
  EXPECT_EQ(ft.host_count(), 64);
}

TEST_F(FatTreeFixture, HostToTorMapping) {
  FatTree ft(network, FatTreeConfig::quick());
  const int spt = ft.config().servers_per_tor;
  EXPECT_EQ(ft.tor_of_host(0), 0);
  EXPECT_EQ(ft.tor_of_host(spt - 1), 0);
  EXPECT_EQ(ft.tor_of_host(spt), 1);
  EXPECT_EQ(ft.tor_down_port(spt + 3), 3);
}

TEST_F(FatTreeFixture, UplinkPortsFollowDownPorts) {
  FatTree ft(network, FatTreeConfig::quick());
  const auto ports = ft.tor_uplink_ports(0);
  ASSERT_EQ(ports.size(), 2u);
  EXPECT_EQ(ports[0], ft.config().servers_per_tor);
  // Uplink ports must run at fabric speed.
  EXPECT_EQ(ft.tor(0).port(ports[0]).bandwidth(),
            ft.config().fabric_bw);
}

TEST_F(FatTreeFixture, MaxBaseRttCountsAllHops) {
  FatTreeConfig cfg = FatTreeConfig::quick();
  FatTree ft(network, cfg);
  const sim::TimePs prop_only =
      2 * (2 * cfg.host_link_delay + 2 * cfg.fabric_link_delay +
           2 * cfg.core_link_delay);
  EXPECT_GT(ft.max_base_rtt(), prop_only);
  EXPECT_LT(ft.max_base_rtt(), prop_only + sim::microseconds(10));
}

TEST_F(FatTreeFixture, CrossPodDeliveryWorks) {
  FatTree ft(network, FatTreeConfig::quick());
  const int src = 0;
  const int dst = ft.host_count() - 1;  // farthest pod
  cc::FlowParams params;
  params.host_bw = ft.config().host_bw;
  params.base_rtt = ft.max_base_rtt();
  int completions = 0;
  ft.host(src).start_flow(
      1, ft.host_node(dst), 50'000, cc::make_factory("powertcp")(params),
      params, 0,
      [&completions](const host::FlowCompletion&) { ++completions; });
  simulator.run_until(sim::milliseconds(3));
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(ft.total_drops(), 0u);
}

TEST_F(FatTreeFixture, IntraPodCrossRackDelivery) {
  FatTree ft(network, FatTreeConfig::quick());
  const int src = 0;
  const int dst = ft.config().servers_per_tor;  // next rack, same pod
  cc::FlowParams params;
  params.host_bw = ft.config().host_bw;
  params.base_rtt = ft.max_base_rtt();
  int completions = 0;
  ft.host(src).start_flow(
      1, ft.host_node(dst), 50'000, cc::make_factory("powertcp")(params),
      params, 0,
      [&completions](const host::FlowCompletion&) { ++completions; });
  simulator.run_until(sim::milliseconds(3));
  EXPECT_EQ(completions, 1);
}

TEST_F(FatTreeFixture, HostLoadConversionInvertsOversubscription) {
  FatTree ft(network, FatTreeConfig::quick());
  // uplink load = host_load * oversub * inter-rack fraction.
  const double host_load = ft.host_load_for_uplink_load(0.6);
  const double frac =
      static_cast<double>(ft.host_count() - ft.config().servers_per_tor) /
      static_cast<double>(ft.host_count() - 1);
  EXPECT_NEAR(host_load * 4.0 * frac, 0.6, 1e-12);
}

TEST_F(FatTreeFixture, RejectsNonPositiveCounts) {
  FatTreeConfig cfg;
  cfg.pods = 0;
  EXPECT_THROW(FatTree(network, cfg), std::invalid_argument);
}

TEST_F(FatTreeFixture, BufferScalesWithPortCapacity) {
  FatTreeConfig cfg = FatTreeConfig::quick();
  FatTree ft(network, cfg);
  // ToR: 8 x 25G + 2 x 25G = 250 G -> 2.5 MB at 10 KB/Gbps.
  EXPECT_EQ(ft.tor(0).shared_buffer().total_bytes(), 2'500'000);
}

}  // namespace
}  // namespace powertcp::topo
