#include "topo/dumbbell.hpp"

#include <gtest/gtest.h>

#include "cc/registry.hpp"
#include "net/aqm.hpp"
#include "net/network.hpp"

namespace powertcp::topo {
namespace {

TEST(Dumbbell, EcnProfileScalesPerGbpsOfPortSpeed) {
  // Registry ECN profiles are per Gbps (as on the fat-tree): DCTCP's
  // 700 B/Gbps step marks above 17.5 KB on a 25 G bottleneck.
  sim::Simulator simulator;
  net::Network network(simulator);
  DumbbellConfig cfg;
  cfg.n_senders = 2;
  cfg.bottleneck_bw = sim::Bandwidth::gbps(25);
  cfg.ecn = cc::Registry::instance().at("dctcp").needs.ecn;
  ASSERT_EQ(cfg.ecn.kmin_bytes, 700);
  Dumbbell topo(network, cfg);
  const auto* red =
      dynamic_cast<const net::StepRedAqm*>(topo.bottleneck_port().aqm());
  ASSERT_NE(red, nullptr);
  EXPECT_EQ(red->config().kmin_bytes, 17'500);
  EXPECT_EQ(red->config().kmax_bytes, 17'500);
}

}  // namespace
}  // namespace powertcp::topo
