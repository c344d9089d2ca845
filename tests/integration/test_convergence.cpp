/// Cross-module integration: every congestion controller driving real
/// flows over the simulated data plane. Parameterized (TEST_P) over the
/// algorithm registry so each law is held to the same invariants.

#include <gtest/gtest.h>

#include "cc/registry.hpp"
#include "harness/experiment.hpp"
#include "net/network.hpp"
#include "stats/timeseries.hpp"
#include "topo/dumbbell.hpp"

namespace powertcp {
namespace {

class AlgorithmSuite : public ::testing::TestWithParam<std::string> {
 protected:
  sim::Simulator simulator;
  net::Network network{simulator};
  topo::DumbbellConfig cfg;
  std::unique_ptr<topo::Dumbbell> topo;
  cc::FlowParams params;

  void build(int senders) {
    cfg.n_senders = senders;
    cfg.ecn = cc::Registry::instance().at(GetParam()).needs.ecn;
    topo = std::make_unique<topo::Dumbbell>(network, cfg);
    params.host_bw = cfg.host_bw;
    params.base_rtt = topo->base_rtt();
    params.expected_flows = senders;
  }

  void start_flow(int sender, net::FlowId id, std::int64_t size,
                  sim::TimePs at = 0) {
    const auto factory = cc::make_factory(GetParam());
    topo->sender(sender).start_flow(id, topo->receiver().id(), size,
                                    factory(params), params, at);
  }
};

TEST_P(AlgorithmSuite, SingleFlowSustainsNearLineRate) {
  build(1);
  std::int64_t received = 0;
  topo->receiver().set_data_callback(
      [&received](net::FlowId, std::int64_t b, sim::TimePs) {
        received += b;
      });
  start_flow(0, 1, 1'000'000'000);
  simulator.run_until(sim::milliseconds(4));
  const double gbps =
      static_cast<double>(received) * 8.0 / sim::to_seconds(
          sim::milliseconds(4)) / 1e9;
  // Goodput ceiling is 25G x 1000/1048 = 23.85G; demand >= 85% of it.
  EXPECT_GT(gbps, 0.85 * 23.85) << GetParam();
}

TEST_P(AlgorithmSuite, TenToOneIncastAbsorbedWithoutCollapse) {
  build(10);
  int completed = 0;
  const auto factory = cc::make_factory(GetParam());
  for (int i = 0; i < 10; ++i) {
    topo->sender(i).start_flow(
        static_cast<net::FlowId>(i + 1), topo->receiver().id(), 100'000,
        factory(params), params, 0,
        [&completed](const host::FlowCompletion&) { ++completed; });
  }
  simulator.run_until(sim::milliseconds(20));
  EXPECT_EQ(completed, 10) << GetParam();
}

TEST_P(AlgorithmSuite, QueueDrainsAfterCongestionEpisode) {
  build(8);
  stats::QueueSeries queue;
  topo->bottleneck_port().set_queue_monitor(&queue);
  for (int i = 0; i < 8; ++i) {
    start_flow(i, static_cast<net::FlowId>(i + 1), 300'000);
  }
  simulator.run_until(sim::milliseconds(10));
  // All flows are long gone; the bottleneck queue must be empty.
  EXPECT_EQ(queue.at(sim::milliseconds(10)), 0) << GetParam();
}

TEST_P(AlgorithmSuite, LateJoinerGetsBandwidth) {
  build(2);
  std::array<std::int64_t, 2> got{0, 0};
  topo->receiver().set_data_callback(
      [&got](net::FlowId f, std::int64_t b, sim::TimePs) {
        got.at(f - 1) += b;
      });
  start_flow(0, 1, 1'000'000'000);
  start_flow(1, 2, 1'000'000'000, sim::milliseconds(1));
  simulator.run_until(sim::milliseconds(6));
  // In the shared window [1ms, 6ms] the newcomer must carry a
  // meaningful share (>= 20% of the incumbent's bytes).
  EXPECT_GT(static_cast<double>(got[1]),
            0.2 * static_cast<double>(got[0]) * 5.0 / 6.0)
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AlgorithmSuite,
    ::testing::Values("powertcp", "theta-powertcp", "hpcc", "dcqcn",
                      "timely", "dctcp"),
    [](const auto& info) {
      std::string n = info.param;
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

// ------------------------------------------------------- paper orderings

TEST(PaperOrdering, PowerTcpKeepsLowerIncastQueueThanTimely) {
  const auto peak_queue = [](const std::string& algo) {
    sim::Simulator simulator;
    net::Network network(simulator);
    topo::DumbbellConfig cfg;
    cfg.n_senders = 12;
    topo::Dumbbell topo(network, cfg);
    cc::FlowParams params;
    params.host_bw = cfg.host_bw;
    params.base_rtt = topo.base_rtt();
    params.expected_flows = 12;
    stats::QueueSeries queue;
    topo.bottleneck_port().set_queue_monitor(&queue);
    const auto factory = cc::make_factory(algo);
    // Long flow plus burst.
    topo.sender(0).start_flow(1, topo.receiver().id(), 1'000'000'000,
                              factory(params), params, 0);
    for (int i = 1; i < 12; ++i) {
      topo.sender(i).start_flow(static_cast<net::FlowId>(i + 1),
                                topo.receiver().id(), 200'000,
                                factory(params), params,
                                sim::microseconds(300));
    }
    simulator.run_until(sim::milliseconds(4));
    return queue.max_bytes();
  };
  EXPECT_LT(peak_queue("powertcp"), peak_queue("timely"));
}

TEST(PaperOrdering, PowerTcpShortFlowTailBeatsDcqcnUnderLoad) {
  harness::FatTreeExperiment base;
  base.topo = topo::FatTreeConfig::quick();
  base.duration = sim::milliseconds(6);
  base.uplink_load = 0.6;
  base.size_scale = 0.1;
  base.seed = 3;

  auto run = [&](const std::string& cc) {
    auto cfg = base;
    cfg.cc = cc;
    const auto r = harness::run_fat_tree_experiment(cfg);
    return r.fct.slowdowns_in_range(0, 1'000).percentile(99);
  };
  EXPECT_LT(run("powertcp"), run("dcqcn"));
}

}  // namespace
}  // namespace powertcp
