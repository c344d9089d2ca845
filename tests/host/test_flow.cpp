#include "host/flow.hpp"

#include <gtest/gtest.h>

#include "cc/registry.hpp"
#include "host/host.hpp"
#include "net/network.hpp"
#include "topo/dumbbell.hpp"

namespace powertcp::host {
namespace {

struct FlowFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator};
  topo::DumbbellConfig cfg;

  std::unique_ptr<topo::Dumbbell> topo;
  cc::FlowParams params;

  void build(int senders = 2) {
    cfg.n_senders = senders;
    topo = std::make_unique<topo::Dumbbell>(network, cfg);
    params.host_bw = cfg.host_bw;
    params.base_rtt = topo->base_rtt();
    params.expected_flows = 4;
  }

  FlowSender& start(int sender, net::FlowId id, std::int64_t size,
                    const std::string& algo = "powertcp",
                    sim::TimePs at = 0,
                    CompletionCallback cb = nullptr) {
    const cc::CcFactory f = cc::make_factory(algo);
    return topo->sender(sender).start_flow(id, topo->receiver().id(), size,
                                           f(params), params, at,
                                           std::move(cb));
  }
};

TEST_F(FlowFixture, SingleFlowCompletesAndReportsFct) {
  build();
  FlowCompletion done{};
  start(0, 1, 100'000, "powertcp", sim::microseconds(5),
        [&done](const FlowCompletion& c) { done = c; });
  simulator.run_until(sim::milliseconds(5));
  EXPECT_EQ(done.flow, 1u);
  EXPECT_EQ(done.size_bytes, 100'000);
  EXPECT_EQ(done.start, sim::microseconds(5));
  // Must take at least the line-rate transfer time plus one RTT.
  const sim::TimePs floor_fct =
      cfg.host_bw.tx_time(100'000) + topo->base_rtt();
  EXPECT_GE(done.finish - done.start, floor_fct);
  // ... and shouldn't take more than 2x that in an idle network.
  EXPECT_LE(done.finish - done.start, 2 * floor_fct);
}

TEST_F(FlowFixture, ReachesLineRateGoodput) {
  build();
  std::int64_t received = 0;
  topo->receiver().set_data_callback(
      [&received](net::FlowId, std::int64_t bytes, sim::TimePs) {
        received += bytes;
      });
  start(0, 1, 10'000'000);
  simulator.run_until(sim::milliseconds(4));
  // 25G * (1000/1048 goodput share) over 4 ms ~ 11.4 MB >= flow size;
  // the flow must be done.
  EXPECT_EQ(received, 10'000'000);
}

TEST_F(FlowFixture, InflightNeverExceedsWindowPlusOnePacket) {
  build();
  start(0, 1, 5'000'000);
  bool violated = false;
  std::function<void()> probe = [&] {
    // Look the sender up each probe: the host sweeps it at completion.
    if (FlowSender* s = topo->sender(0).sender(1);
        s != nullptr && s->started() && !s->complete()) {
      if (static_cast<double>(s->inflight_bytes()) >
          std::max(s->cwnd_bytes(), 1048.0) + 1048.0) {
        violated = true;
      }
    }
    if (simulator.now() < sim::milliseconds(2)) {
      simulator.schedule_in(sim::microseconds(1), probe);
    }
  };
  simulator.schedule_at(0, probe);
  simulator.run_until(sim::milliseconds(2));
  EXPECT_FALSE(violated);
}

TEST_F(FlowFixture, CompletionCallbackFiresExactlyOnce) {
  build();
  int completions = 0;
  start(0, 1, 50'000, "powertcp", 0,
        [&completions](const FlowCompletion&) { ++completions; });
  simulator.run_until(sim::milliseconds(3));
  EXPECT_EQ(completions, 1);
}

TEST_F(FlowFixture, RecoversFromDropsViaGoBackN) {
  // Shrink the switch buffer so the initial line-rate burst overflows.
  cfg.buffer_bytes = 20'000;
  build(4);
  int completions = 0;
  for (int i = 0; i < 4; ++i) {
    start(i, static_cast<net::FlowId>(i + 1), 200'000, "powertcp", 0,
          [&completions](const FlowCompletion&) { ++completions; });
  }
  simulator.run_until(sim::milliseconds(50));
  EXPECT_GT(topo->bottleneck_switch().total_drops(), 0u);
  EXPECT_EQ(completions, 4) << "all flows must finish despite drops";
}

TEST_F(FlowFixture, TwoFlowsShareFairly) {
  build(2);
  std::array<std::int64_t, 2> got{0, 0};
  topo->receiver().set_data_callback(
      [&got](net::FlowId f, std::int64_t bytes, sim::TimePs) {
        got.at(f - 1) += bytes;
      });
  start(0, 1, 400'000'000);
  start(1, 2, 400'000'000);
  simulator.run_until(sim::milliseconds(8));
  const double ratio = static_cast<double>(got[0]) /
                       static_cast<double>(std::max<std::int64_t>(got[1], 1));
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.4);
}

TEST_F(FlowFixture, DistinctFlowsOnOneHostAreIndependent) {
  build(1);
  int completions = 0;
  start(0, 1, 30'000, "powertcp", 0,
        [&completions](const FlowCompletion&) { ++completions; });
  start(0, 2, 30'000, "powertcp", 0,
        [&completions](const FlowCompletion&) { ++completions; });
  EXPECT_NE(topo->sender(0).sender(1), nullptr);
  EXPECT_NE(topo->sender(0).sender(2), nullptr);
  EXPECT_EQ(topo->sender(0).sender(3), nullptr);
  simulator.run_until(sim::milliseconds(3));
  EXPECT_EQ(completions, 2);
}

TEST_F(FlowFixture, DuplicateFlowIdThrows) {
  build(1);
  start(0, 1, 1000);
  EXPECT_THROW(start(0, 1, 1000), std::invalid_argument);
}

TEST_F(FlowFixture, EveryAlgorithmCompletesASmallFlow) {
  build(1);
  int completions = 0;
  net::FlowId id = 1;
  for (const auto& name : cc::sender_cc_names()) {
    start(0, id++, 20'000, name, 0,
          [&completions](const FlowCompletion&) { ++completions; });
  }
  simulator.run_until(sim::milliseconds(20));
  EXPECT_EQ(completions, static_cast<int>(cc::sender_cc_names().size()));
}

TEST_F(FlowFixture, SubMssFlowCompletes) {
  build(1);
  int completions = 0;
  start(0, 1, 1, "powertcp", 0,
        [&completions](const FlowCompletion&) { ++completions; });
  simulator.run_until(sim::milliseconds(1));
  EXPECT_EQ(completions, 1);
}

}  // namespace
}  // namespace powertcp::host
