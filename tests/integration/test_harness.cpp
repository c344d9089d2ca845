/// Tests for the fat-tree experiment runner: workload accounting, queue
/// sampling, incast overlay, and a TEST_P sweep proving every supported
/// scheme (including HOMA) survives the full pipeline.

#include <gtest/gtest.h>

#include "harness/experiment.hpp"

namespace powertcp {
namespace {

harness::FatTreeExperiment tiny(const std::string& cc) {
  harness::FatTreeExperiment cfg;
  cfg.cc = cc;
  cfg.uplink_load = 0.3;
  cfg.duration = sim::milliseconds(2);
  cfg.size_scale = 0.05;
  cfg.seed = 21;
  return cfg;
}

class HarnessSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(HarnessSuite, RunsAndCompletesMostFlows) {
  const auto r = harness::run_fat_tree_experiment(tiny(GetParam()));
  EXPECT_GT(r.flows_started, 10u) << GetParam();
  EXPECT_GT(r.completion_rate(), 0.9) << GetParam();
  EXPECT_GT(r.tau, 0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, HarnessSuite,
    ::testing::Values("powertcp", "theta-powertcp", "hpcc", "dcqcn",
                      "timely", "dctcp", "homa"),
    [](const auto& info) {
      std::string n = info.param;
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(Harness, QueueSamplesAreCollected) {
  const auto r = harness::run_fat_tree_experiment(tiny("powertcp"));
  // 8 ToRs x 2 uplinks sampled every 20us over 2ms: ~1600 samples.
  EXPECT_GT(r.uplink_queue_bytes.count(), 1'000u);
}

TEST(Harness, IncastOverlayAddsFlows) {
  auto base = tiny("powertcp");
  const auto without = harness::run_fat_tree_experiment(base);
  base.incast = true;
  base.incast_requests_per_sec = 2'000;  // ~4 bursts in 2 ms
  base.incast_fan_in = 8;
  base.incast_request_bytes = 80'000;
  const auto with = harness::run_fat_tree_experiment(base);
  EXPECT_GT(with.flows_started, without.flows_started);
}

TEST(Harness, LoadScalesFlowCount) {
  auto lo = tiny("powertcp");
  lo.uplink_load = 0.2;
  auto hi = tiny("powertcp");
  hi.uplink_load = 0.8;
  const auto rlo = harness::run_fat_tree_experiment(lo);
  const auto rhi = harness::run_fat_tree_experiment(hi);
  // Poisson arrival rate scales linearly with load.
  EXPECT_GT(static_cast<double>(rhi.flows_started),
            2.5 * static_cast<double>(rlo.flows_started));
}

TEST(Harness, SlowdownsAreBoundedBelowByPathPhysics) {
  const auto r = harness::run_fat_tree_experiment(tiny("powertcp"));
  ASSERT_GT(r.fct.flow_count(), 0u);
  // The ideal model charges every flow the fabric-wide max base RTT
  // (the paper's τ), so same-rack flows legitimately report slowdowns
  // below 1 — but never below the ratio of the shortest to the longest
  // path, and transfers can never beat the line rate itself.
  EXPECT_GE(r.fct.all_slowdowns().min(), 0.1);
  for (const auto& f : r.fct.flows()) {
    EXPECT_GE(f.finish - f.start,
              sim::Bandwidth::gbps(25).tx_time(f.size_bytes));
  }
}

TEST(Harness, SizeScaleShrinksFlows) {
  auto cfg = tiny("powertcp");
  cfg.size_scale = 0.01;
  const auto r = harness::run_fat_tree_experiment(cfg);
  for (const auto& f : r.fct.flows()) {
    EXPECT_LE(f.size_bytes, 300'000);  // 30MB x 0.01
  }
}

}  // namespace
}  // namespace powertcp
