#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "workload/flow_size_dist.hpp"
#include "workload/traffic_gen.hpp"

namespace powertcp::workload {
namespace {

TEST(FlowSizeDistribution, WebsearchMeanIsHeavy) {
  const auto d = FlowSizeDistribution::websearch();
  // Analytic mean of the embedded CDF is ~1.7 MB (DCTCP web search).
  EXPECT_NEAR(d.mean_bytes(), 1.7e6, 0.2e6);
  EXPECT_EQ(d.max_bytes(), 30'000'000);
}

TEST(FlowSizeDistribution, SampleMeanMatchesAnalyticMean) {
  const auto d = FlowSizeDistribution::websearch();
  sim::Rng rng(5);
  double sum = 0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) sum += static_cast<double>(d.sample(rng));
  EXPECT_NEAR(sum / kN, d.mean_bytes(), d.mean_bytes() * 0.05);
}

TEST(FlowSizeDistribution, SamplesRespectSupport) {
  const auto d = FlowSizeDistribution::websearch();
  sim::Rng rng(6);
  for (int i = 0; i < 10'000; ++i) {
    const auto v = d.sample(rng);
    EXPECT_GE(v, d.min_bytes());
    EXPECT_LE(v, d.max_bytes());
  }
}

TEST(FlowSizeDistribution, EmpiricalCdfTracksSpec) {
  const auto d = FlowSizeDistribution::websearch();
  sim::Rng rng(7);
  int below_100k = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    if (d.sample(rng) <= 100'000) ++below_100k;
  }
  // Spec: CDF(80K) = 0.53, CDF(200K) = 0.60 -> P(<=100K) ~ 0.54.
  EXPECT_NEAR(static_cast<double>(below_100k) / kN, 0.54, 0.02);
}

TEST(FlowSizeDistribution, FixedIsDegenerate) {
  const auto d = FlowSizeDistribution::fixed(4'242);
  sim::Rng rng(8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d.sample(rng), 4'242);
  EXPECT_DOUBLE_EQ(d.mean_bytes(), 4'242.0);
}

TEST(FlowSizeDistribution, RejectsMalformedCdfs) {
  EXPECT_THROW(FlowSizeDistribution({}), std::invalid_argument);
  EXPECT_THROW(FlowSizeDistribution({{100, 0.5}}), std::invalid_argument);
  EXPECT_THROW(FlowSizeDistribution({{100, 0.7}, {50, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(FlowSizeDistribution({{100, 0.7}, {200, 0.4}}),
               std::invalid_argument);
}

TEST(GeneratePoisson, HitsTargetLoad) {
  PoissonConfig cfg;
  cfg.load_per_host = 0.5;
  cfg.host_bw = sim::Bandwidth::gbps(10);
  cfg.stop = sim::milliseconds(500);
  cfg.n_hosts = 8;
  const auto dist = FlowSizeDistribution::fixed(100'000);
  sim::Rng rng(11);
  const auto plan = generate_poisson(cfg, dist, rng);
  double total_bytes = 0;
  for (const auto& a : plan) total_bytes += static_cast<double>(a.size_bytes);
  const double offered_bps = total_bytes * 8.0 / 0.5;  // 500 ms window
  const double target_bps =
      cfg.load_per_host * cfg.host_bw.bps() * cfg.n_hosts;
  EXPECT_NEAR(offered_bps / target_bps, 1.0, 0.1);
}

TEST(GeneratePoisson, ArrivalsSortedAndInWindow) {
  PoissonConfig cfg;
  cfg.load_per_host = 0.3;
  cfg.host_bw = sim::Bandwidth::gbps(25);
  cfg.start = sim::milliseconds(1);
  cfg.stop = sim::milliseconds(5);
  cfg.n_hosts = 4;
  sim::Rng rng(12);
  const auto plan =
      generate_poisson(cfg, FlowSizeDistribution::fixed(50'000), rng);
  ASSERT_FALSE(plan.empty());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_GT(plan[i].start, cfg.start);
    EXPECT_LT(plan[i].start, cfg.stop);
    if (i > 0) {
      EXPECT_GE(plan[i].start, plan[i - 1].start);
    }
    EXPECT_NE(plan[i].src_host, plan[i].dst_host);
  }
}

TEST(GeneratePoisson, GroupConstraintKeepsTrafficInterRack) {
  PoissonConfig cfg;
  cfg.load_per_host = 0.5;
  cfg.host_bw = sim::Bandwidth::gbps(25);
  cfg.stop = sim::milliseconds(20);
  cfg.n_hosts = 16;
  cfg.hosts_per_group = 4;
  sim::Rng rng(13);
  const auto plan =
      generate_poisson(cfg, FlowSizeDistribution::fixed(50'000), rng);
  for (const auto& a : plan) {
    EXPECT_NE(a.src_host / 4, a.dst_host / 4);
  }
}

TEST(GenerateIncast, FanInResponderDistinctAndSynchronized) {
  IncastConfig cfg;
  cfg.requests_per_sec = 1000;
  cfg.request_bytes = 800'000;
  cfg.fan_in = 8;
  cfg.stop = sim::milliseconds(20);
  cfg.n_hosts = 32;
  cfg.hosts_per_group = 4;
  sim::Rng rng(14);
  const auto plan = generate_incast(cfg, rng);
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan.size() % 8, 0u);
  // Group by start time: each burst has 8 distinct responders, one
  // requester, and per-responder share of the request.
  for (std::size_t i = 0; i + 8 <= plan.size(); i += 8) {
    std::set<int> responders;
    for (std::size_t j = i; j < i + 8; ++j) {
      EXPECT_EQ(plan[j].start, plan[i].start);
      EXPECT_EQ(plan[j].dst_host, plan[i].dst_host);
      EXPECT_EQ(plan[j].size_bytes, 100'000);
      responders.insert(plan[j].src_host);
      EXPECT_NE(plan[j].src_host / 4, plan[j].dst_host / 4);
    }
    EXPECT_EQ(responders.size(), 8u);
  }
}

TEST(GenerateIncast, RequiresEnoughHosts) {
  IncastConfig cfg;
  cfg.fan_in = 40;
  cfg.n_hosts = 16;
  cfg.stop = sim::milliseconds(1);
  sim::Rng rng(15);
  EXPECT_THROW(generate_incast(cfg, rng), std::invalid_argument);
  // Without groups any other host can respond: 15 of 16.
  cfg.fan_in = 16;
  EXPECT_THROW(generate_incast(cfg, rng), std::invalid_argument);
  cfg.fan_in = 15;
  EXPECT_NO_THROW(generate_incast(cfg, rng));
  // With groups only the hosts outside the requester's: 12 of 16. One
  // more would spin forever in the distinct-responder draw.
  cfg.hosts_per_group = 4;
  cfg.fan_in = 13;
  EXPECT_THROW(generate_incast(cfg, rng), std::invalid_argument);
  cfg.fan_in = 12;
  EXPECT_NO_THROW(generate_incast(cfg, rng));
}

}  // namespace
}  // namespace powertcp::workload
