/// Reproducibility: the entire pipeline (workload generation, packet
/// exchange, CC reactions, statistics) is a pure function of the seed.

#include <gtest/gtest.h>

#include "cc/registry.hpp"
#include "harness/experiment.hpp"

namespace powertcp {
namespace {

harness::FatTreeExperiment small_experiment(std::uint64_t seed) {
  harness::FatTreeExperiment cfg;
  cfg.topo = topo::FatTreeConfig::quick();
  cfg.uplink_load = 0.4;
  cfg.duration = sim::milliseconds(3);
  cfg.size_scale = 0.1;
  cfg.seed = seed;
  return cfg;
}

harness::ExperimentResult run_powertcp(std::uint64_t seed) {
  return harness::run_fat_tree_experiment(small_experiment(seed),
                                          {"", "powertcp", {}});
}

TEST(Determinism, SameSeedReproducesEveryFlowRecord) {
  const auto a = run_powertcp(9);
  const auto b = run_powertcp(9);
  ASSERT_EQ(a.fct.flow_count(), b.fct.flow_count());
  for (std::size_t i = 0; i < a.fct.flows().size(); ++i) {
    const auto& fa = a.fct.flows()[i];
    const auto& fb = b.fct.flows()[i];
    EXPECT_EQ(fa.flow_id, fb.flow_id);
    EXPECT_EQ(fa.size_bytes, fb.size_bytes);
    EXPECT_EQ(fa.start, fb.start);
    EXPECT_EQ(fa.finish, fb.finish);
  }
  EXPECT_EQ(a.drops, b.drops);
}

TEST(Determinism, DifferentSeedsProduceDifferentWorkloads) {
  const auto a = run_powertcp(1);
  const auto b = run_powertcp(2);
  // Same statistical regime, different draws.
  ASSERT_GT(a.fct.flow_count(), 0u);
  ASSERT_GT(b.fct.flow_count(), 0u);
  bool any_difference = a.fct.flow_count() != b.fct.flow_count();
  for (std::size_t i = 0;
       !any_difference &&
       i < std::min(a.fct.flows().size(), b.fct.flows().size());
       ++i) {
    any_difference = a.fct.flows()[i].size_bytes !=
                     b.fct.flows()[i].size_bytes;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Determinism, HarnessAccountsForEveryFlow) {
  const auto r = run_powertcp(17);
  EXPECT_GT(r.flows_started, 0u);
  EXPECT_LE(r.flows_completed, r.flows_started);
  // Quick horizon with 20 ms drain: nearly everything finishes.
  EXPECT_GT(r.completion_rate(), 0.95);
  EXPECT_EQ(r.fct.flow_count(), r.flows_completed);
}

TEST(Determinism, EcnProfilesMatchAlgorithms) {
  const auto ecn = [](const char* scheme) {
    return cc::Registry::instance().at(scheme).needs.ecn;
  };
  EXPECT_TRUE(ecn("dcqcn").enabled);
  EXPECT_TRUE(ecn("dctcp").enabled);
  EXPECT_FALSE(ecn("powertcp").enabled);
  EXPECT_FALSE(ecn("hpcc").enabled);
  // DCTCP uses step marking; DCQCN a RED band.
  EXPECT_EQ(ecn("dctcp").kmin_bytes, ecn("dctcp").kmax_bytes);
  EXPECT_LT(ecn("dcqcn").kmin_bytes, ecn("dcqcn").kmax_bytes);
}

}  // namespace
}  // namespace powertcp
