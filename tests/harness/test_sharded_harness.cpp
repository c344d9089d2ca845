#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/point.hpp"
#include "harness/scenarios.hpp"
#include "topo/partition.hpp"

/// End-to-end exactness of the sharded harness: the same fat-tree
/// scenario must produce the same numbers at every `sim_threads` value,
/// and a run whose boundary-ambiguity detector fires must fail instead
/// of returning numbers nobody can vouch for. The ShardedHarness.*
/// fixtures are part of the tsan preset's test filter: they drive real
/// worker threads, the cross-shard channels, and the barrier protocol
/// under TSan on every CI run.

namespace powertcp::harness {
namespace {

TEST(ShardedHarness, PartitionedIncastMatchesSequential) {
  IncastScenario cfg;
  cfg.topo = topo::FatTreeConfig::quick();
  cfg.horizon = sim::milliseconds(1);
  const SchemeRun scheme{"", "powertcp", {}};

  IncastScenario par_cfg = cfg;
  par_cfg.sim_threads = 4;
  const IncastSeries a = run_incast_scenario(cfg, scheme);
  const IncastSeries b = run_incast_scenario(par_cfg, scheme);

  ASSERT_FALSE(a.gbps.empty());
  EXPECT_EQ(a.gbps, b.gbps);
  EXPECT_EQ(a.queue_kb, b.queue_kb);
}

TEST(ShardedHarness, AmbiguousTieFailsWithItsKeyAndShards) {
  // On shard 1, a local event scheduled at 40 ns for 50 ns and a
  // delivery from shard 0 (origin 1) stamped with the same causal time
  // and no tie token share one key: no engine can order them the way
  // the sequential run would have.
  sim::ShardedSimulator engine(2);
  sim::Simulator& s1 = engine.shard(1);
  s1.schedule_at(sim::nanoseconds(40), [&s1] {
    s1.schedule_at(sim::nanoseconds(50), [] {});
  });
  s1.schedule_from(sim::nanoseconds(40), sim::nanoseconds(50), [] {}, 1);
  engine.run_until(sim::nanoseconds(100));
  ASSERT_EQ(engine.boundary_ambiguities(), 1u);

  const sim::ShardedSimulator::Ambiguity a = engine.first_ambiguity();
  EXPECT_EQ(a.time, sim::nanoseconds(50));
  EXPECT_EQ(a.sched, sim::nanoseconds(40));
  EXPECT_EQ(a.tie, 0u);
  EXPECT_EQ(a.shards[0], 0);  // the delivery popped first (lower seq)
  EXPECT_EQ(a.shards[1], 1);
  try {
    check_exact(engine);
    FAIL() << "an ambiguous sharded run passed the check";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 0 and shard 1"), std::string::npos) << what;
    EXPECT_NE(what.find("time 50000 ps, sched 40000 ps, tie 0"),
              std::string::npos)
        << what;
  }
}

TEST(ShardedHarness, PlanClampsRequestsAbovePodsToThePerPodCut) {
  // quick() has 4 pods: any request above that is the 4-shard per-pod
  // cut, with the cores on the relay shard.
  const topo::FatTreeConfig cfg = topo::FatTreeConfig::quick();
  const topo::ShardPlan four = topo::fat_tree_shard_plan(cfg, 4);
  for (const int requested : {5, 6, 64}) {
    const topo::ShardPlan plan = topo::fat_tree_shard_plan(cfg, requested);
    EXPECT_EQ(plan.shards, cfg.pods) << requested;
    EXPECT_EQ(plan.node_shard, four.node_shard) << requested;
  }
  const std::size_t nodes = static_cast<std::size_t>(
      cfg.cores + cfg.pods * (cfg.aggs_per_pod + cfg.tors_per_pod) +
      cfg.pods * cfg.tors_per_pod * cfg.servers_per_tor);
  ASSERT_EQ(four.node_shard.size(), nodes);
  for (int c = 0; c < cfg.cores; ++c) {
    EXPECT_EQ(four.node_shard[static_cast<std::size_t>(c)], 3);
  }
  EXPECT_THROW(topo::fat_tree_shard_plan(cfg, 0), std::invalid_argument);
}

}  // namespace
}  // namespace powertcp::harness
