#pragma once

#include <vector>

#include "topo/fat_tree.hpp"

/// \file partition.hpp
/// The shard plan for the parallel engine (sim/shard.hpp): it maps
/// every node the fat-tree builder will create — by construction
/// order, which is the NodeId — to a shard, and reports the minimum
/// propagation delay across the cut, which becomes the engine's
/// conservative lookahead. The plan falls back to a single shard when
/// the topology has no usable cut (no parallelism is better than a
/// wrong answer or a zero-lookahead livelock).
///
/// The cut is per pod, with the request clamped to `pods`. At N >= 3
/// the cores form a dedicated RELAY shard (N-1) and pod p goes to
/// shard p % (N-1); only agg<->core links cross (lookahead
/// core_link_delay), and pod shards influence each other only via two
/// hops through the relay, which the engine's per-pair lookahead turns
/// into windows about twice the cut delay. At N == 2 the interleaved
/// cut (core c % N, pod p % N) is kept.
///
/// Sharding one point is a tool for a config with fewer points than
/// cores; docs/performance.md §5 has the measured speedups.

namespace powertcp::topo {

struct ShardPlan {
  int shards = 1;
  /// Minimum cross-shard link propagation (engine lookahead). 0 when
  /// shards == 1.
  sim::TimePs lookahead = 0;
  /// Shard of node i, i the topology's construction order (== NodeId).
  std::vector<int> node_shard;
};

/// Plans for `requested` (>= 1) shards, clamped to `pods`; returns a
/// 1-shard plan when the clamp or a zero core-link delay removes all
/// parallelism.
ShardPlan fat_tree_shard_plan(const FatTreeConfig& cfg, int requested);

}  // namespace powertcp::topo
