#include "topo/partition.hpp"

#include <algorithm>
#include <stdexcept>

namespace powertcp::topo {

ShardPlan fat_tree_shard_plan(const FatTreeConfig& cfg, int requested) {
  if (requested < 1) {
    throw std::invalid_argument("shard plan: requested shards must be >= 1");
  }
  const auto count = [](int n) { return static_cast<std::size_t>(n); };
  const std::size_t pod_switches =
      count(cfg.aggs_per_pod) + count(cfg.tors_per_pod);
  const std::size_t n_tors = count(cfg.pods) * count(cfg.tors_per_pod);
  const std::size_t nodes = count(cfg.cores) + count(cfg.pods) * pod_switches +
                            n_tors * count(cfg.servers_per_tor);

  ShardPlan plan;
  const int shards = std::min(requested, cfg.pods);
  // With no core-link delay the cut edges weigh only the minimum
  // packet's serialization time, a few nanoseconds: windows that short
  // would spend more time at the barrier than running events.
  if (shards < 2 || cfg.core_link_delay < 1) {
    plan.node_shard.assign(nodes, 0);
    return plan;
  }
  plan.shards = shards;
  plan.node_shard.reserve(nodes);
  // At N >= 3 the cores get a DEDICATED relay shard (N - 1) and the
  // pods spread over shards 0..N-2: every cut link is an agg<->core
  // link, so two pod shards only influence each other through the
  // relay — their pairwise bound is TWO core-link hops, and the
  // engine's per-pair bounds (ShardedSimulator::add_cut_edge) open
  // windows about twice as wide as the cut delay whenever traffic
  // stays pod-local (the relay shard sits idle). At N == 2 a relay
  // would leave every pod on one shard, so the interleaved cut
  // (cores c % N, pod p % N) is kept.
  const bool relay = shards >= 3;
  const int pod_shards = relay ? shards - 1 : shards;
  for (int c = 0; c < cfg.cores; ++c) {
    plan.node_shard.push_back(relay ? shards - 1 : c % shards);
  }
  for (int p = 0; p < cfg.pods; ++p) {
    plan.node_shard.insert(plan.node_shard.end(), pod_switches,
                           p % pod_shards);
  }
  // Hosts are built ToR-major after every pod; a host's pod is
  // tor / tors_per_pod.
  for (std::size_t t = 0; t < n_tors; ++t) {
    plan.node_shard.insert(plan.node_shard.end(), count(cfg.servers_per_tor),
                           static_cast<int>(t / count(cfg.tors_per_pod)) %
                               pod_shards);
  }
  return plan;
}

}  // namespace powertcp::topo
