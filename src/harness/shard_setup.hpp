#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>

#include "net/network.hpp"
#include "sim/shard.hpp"
#include "topo/partition.hpp"

/// \file shard_setup.hpp
/// Glue between the scenario harness and the parallel engine: every
/// simulation-backed scenario kind builds one ShardedPoint from its
/// topology's shard plan and its `sim_threads` knob, then constructs
/// the topology against `point.network` exactly as before. With one
/// shard (sim_threads = 1, or a plan fallback) the point IS the
/// sequential engine, driven verbatim.

namespace powertcp::harness {

/// One partitioned simulation point: plan -> engine -> network, tied
/// together in member-initialization order.
struct ShardedPoint {
  topo::ShardPlan plan;
  sim::ShardedSimulator engine;
  net::Network network;

  explicit ShardedPoint(topo::ShardPlan p)
      : plan(std::move(p)),
        engine(plan.shards),
        network(prepared_engine(), plan.node_shard) {}

  /// Shard 0's event queue — the "main" simulator every monitor and
  /// telemetry tap lives on.
  sim::Simulator& sim() { return engine.shard(0); }

 private:
  sim::ShardedSimulator& prepared_engine() {
    engine.set_lookahead(plan.lookahead);
    return engine;
  }
};

/// The thread count a scenario actually runs with: at least 1, and
/// forced to 1 when the flight recorder is on (its probes read nodes
/// across the cut from one shard's thread).
inline int effective_sim_threads(int requested, bool telemetry_enabled) {
  return telemetry_enabled ? 1 : std::max(1, requested);
}

/// Process-wide count of simulation points that fell back to the
/// sequential engine (run_with_exact_fallback below). Monotonically
/// increasing; `powertcp_run` snapshots it around a run to surface the
/// count in its JSON document and warn on stderr, and the shard bench
/// exact-gates it at zero. Atomic because sweep points run on a pool.
inline std::atomic<std::uint64_t>& shard_fallback_count() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

/// Exactness policy of the sharded harness. `body(threads)` builds and
/// runs one complete simulation point and returns {result, boundary
/// ambiguity count} (ShardedSimulator::boundary_ambiguities() after the
/// run). Zero ambiguities PROVES the sharded run byte-identical to the
/// sequential engine (see docs/performance.md, "Parallel DES"), so the
/// result is returned as-is; otherwise the point is rerun with one
/// shard — the exact engine by construction — that result returned, and
/// the process-wide fallback counter bumped (plus `*fallbacks` when
/// given) so the silent rerun stays visible to the caller. Both
/// branches are pure functions of the scenario inputs, so output never
/// depends on the machine, only on the config; `sim_threads > 1` buys
/// speed exactly where the traffic pattern keeps the partitions
/// causally independent at event granularity. The tie-token event key
/// (sim/event_queue.hpp) makes cross-shard same-(time, sched) pairs
/// exactly ordered, so on the shipped configs this path never fires —
/// it remains as the safety net behind the detector.
template <typename Body>
auto run_with_exact_fallback(int requested, Body&& body,
                             std::uint64_t* fallbacks = nullptr)
    -> decltype(body(1).first) {
  auto attempt = body(requested);
  if (requested > 1 && attempt.second > 0) {
    shard_fallback_count().fetch_add(1, std::memory_order_relaxed);
    if (fallbacks != nullptr) ++*fallbacks;
    return body(1).first;
  }
  return std::move(attempt.first);
}

}  // namespace powertcp::harness
