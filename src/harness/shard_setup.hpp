#pragma once

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/network.hpp"
#include "sim/shard.hpp"
#include "topo/partition.hpp"

/// \file shard_setup.hpp
/// Glue between the fat-tree scenarios and the parallel engine: a
/// point builds one ShardedPoint from the fat-tree shard plan and its
/// `sim_threads` knob, then constructs the topology against
/// `point.network` exactly as before. With one shard (sim_threads = 1,
/// or a plan with no usable cut) the point IS the sequential engine,
/// driven verbatim.

namespace powertcp::harness {

/// Throws std::runtime_error if `engine` saw a boundary ambiguity: a
/// same-(time, sched, tie) pair from two shards whose sequential order
/// the partitioned run cannot prove (see
/// sim::Simulator::boundary_ambiguities()). Zero ambiguities prove the
/// run byte-identical to the sequential engine. The tie-token event
/// key makes cross-shard ties exactly ordered, so on the shipped
/// configs this never fires; when it does, the point fails instead of
/// returning numbers nobody can vouch for.
inline void check_exact(const sim::ShardedSimulator& engine) {
  if (engine.boundary_ambiguities() == 0) return;
  const sim::ShardedSimulator::Ambiguity a = engine.first_ambiguity();
  throw std::runtime_error(
      "sharded run is not provably exact: events from shard " +
      std::to_string(a.shards[0]) + " and shard " +
      std::to_string(a.shards[1]) + " tie on key (time " +
      std::to_string(a.time) + " ps, sched " + std::to_string(a.sched) +
      " ps, tie " + std::to_string(a.tie) +
      "); rerun this point with sim_threads = 1");
}

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

  /// Runs the point to `horizon`, then check_exact().
  void run_until(sim::TimePs horizon) {
    engine.run_until(horizon);
    check_exact(engine);
  }

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

}  // namespace powertcp::harness
