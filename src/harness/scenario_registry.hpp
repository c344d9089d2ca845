#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/config.hpp"
#include "harness/scenarios.hpp"
#include "harness/sweep.hpp"

/// \file scenario_registry.hpp
/// The scenario registry: one entry per experiment *shape* (topology +
/// workload + table emission), mirroring how cc::Registry owns one
/// entry per congestion control scheme. A `powertcp_run` config picks
/// a shape with `[experiment] kind = <name>`; the entry's loader owns
/// the kind-specific `[topology]`/`[workload]` schema (parsed through
/// the same SectionView machinery that rejects unknown keys with
/// file:line context) and returns a runnable ScenarioConfig. The
/// runner itself has no per-kind switch: adding a paper shape is a
/// registration, not a harness fork.
///
/// Built-in kinds (registered by the constructor, in this order):
///   fat_tree  — Fig. 6/7 FCT sweeps over the websearch fat-tree
///   incast    — Fig. 4 long-flow + N:1 incast time series
///   rdcn      — Fig. 8 reconfigurable-DCN case study
///   dumbbell  — Fig. 5 staggered-flow fairness/stability series
///   homa_oc   — Figs. 9-11 Homa overcommitment sweep
///   single_flow — Fig. 2 analytic reaction curves (no simulation)
///   mixed_cc  — brownfield coexistence: per-host CC mixes x AQM grid
///   fluid_phase — Fig. 3 fluid-model phase portraits (no simulation)

namespace powertcp::harness {

/// The kind-independent `[experiment]` context handed to every
/// scenario loader: resolved schemes, slug prefix, seed, percentile,
/// and the engine and host knobs.
struct ScenarioContext {
  std::string slug_prefix = "run";
  std::vector<SchemeRun> schemes;
  std::uint64_t seed = 1;
  double percentile = 99.0;
  /// Parsed `[experiment] sim_threads` (possibly overridden by the
  /// CLI): event-engine shards per simulation point. 1 is the exact
  /// sequential engine; N > 1 partitions the topology with
  /// conservative lookahead, byte-identical by construction.
  int sim_threads = 1;
  /// Parsed `[telemetry]` section (possibly forced on by the CLI);
  /// loaders copy it into their kind's scenario config.
  TelemetryConfig telemetry;
  /// Parsed `[burst]` section; loaders copy it into their kind's
  /// scenario config. Absent is byte-identical to the per-packet NIC.
  BurstConfig burst;
  /// Parsed `[aqm]` section (kind validated against net::AqmRegistry).
  /// Loaders with switches copy it into their topology config; the
  /// default ("red" + the scheme's ECN profile) is byte-identical to
  /// the pre-AQM-layer behavior.
  net::AqmSpec aqm;
};

/// A parsed, runnable experiment of one scenario kind. Implementations
/// are plain value holders (the concrete types in runner.hpp); run()
/// executes every simulation point on the runner's pool and returns the
/// tables in declaration order — output is a pure function of the
/// config, byte-identical for every thread count.
class ScenarioConfig {
 public:
  virtual ~ScenarioConfig() = default;
  virtual std::vector<ResultTable> run(const SweepRunner& runner) const = 0;
};

struct ScenarioEntry {
  std::string name;     ///< `[experiment] kind = <name>`
  std::string summary;  ///< one line for `powertcp_run --kinds`
  /// Key references rendered by `powertcp_run --kinds` (documentation
  /// only; the loader is authoritative).
  std::string topology_keys;
  std::string workload_keys;
  /// Parses the kind-specific `[topology]`/`[workload]` sections. The
  /// SectionViews are finished (unknown-key check) by the caller, so a
  /// loader only reads the keys it owns. Throws ConfigError on invalid
  /// values, with file:line context from the views.
  using Loader = std::function<std::unique_ptr<ScenarioConfig>(
      const ConfigFile& file, SectionView& topo, SectionView& work,
      const ScenarioContext& ctx)>;
  Loader load;
};

class ScenarioRegistry {
 public:
  /// A fresh registry pre-populated with the built-in kinds. Tests
  /// construct local instances to exercise registration; production
  /// code uses instance().
  ScenarioRegistry();

  /// The process-wide table (thread-safe magic static, immutable).
  static const ScenarioRegistry& instance();

  /// Registers a kind. Throws std::logic_error on an empty name, a
  /// missing loader, or a duplicate registration (naming the entry).
  void add(ScenarioEntry entry);

  /// nullptr when `name` is not registered.
  const ScenarioEntry* find(const std::string& name) const;
  /// Throws std::invalid_argument listing the known kinds.
  const ScenarioEntry& at(const std::string& name) const;

  /// Registration order.
  const std::vector<ScenarioEntry>& entries() const { return entries_; }
  std::vector<std::string> names() const;
  /// "fat_tree, incast, ..." — for error messages and --kinds.
  std::string joined_names() const;

 private:
  std::vector<ScenarioEntry> entries_;
};

/// Registers the built-in kinds; defined in runner.cpp beside the
/// per-kind loaders so the registry core stays schema-free.
void register_builtin_scenarios(ScenarioRegistry& registry);

}  // namespace powertcp::harness
