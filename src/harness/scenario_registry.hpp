#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/keys.hpp"
#include "harness/scenarios.hpp"
#include "harness/sweep.hpp"

/// \file scenario_registry.hpp
/// The scenario registry: one entry per experiment *shape* (topology +
/// workload + table emission), mirroring how cc::Registry owns one
/// entry per congestion control scheme. A `powertcp_run` config picks
/// a shape with `[experiment] kind = <name>`; the entry's config type
/// declares the kind-specific `[topology]`/`[workload]` keys in one
/// KeyTable (keys.hpp), which loads them with file:line errors and
/// renders them for `--kinds`. The runner itself has no per-kind
/// switch: adding a paper shape is a registration, not a harness fork.
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

/// The shared sections every scenario kind reads: `[experiment]`
/// (kind, slug, schemes, seed, percentile), `[aqm]` and
/// `[telemetry]`, as declared by declare_shared_keys (runner.hpp) and
/// possibly overridden by the CLI.
struct ScenarioContext {
  std::string kind = "fat_tree";
  std::string slug_prefix = "run";
  /// The `schemes` labels as written; resolved into `schemes`.
  std::vector<std::string> scheme_labels;
  std::vector<SchemeRun> schemes;
  std::int64_t seed = 1;
  double percentile = 99.0;
  /// Simulated kinds copy it into their scenario config.
  TelemetryConfig telemetry;
  /// The switch marking/drop policy (kind from net::AqmRegistry).
  /// Kinds with switches copy it into their topology config; the
  /// default ("red" + the scheme's ECN profile) is byte-identical to
  /// the pre-AQM-layer behavior.
  net::AqmSpec aqm;
};

/// A parsed, runnable experiment of one scenario kind. Implementations
/// are plain value holders (the concrete types in runner.hpp) whose
/// default-constructed state is the kind's defaults.
class ScenarioConfig {
 public:
  virtual ~ScenarioConfig() = default;
  /// The resolved `[experiment] schemes` and `slug`, which the loader
  /// sets before bind().
  std::vector<SchemeRun> schemes;
  std::string slug_prefix = "run";

  /// Declares every `[topology]`/`[workload]` key of the kind, one
  /// KeyTable line per key: the kind's whole schema, used both to load
  /// a config and to render `powertcp_run --kinds`.
  virtual void declare(KeyTable& keys) = 0;
  /// Load mode, after declare(): takes the shared context and runs the
  /// checks that span several keys, rejecting through `keys`.
  virtual void bind(const ScenarioContext& ctx, const KeyTable& keys) = 0;
  /// Executes every simulation point on the runner's pool and returns
  /// the tables in declaration order — output is a pure function of
  /// the config, byte-identical for every thread count.
  virtual std::vector<ResultTable> run(const SweepRunner& runner) const = 0;
};

/// A kind whose output is per point (fat_tree, incast and rdcn): any
/// scalar `[topology]`/`[workload]` key may list one value per point.
/// The loader binds one object per point and hands the rest to the
/// first, whose run() runs them all in entry order in one pool call.
class PointsConfig : public ScenarioConfig {
 public:
  /// The table slug or column name this point writes: no two points of
  /// one config may share it.
  virtual std::string point_name() const = 0;

  /// The points after this one, each of this object's kind.
  std::vector<std::shared_ptr<const ScenarioConfig>> next;

 protected:
  /// This point, then `next`.
  template <typename Kind>
  std::vector<const Kind*> points() const {
    std::vector<const Kind*> out{static_cast<const Kind*>(this)};
    for (const auto& p : next) out.push_back(static_cast<const Kind*>(p.get()));
    return out;
  }
};

struct ScenarioEntry {
  std::string name;     ///< `[experiment] kind = <name>`
  std::string summary;  ///< one line for `powertcp_run --kinds`
  /// A default-constructed config of the kind.
  std::function<std::unique_ptr<ScenarioConfig>()> make;
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
  /// missing factory, or a duplicate registration (naming the entry).
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

/// Registers the built-in kinds; defined in runner.cpp beside their
/// key declarations so the registry core stays schema-free.
void register_builtin_scenarios(ScenarioRegistry& registry);

}  // namespace powertcp::harness
