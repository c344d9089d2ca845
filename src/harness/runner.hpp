#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness/config.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario_registry.hpp"
#include "harness/scenarios.hpp"
#include "harness/sweep.hpp"

/// \file runner.hpp
/// The config-file-driven experiment runner behind `powertcp_run`: a
/// RunnerConfig names one scenario kind (resolved through
/// harness::ScenarioRegistry) plus its parsed, runnable ScenarioConfig,
/// and run_config() executes it through SweepRunner into ResultTables.
/// The runner has no per-kind switch: each kind below owns its
/// `[topology]`/`[workload]` schema and its table emission, and its
/// simulations run on the point builders of point.hpp. Every figure of
/// the paper is a shipped `configs/*.toml`; this is the one path that
/// runs them.
///
/// A config has an `[experiment]` section (kind, slug, schemes, ...),
/// the kind's `[topology]`/`[workload]` sections, optional `[aqm]` and
/// `[telemetry]` sections, and a `[cc.<label>]` section per scheme
/// label that needs tunables. `powertcp_run --kinds` prints every key
/// with its unit, default and bound (docs/reproducing.md carries the
/// same reference). A `[cc.<label>]` section may carry
/// `scheme = <registered name>` to run one scheme several times under
/// different labels/params (e.g. reTCP-600us vs reTCP-1800us).

namespace powertcp::harness {

/// A loaded experiment: the kind name plus the registry-parsed
/// scenario (one of the concrete kind types below; for a PointsConfig
/// kind, its first point, which holds the rest in `next`).
struct RunnerConfig {
  std::string kind = "fat_tree";
  std::shared_ptr<const ScenarioConfig> scenario;
};

// ---- the built-in scenario kinds ----------------------------------
// One concrete ScenarioConfig per registered kind; declare() and bind()
// live in runner.cpp. bind() copies in what else of the shared context
// the kind needs, so run() is self-contained.

/// kind == "fat_tree": the workhorse FCT experiment, one point per
/// (load, incast overlay) entry. Each point writes one FCT table plus
/// its ToR-uplink occupancy table (Figs. 6 and 7).
struct FatTreeKindConfig final : PointsConfig {
  std::string preset = "quick";  ///< quick | paper: fat_tree.topo's base
  /// This point; run() runs it once per scheme.
  FatTreeExperiment fat_tree;
  double percentile = 99.0;
  void declare(KeyTable& keys) override;
  void bind(const ScenarioContext& ctx, const KeyTable& keys) override;
  std::string point_name() const override { return load_table().slug; }
  std::vector<ResultTable> run(const SweepRunner& runner) const override;
  /// This point's Fig. 6/7 FCT table before any row is filled: title,
  /// slug and columns. run() adds one row per scheme.
  ResultTable load_table() const;
};

/// kind == "incast": one Fig. 4-style table per (query_kb, fan_in)
/// point.
struct IncastKindConfig final : PointsConfig {
  std::string preset = "quick";  ///< quick | paper: incast.topo's base
  /// This point; bind() splits query_bytes across its fan_in.
  IncastScenario incast;
  std::int64_t query_bytes = 0;  ///< 0 = companions only
  void declare(KeyTable& keys) override;
  void bind(const ScenarioContext& ctx, const KeyTable& keys) override;
  std::string point_name() const override;
  std::vector<ResultTable> run(const SweepRunner& runner) const override;
};

/// kind == "rdcn": a time series at the first point's packet bandwidth
/// plus a p99 latency table with one column per point. Its fabric
/// marks no packets and runs no AQM, so bind() rejects marking-driven
/// schemes (DCQCN, DCTCP), Homa and every `[aqm]` key.
struct RdcnKindConfig final : PointsConfig {
  std::string preset = "paper";  ///< small | paper: rdcn.topo's base
  /// This point; packet_gbps sets topo.packet_bw.
  RdcnScenario rdcn;
  void declare(KeyTable& keys) override;
  void bind(const ScenarioContext& ctx, const KeyTable& keys) override;
  /// Its p99 column.
  std::string point_name() const override;
  std::vector<ResultTable> run(const SweepRunner& runner) const override;
};

/// kind == "dumbbell": Fig. 5 per-flow goodput series, one table per
/// scheme.
struct DumbbellKindConfig final : ScenarioConfig {
  DumbbellScenario dumbbell;
  void declare(KeyTable& keys) override;
  void bind(const ScenarioContext& ctx, const KeyTable& keys) override;
  std::vector<ResultTable> run(const SweepRunner& runner) const override;
};

/// kind == "homa_oc": Figs. 9-11 overcommitment sweep (message
/// transports only).
struct HomaOcKindConfig final : ScenarioConfig {
  std::string preset = "quick";  ///< quick | paper: incast.topo's base
  HomaOcScenario homa_oc;
  void declare(KeyTable& keys) override;
  void bind(const ScenarioContext& ctx, const KeyTable& keys) override;
  std::vector<ResultTable> run(const SweepRunner& runner) const override;
};

/// kind == "single_flow": Fig. 2's analytic single-flow reaction
/// curves — the multiplicative decrease of the voltage- (queue
/// length), current- (RTT gradient) and power-based laws on one
/// bottleneck, from analysis::feedback_ratio. Deterministic closed
/// forms: no simulation runs, so `[experiment] schemes/seed/
/// percentile` and `[telemetry]` are carried by the file format but
/// ignored (the documented pattern for deterministic kinds). Defaults
/// are exactly the paper's illustrative setting (25G, BDP = 22.32 pkts of 1 KB) so the printed factors
/// (3.24 / 2.12 / 9 / 1) come out exactly.
struct SingleFlowKindConfig final : ScenarioConfig {
  double bandwidth_gbps = 25.0;  ///< bottleneck b
  double bdp_packets = 22.32;    ///< b·τ in packets (fixes τ)
  double packet_kb = 1.0;        ///< packet size (Fig. 2's unit)
  double hold_queue_pkts = 25;   ///< Fig. 2a's fixed queue length
  double hold_rate_x = 1;        ///< Fig. 2b's fixed buildup rate (x bw)
  double rate_max_x = 8;         ///< Fig. 2a sweeps 0..rate_max_x step 1
  double queue_max_pkts = 60;    ///< Fig. 2b sweeps 0..queue_max_pkts
  double queue_step_pkts = 10;   ///< ... in this step
  void declare(KeyTable& keys) override;
  void bind(const ScenarioContext& ctx, const KeyTable& keys) override;
  std::vector<ResultTable> run(const SweepRunner& runner) const override;
};

/// kind == "mixed_cc": brownfield coexistence. Per-host CC mixes
/// (`cc_mix = "dctcp:0.5+powertcp:0.5"` entries over the resolved
/// scheme labels) share one dumbbell bottleneck, swept over the
/// (mix, aqm, rtt, buffer) grid down to the Tiny-Buffer regime; each
/// cell is one DumbbellPoint. Emits fairness / throughput-share / FCT
/// tables, one row per cell (x member for the per-member tables), and
/// with `[telemetry]` one `<slug>_cell<N>_flight` table per cell.
struct MixedCcKindConfig final : ScenarioConfig {
  MixedCcScenario mixed;
  /// `cc_mix` entries as written; bind() resolves them into
  /// mixed.mixes.
  std::vector<std::string> cc_mix;
  void declare(KeyTable& keys) override;
  void bind(const ScenarioContext& ctx, const KeyTable& keys) override;
  std::vector<ResultTable> run(const SweepRunner& runner) const override;
};

/// kind == "fluid_phase": Fig. 3's fluid-model phase portraits — the
/// four control laws integrated from a grid of initial (window, queue)
/// states, plus the Theorem 1/2 stability summary. Deterministic
/// closed-form integration: no simulation runs, so `[experiment]
/// schemes/seed/percentile` and `[telemetry]` are carried by the file
/// format but ignored (the documented pattern for deterministic
/// kinds). Defaults are the paper's setting (100G,
/// 20us RTT, beta = 0.01 BDP).
struct FluidPhaseKindConfig final : ScenarioConfig {
  double bandwidth_gbps = 100.0;     ///< bottleneck b
  double base_rtt_us = 20.0;         ///< base RTT tau
  double gamma = 0.9;                ///< EWMA gain
  double update_interval_us = 20.0;  ///< per-RTT update period
  double beta_frac = 0.01;           ///< additive term as a BDP fraction
  double duration_ms = 4.0;          ///< integration horizon
  double step_us = 0.2;              ///< Euler step
  double sample_us = 2.0;            ///< trajectory sampling period
  /// Initial states in BDP units, paired index-wise (w_bdp[i], q_bdp[i]).
  std::vector<double> grid_w_bdp = {0.3, 3, 1, 4, 0.5, 6};
  std::vector<double> grid_q_bdp = {0, 0, 2, 1, 3, 4};
  void declare(KeyTable& keys) override;
  void bind(const ScenarioContext& ctx, const KeyTable& keys) override;
  std::vector<ResultTable> run(const SweepRunner& runner) const override;
};

/// CLI-level overrides applied on top of the parsed file.
struct RunnerLoadOptions {
  /// `powertcp_run --telemetry`: enable the flight recorder even when
  /// the file has no `[telemetry] enabled = true` (file-set capacity/
  /// period/flow keys still apply).
  bool force_telemetry = false;
};

/// Declares the shared `[experiment]`, `[aqm]` and `[telemetry]` keys
/// (`kind` chooses among ScenarioRegistry's kinds).
void declare_shared_keys(KeyTable& keys, ScenarioContext* ctx);

/// The `powertcp_run --kinds` reference: the shared sections' keys,
/// then each kind's summary and `[topology]`/`[workload]` keys, each
/// with unit, default and bound.
std::string kinds_reference();

/// Builds a RunnerConfig from a parsed file, resolving the kind
/// through ScenarioRegistry; a PointsConfig kind is declared and bound once
/// per point. Throws ConfigError, with the offending line, on unknown
/// kinds (listing the registered ones), unknown sections/keys,
/// out-of-bound values, unregistered or repeated schemes, scheme
/// params not declared by the registry entry, listed keys of unequal
/// lengths or under a kind without points, and two points that would
/// write one table or column.
RunnerConfig load_runner_config(const ConfigFile& file,
                                const RunnerLoadOptions& options = {});

/// Executes every point and returns the tables in declaration order.
/// Output is a pure function of the config: tables are identical for
/// every runner thread count. Throws std::logic_error if two tables
/// share a slug.
std::vector<ResultTable> run_config(const RunnerConfig& cfg,
                                    const SweepRunner& runner);

}  // namespace powertcp::harness
