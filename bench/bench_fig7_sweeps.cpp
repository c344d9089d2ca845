/// Reproduces Fig. 7 (a-h): the detailed PowerTCP / θ-PowerTCP / HPCC
/// comparison.
///   (a,b) short/long-flow tail slowdown across 20-80% load;
///   (c,d) tail slowdown vs incast request *rate* (websearch@80% +
///         2MB-request incast overlay);
///   (e,f) tail slowdown vs incast request *size* (rate 256/s);
///   (g)   fabric buffer-occupancy CDF at 80% load;
///   (h)   buffer-occupancy CDF under the bursty overlay.
/// Same scaling conventions as configs/fig6_quick.toml (see
/// docs/architecture.md, "Scaling conventions").
///
/// Sweep points are independent simulations; all five tables' points
/// run as one job list on a thread pool (--threads=N), and tables are
/// identical for every N. --csv/--json emit
/// machine-readable copies of every table.

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "harness/bench_opts.hpp"
#include "harness/experiment.hpp"

using namespace powertcp;
using harness::Cell;

namespace {

struct RunSpec {
  sim::TimePs duration = sim::milliseconds(8);
  double size_scale = 0.1;
  double pct = 99.0;
};

using Metrics =
    std::function<std::vector<Cell>(const harness::ExperimentResult&)>;

/// Every table's points as one job list, in row order: job i fills the
/// values of the i-th row across all tables.
struct Sweep {
  std::vector<harness::ResultTable> tables;
  std::vector<std::function<std::vector<Cell>()>> jobs;

  /// Starts a table; the points added next are its rows.
  void table(std::string title, std::string slug,
             std::vector<std::string> key_columns,
             std::vector<std::string> value_columns) {
    tables.push_back({std::move(title), std::move(slug),
                      std::move(key_columns), std::move(value_columns), {}});
  }

  /// Adds a row to the last table, measured by `metrics` on `cfg`'s run.
  void point(std::vector<Cell> keys, const harness::FatTreeExperiment& cfg,
             const Metrics& metrics) {
    tables.back().rows.push_back({std::move(keys), {}});
    jobs.push_back([cfg, metrics] {
      return metrics(harness::run_fat_tree_experiment(cfg));
    });
  }
};

harness::FatTreeExperiment base_cfg(const std::string& algo,
                                    const RunSpec& spec) {
  harness::FatTreeExperiment cfg;
  cfg.cc = algo;
  cfg.duration = spec.duration;
  cfg.size_scale = spec.size_scale;
  cfg.seed = 7;
  return cfg;
}

Cell pct_cell(const stats::Samples& s, double pct) {
  return s.empty() ? Cell() : Cell(s.percentile(pct), 2);
}

/// Short/long-flow tail slowdown extractor shared by Figs. 7a-7f.
Metrics slowdown_metrics(const RunSpec& spec, bool with_drops) {
  return [spec, with_drops](const harness::ExperimentResult& r) {
    const auto s = r.fct.slowdowns_in_range(
        0, static_cast<std::int64_t>(10'000 * spec.size_scale));
    const auto l = r.fct.slowdowns_in_range(
        static_cast<std::int64_t>(1'000'000 * spec.size_scale), INT64_MAX);
    std::vector<Cell> row = {pct_cell(s, spec.pct), pct_cell(l, spec.pct)};
    if (with_drops) {
      row.push_back(Cell::integer(static_cast<std::int64_t>(r.drops)));
    }
    return row;
  };
}

void fig7ab(Sweep& sweep, const RunSpec& spec,
            const std::vector<std::string>& algos) {
  char title[96];
  std::snprintf(title, sizeof(title),
                "Fig. 7a/7b: p%.1f slowdown vs load", spec.pct);
  sweep.table(title, "fig7ab", {"algorithm", "load%"},
              {"short(<10K)", "long(>=1M)", "drops"});
  const Metrics metrics = slowdown_metrics(spec, /*with_drops=*/true);
  for (const double load : {0.2, 0.4, 0.6, 0.8}) {
    for (const auto& algo : algos) {
      harness::FatTreeExperiment cfg = base_cfg(algo, spec);
      cfg.uplink_load = load;
      sweep.point({Cell(algo), Cell(load * 100, 0)}, cfg, metrics);
    }
  }
}

void fig7cd(Sweep& sweep, const RunSpec& spec,
            const std::vector<std::string>& algos) {
  char title[128];
  std::snprintf(title, sizeof(title),
                "Fig. 7c/7d: p%.1f slowdown vs incast request rate "
                "(websearch@80%%, request size 2MB x%.2f)",
                spec.pct, spec.size_scale);
  sweep.table(title, "fig7cd", {"algorithm", "rate/s"},
              {"short(<10K)", "long(>=1M)"});
  const Metrics metrics = slowdown_metrics(spec, /*with_drops=*/false);
  // Rates scaled up vs the paper's 1-16/s because the horizon is ms,
  // not seconds; the ratio of burst bytes to background is preserved.
  for (const double rate : {64.0, 256.0, 512.0, 1024.0}) {
    for (const auto& algo : algos) {
      harness::FatTreeExperiment cfg = base_cfg(algo, spec);
      cfg.uplink_load = 0.8;
      cfg.incast = true;
      cfg.incast_requests_per_sec = rate;
      cfg.incast_request_bytes =
          static_cast<std::int64_t>(2'000'000 * spec.size_scale);
      sweep.point({Cell(algo), Cell(rate, 0)}, cfg, metrics);
    }
  }
}

void fig7ef(Sweep& sweep, const RunSpec& spec,
            const std::vector<std::string>& algos) {
  char title[96];
  std::snprintf(title, sizeof(title),
                "Fig. 7e/7f: p%.1f slowdown vs incast request size "
                "(rate 256/s)",
                spec.pct);
  sweep.table(title, "fig7ef", {"algorithm", "sizeMB"},
              {"short(<10K)", "long(>=1M)"});
  const Metrics metrics = slowdown_metrics(spec, /*with_drops=*/false);
  for (const double mb : {1.0, 2.0, 4.0, 8.0}) {
    for (const auto& algo : algos) {
      harness::FatTreeExperiment cfg = base_cfg(algo, spec);
      cfg.uplink_load = 0.8;
      cfg.incast = true;
      cfg.incast_requests_per_sec = 256.0;
      cfg.incast_request_bytes =
          static_cast<std::int64_t>(mb * 1e6 * spec.size_scale);
      sweep.point({Cell(algo), Cell(mb, 0)}, cfg, metrics);
    }
  }
}

void fig7gh(Sweep& sweep, const RunSpec& spec,
            const std::vector<std::string>& algos, bool bursty) {
  // Columns come from the serializable summary form, so table headers
  // and the metrics row below cannot drift apart.
  std::vector<std::string> columns;
  for (const auto& nv : stats::SampleSummary{}.named_values()) {
    columns.push_back(nv.first);
  }
  sweep.table(bursty ? "Fig. 7h: ToR-uplink buffer occupancy at 80% load, "
                       "with incast overlay (KB at CDF points)"
                     : "Fig. 7g: ToR-uplink buffer occupancy at 80% load "
                       "(KB at CDF points)",
              bursty ? "fig7h" : "fig7g", {"algorithm"}, std::move(columns));
  const Metrics metrics = [](const harness::ExperimentResult& r) {
    std::vector<Cell> row;
    for (const auto& nv : r.uplink_queue_bytes.summary().named_values()) {
      row.push_back(Cell(nv.second / 1e3, 1));
    }
    return row;
  };
  for (const auto& algo : algos) {
    harness::FatTreeExperiment cfg = base_cfg(algo, spec);
    cfg.uplink_load = 0.8;
    if (bursty) {
      cfg.incast = true;
      cfg.incast_requests_per_sec = 512.0;
      cfg.incast_request_bytes =
          static_cast<std::int64_t>(2'000'000 * spec.size_scale);
    }
    sweep.point({Cell(algo)}, cfg, metrics);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = harness::BenchOptions::parse(argc, argv);
  if (opts.help) {
    std::fputs(harness::BenchOptions::usage("bench_fig7_sweeps").c_str(),
               stdout);
    return 0;
  }
  if (!opts.ok) return 2;

  RunSpec spec;
  if (opts.fast) spec.duration = sim::milliseconds(6);
  if (opts.full) {
    spec.duration = sim::milliseconds(100);
    spec.size_scale = 1.0;
    spec.pct = 99.9;
  }
  const std::vector<std::string> algos = {"powertcp", "theta-powertcp",
                                          "hpcc"};

  Sweep sweep;
  fig7ab(sweep, spec, algos);
  fig7cd(sweep, spec, algos);
  fig7ef(sweep, spec, algos);
  fig7gh(sweep, spec, algos, /*bursty=*/false);
  fig7gh(sweep, spec, algos, /*bursty=*/true);

  harness::BenchReporter reporter("bench_fig7_sweeps", opts);
  const std::vector<std::vector<Cell>> rows = reporter.runner().map(sweep.jobs);
  std::size_t i = 0;
  for (auto& t : sweep.tables) {
    for (auto& row : t.rows) row.values = rows[i++];
    reporter.add(std::move(t));
  }
  return reporter.finish();
}
