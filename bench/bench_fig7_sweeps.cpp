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
/// Sweep points are independent simulations, executed on a thread pool
/// (--threads=N); tables are identical for every N. --csv/--json emit
/// machine-readable copies of every table.

#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_opts.hpp"
#include "harness/sweep.hpp"

using namespace powertcp;
using harness::Cell;

namespace {

struct RunSpec {
  sim::TimePs duration = sim::milliseconds(8);
  double size_scale = 0.1;
  double pct = 99.0;
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
auto slowdown_metrics(const RunSpec& spec, bool with_drops) {
  return [spec, with_drops](const harness::FatTreeExperiment&,
                            const harness::ExperimentResult& r) {
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

harness::SweepSpec fig7ab(const RunSpec& spec,
                          const std::vector<std::string>& algos) {
  harness::SweepSpec sw;
  char title[96];
  std::snprintf(title, sizeof(title),
                "Fig. 7a/7b: p%.1f slowdown vs load", spec.pct);
  sw.title = title;
  sw.slug = "fig7ab";
  sw.key_columns = {"algorithm", "load%"};
  sw.value_columns = {"short(<10K)", "long(>=1M)", "drops"};
  for (const double load : {0.2, 0.4, 0.6, 0.8}) {
    for (const auto& algo : algos) {
      harness::SweepPoint p;
      p.keys = {Cell(algo), Cell(load * 100, 0)};
      p.cfg = base_cfg(algo, spec);
      p.cfg.uplink_load = load;
      sw.points.push_back(std::move(p));
    }
  }
  sw.metrics = slowdown_metrics(spec, /*with_drops=*/true);
  return sw;
}

harness::SweepSpec fig7cd(const RunSpec& spec,
                          const std::vector<std::string>& algos) {
  harness::SweepSpec sw;
  char title[128];
  std::snprintf(title, sizeof(title),
                "Fig. 7c/7d: p%.1f slowdown vs incast request rate "
                "(websearch@80%%, request size 2MB x%.2f)",
                spec.pct, spec.size_scale);
  sw.title = title;
  sw.slug = "fig7cd";
  sw.key_columns = {"algorithm", "rate/s"};
  sw.value_columns = {"short(<10K)", "long(>=1M)"};
  // Rates scaled up vs the paper's 1-16/s because the horizon is ms,
  // not seconds; the ratio of burst bytes to background is preserved.
  for (const double rate : {64.0, 256.0, 512.0, 1024.0}) {
    for (const auto& algo : algos) {
      harness::SweepPoint p;
      p.keys = {Cell(algo), Cell(rate, 0)};
      p.cfg = base_cfg(algo, spec);
      p.cfg.uplink_load = 0.8;
      p.cfg.incast = true;
      p.cfg.incast_requests_per_sec = rate;
      p.cfg.incast_request_bytes =
          static_cast<std::int64_t>(2'000'000 * spec.size_scale);
      sw.points.push_back(std::move(p));
    }
  }
  sw.metrics = slowdown_metrics(spec, /*with_drops=*/false);
  return sw;
}

harness::SweepSpec fig7ef(const RunSpec& spec,
                          const std::vector<std::string>& algos) {
  harness::SweepSpec sw;
  char title[96];
  std::snprintf(title, sizeof(title),
                "Fig. 7e/7f: p%.1f slowdown vs incast request size "
                "(rate 256/s)",
                spec.pct);
  sw.title = title;
  sw.slug = "fig7ef";
  sw.key_columns = {"algorithm", "sizeMB"};
  sw.value_columns = {"short(<10K)", "long(>=1M)"};
  for (const double mb : {1.0, 2.0, 4.0, 8.0}) {
    for (const auto& algo : algos) {
      harness::SweepPoint p;
      p.keys = {Cell(algo), Cell(mb, 0)};
      p.cfg = base_cfg(algo, spec);
      p.cfg.uplink_load = 0.8;
      p.cfg.incast = true;
      p.cfg.incast_requests_per_sec = 256.0;
      p.cfg.incast_request_bytes =
          static_cast<std::int64_t>(mb * 1e6 * spec.size_scale);
      sw.points.push_back(std::move(p));
    }
  }
  sw.metrics = slowdown_metrics(spec, /*with_drops=*/false);
  return sw;
}

harness::SweepSpec fig7gh(const RunSpec& spec,
                          const std::vector<std::string>& algos,
                          bool bursty) {
  harness::SweepSpec sw;
  sw.title = bursty ? "Fig. 7h: ToR-uplink buffer occupancy at 80% load, "
                      "with incast overlay (KB at CDF points)"
                    : "Fig. 7g: ToR-uplink buffer occupancy at 80% load "
                      "(KB at CDF points)";
  sw.slug = bursty ? "fig7h" : "fig7g";
  sw.key_columns = {"algorithm"};
  // Columns come from the serializable summary form, so table headers
  // and the metrics row below cannot drift apart.
  for (const auto& nv : stats::SampleSummary{}.named_values()) {
    sw.value_columns.push_back(nv.first);
  }
  for (const auto& algo : algos) {
    harness::SweepPoint p;
    p.keys = {Cell(algo)};
    p.cfg = base_cfg(algo, spec);
    p.cfg.uplink_load = 0.8;
    if (bursty) {
      p.cfg.incast = true;
      p.cfg.incast_requests_per_sec = 512.0;
      p.cfg.incast_request_bytes =
          static_cast<std::int64_t>(2'000'000 * spec.size_scale);
    }
    sw.points.push_back(std::move(p));
  }
  sw.metrics = [](const harness::FatTreeExperiment&,
                  const harness::ExperimentResult& r) {
    std::vector<Cell> row;
    for (const auto& nv : r.uplink_queue_bytes.summary().named_values()) {
      row.push_back(Cell(nv.second / 1e3, 1));
    }
    return row;
  };
  return sw;
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

  harness::BenchReporter reporter("bench_fig7_sweeps", opts);
  reporter.add(reporter.runner().run(fig7ab(spec, algos)));
  reporter.add(reporter.runner().run(fig7cd(spec, algos)));
  reporter.add(reporter.runner().run(fig7ef(spec, algos)));
  reporter.add(reporter.runner().run(fig7gh(spec, algos, false)));
  reporter.add(reporter.runner().run(fig7gh(spec, algos, true)));
  return reporter.finish();
}
