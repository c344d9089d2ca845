/// Ablation of PowerTCP's two parameters (§3.3):
///   γ — the EWMA weight of window updates. The paper recommends 0.9
///       from a sweep: lower γ reacts sluggishly, γ = 1 maximizes
///       reaction speed but passes measurement noise straight through.
///   β — the additive increase HostBw·τ/N. The equilibrium queue is
///       Σβ (Appendix A), so oversized β (small N) buys convergence
///       speed with standing queues.
/// Each row runs the websearch fat-tree experiment at 60% load and the
/// 10:1 incast microbenchmark. Rows are independent simulations and run
/// on the --threads=N pool; output is identical for every N.

#include <cstdio>
#include <functional>
#include <vector>

#include "cc/power_tcp.hpp"
#include "harness/bench_opts.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "net/network.hpp"
#include "stats/timeseries.hpp"
#include "topo/dumbbell.hpp"

using namespace powertcp;
using harness::Cell;

namespace {

struct IncastStats {
  double peak_queue_kb = 0;
  double settle_us = -1;
  double mean_queue_after_kb = 0;  ///< time-weighted, post-settle
};

IncastStats incast_with(const cc::PowerTcpConfig& pcfg, int n_for_beta) {
  sim::Simulator simulator;
  net::Network network(simulator);
  topo::DumbbellConfig cfg;
  cfg.n_senders = 11;
  topo::Dumbbell topo(network, cfg);
  cc::FlowParams params;
  params.host_bw = cfg.host_bw;
  params.base_rtt = topo.base_rtt();
  params.expected_flows = n_for_beta;

  stats::QueueSeries queue;
  topo.bottleneck_port().set_queue_monitor(&queue);
  topo.sender(0).start_flow(
      1, topo.receiver().id(), 1'000'000'000,
      std::make_unique<cc::PowerTcp>(params, pcfg), params, 0);
  const sim::TimePs burst = sim::microseconds(300);
  for (int i = 1; i < 11; ++i) {
    topo.sender(i).start_flow(
        static_cast<net::FlowId>(i + 1), topo.receiver().id(), 500'000,
        std::make_unique<cc::PowerTcp>(params, pcfg), params, burst);
  }
  simulator.run_until(sim::milliseconds(4));

  IncastStats out;
  out.peak_queue_kb = static_cast<double>(queue.max_bytes()) / 1e3;
  const auto threshold = queue.max_bytes() / 10;
  for (const auto& p : queue.points()) {
    if (p.t > burst + sim::microseconds(20) && p.bytes <= threshold) {
      out.settle_us = sim::to_microseconds(p.t - burst);
      break;
    }
  }
  // Residual queueing once the burst is absorbed: γ too low leaves the
  // window misadjusted longer; γ = 1 tracks noise.
  out.mean_queue_after_kb =
      queue.time_weighted_mean(sim::milliseconds(1), sim::milliseconds(4)) /
      1e3;
  return out;
}

harness::ResultTable gamma_table(harness::SweepRunner& runner) {
  const std::vector<double> gammas = {0.1, 0.3, 0.6, 0.9, 1.0};
  std::vector<std::function<IncastStats()>> jobs;
  jobs.reserve(gammas.size());
  for (const double gamma : gammas) {
    jobs.push_back([gamma] {
      cc::PowerTcpConfig pcfg;
      pcfg.gamma = gamma;
      return incast_with(pcfg, 64);
    });
  }
  const std::vector<IncastStats> rows = runner.map(jobs);

  harness::ResultTable t;
  t.title = "gamma ablation: 10:1 incast microbench (N = 64)";
  t.slug = "ablation_gamma";
  t.key_columns = {"gamma"};
  t.value_columns = {"peakQ(KB)", "settle(us)", "residualQ(KB)", "note"};
  for (std::size_t i = 0; i < gammas.size(); ++i) {
    harness::ResultTable::Row row;
    row.keys = {Cell(gammas[i], 2)};
    row.values = {Cell(rows[i].peak_queue_kb, 1),
                  Cell(rows[i].settle_us, 1),
                  Cell(rows[i].mean_queue_after_kb, 2),
                  gammas[i] == 0.9 ? Cell(std::string("<- paper default"))
                                   : Cell()};
    t.rows.push_back(std::move(row));
  }
  return t;
}

harness::ResultTable beta_table(harness::SweepRunner& runner) {
  const std::vector<int> ns = {8, 16, 64, 256};
  std::vector<std::function<std::vector<Cell>()>> jobs;
  jobs.reserve(ns.size());
  for (const int n : ns) {
    jobs.push_back([n] {
      harness::FatTreeExperiment cfg;
      cfg.cc = "powertcp";
      cfg.uplink_load = 0.6;
      cfg.duration = sim::milliseconds(8);
      cfg.size_scale = 0.1;
      cfg.seed = 42;
      cfg.expected_flows = n;
      const harness::ExperimentResult r = harness::run_fat_tree_experiment(cfg);
      const auto s = r.fct.slowdowns_in_range(0, 1'000);
      return std::vector<Cell>{
          s.empty() ? Cell() : Cell(s.percentile(99), 2),
          Cell(r.fct.all_slowdowns().percentile(50), 2),
          Cell(r.uplink_queue_bytes.percentile(99) / 1e3, 1),
          Cell::integer(static_cast<std::int64_t>(r.drops))};
    });
  }
  const std::vector<std::vector<Cell>> rows = runner.map(jobs);

  harness::ResultTable t;
  t.title = "beta ablation: N in beta = HostBw*tau/N (gamma = 0.9)";
  t.slug = "ablation_beta";
  t.key_columns = {"N"};
  t.value_columns = {"short-p99", "all-p50", "uplinkQ-p99(KB)", "drops"};
  for (std::size_t i = 0; i < ns.size(); ++i) {
    t.rows.push_back({{Cell::integer(ns[i])}, rows[i]});
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = harness::BenchOptions::parse(argc, argv);
  if (opts.help) {
    std::fputs(
        harness::BenchOptions::usage("bench_ablation_params").c_str(),
        stdout);
    return 0;
  }
  if (!opts.ok) return 2;

  harness::BenchReporter reporter("bench_ablation_params", opts);
  reporter.add(gamma_table(reporter.runner()));
  reporter.add(beta_table(reporter.runner()));
  std::printf("\nlarger N (smaller beta) -> lower standing queues and\n"
              "better tail FCTs, at slower fairness convergence "
              "(Theorem 3 weights).\n");
  return reporter.finish();
}
