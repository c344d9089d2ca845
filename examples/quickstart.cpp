/// Quickstart: build a single-bottleneck network, run one PowerTCP flow
/// plus a burst of competitors, and print throughput / queue / FCT
/// figures — the smallest end-to-end tour of the public API.

#include <cstdio>

#include "cc/registry.hpp"
#include "host/flow.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "stats/timeseries.hpp"
#include "topo/dumbbell.hpp"

using namespace powertcp;

int main() {
  sim::Simulator simulator;
  net::Network network(simulator);

  // 10 senders and one receiver behind a 25 Gbps bottleneck.
  topo::DumbbellConfig topo_cfg;
  topo_cfg.n_senders = 10;
  topo::Dumbbell topo(network, topo_cfg);

  const sim::TimePs tau = topo.base_rtt();
  cc::FlowParams params;
  params.host_bw = topo_cfg.host_bw;
  params.base_rtt = tau;

  // Monitor the bottleneck queue and the receiver's goodput.
  stats::QueueSeries queue;
  topo.bottleneck_port().set_queue_monitor(&queue);
  stats::ThroughputSeries goodput(0, sim::microseconds(50));
  topo.receiver().set_data_callback(
      [&](net::FlowId, std::int64_t bytes, sim::TimePs now) {
        goodput.add_bytes(now, bytes);
      });

  // One long flow from sender 0, then at t=200us nine short flows join.
  const cc::CcFactory make_cc = cc::make_factory("powertcp");
  std::printf("PowerTCP quickstart: 10 flows over one 25G bottleneck\n");
  std::printf("base RTT (tau) = %s, BDP = %.1f KB\n\n",
              sim::format_time(tau).c_str(), params.bdp_bytes() / 1e3);

  topo.sender(0).start_flow(/*flow=*/1, topo.receiver().id(),
                            /*size=*/20'000'000, make_cc(params), params,
                            /*start=*/0);
  for (int i = 1; i < 10; ++i) {
    topo.sender(i).start_flow(
        static_cast<net::FlowId>(i + 1), topo.receiver().id(),
        /*size=*/500'000, make_cc(params), params,
        /*start=*/sim::microseconds(200),
        [](const host::FlowCompletion& done) {
          std::printf("  flow %llu (%lld bytes) finished in %s\n",
                      static_cast<unsigned long long>(done.flow),
                      static_cast<long long>(done.size_bytes),
                      sim::format_time(done.finish - done.start).c_str());
        });
  }

  simulator.run_until(sim::milliseconds(4));

  std::printf("\nbottleneck over time (100us bins):\n");
  std::printf("%10s %12s %12s\n", "time", "gbps", "queue(KB)");
  for (std::size_t bin = 0; bin + 1 < goodput.bin_count(); bin += 2) {
    const sim::TimePs t = goodput.bin_start(bin);
    std::printf("%10s %12.1f %12.1f\n", sim::format_time(t).c_str(),
                (goodput.gbps(bin) + goodput.gbps(bin + 1)) / 2.0,
                static_cast<double>(queue.at(t)) / 1e3);
  }
  std::printf("\nmax queue: %.1f KB; drops: %llu\n",
              static_cast<double>(queue.max_bytes()) / 1e3,
              static_cast<unsigned long long>(
                  topo.bottleneck_switch().total_drops()));
  return 0;
}
