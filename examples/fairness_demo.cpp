/// Fairness and stability demo (paper Fig. 5): four flows share one
/// bottleneck, arriving two RTT-epochs apart and leaving in reverse
/// order. Prints each flow's throughput over time — PowerTCP converges
/// to the fair share within a few RTTs at every arrival and departure.

#include <array>
#include <cstdio>

#include "cc/registry.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "stats/timeseries.hpp"
#include "topo/dumbbell.hpp"

using namespace powertcp;

int main() {
  sim::Simulator simulator;
  net::Network network(simulator);
  topo::DumbbellConfig cfg;
  cfg.n_senders = 4;
  topo::Dumbbell topo(network, cfg);

  cc::FlowParams params;
  params.host_bw = cfg.host_bw;
  params.base_rtt = topo.base_rtt();
  params.expected_flows = 4;
  const cc::CcFactory factory = cc::make_factory("powertcp");

  const sim::TimePs epoch = sim::microseconds(500);
  std::array<stats::ThroughputSeries, 4> series{
      stats::ThroughputSeries(0, sim::microseconds(50)),
      stats::ThroughputSeries(0, sim::microseconds(50)),
      stats::ThroughputSeries(0, sim::microseconds(50)),
      stats::ThroughputSeries(0, sim::microseconds(50))};
  topo.receiver().set_data_callback(
      [&](net::FlowId flow, std::int64_t bytes, sim::TimePs now) {
        series.at(flow - 1).add_bytes(now, bytes);
      });

  // Flow i joins at i*epoch. Sizes are chosen so flows drain in reverse
  // arrival order, exercising both ramp-down and ramp-up.
  const std::array<std::int64_t, 4> sizes = {9'000'000, 6'500'000, 4'000'000,
                                             1'800'000};
  for (int i = 0; i < 4; ++i) {
    topo.sender(i).start_flow(static_cast<net::FlowId>(i + 1),
                              topo.receiver().id(), sizes.at(i),
                              factory(params), params, i * epoch);
  }

  simulator.run_until(sim::milliseconds(5));

  std::printf("PowerTCP fairness: 4 flows on one 25G bottleneck\n");
  std::printf("%10s %8s %8s %8s %8s\n", "time", "f1", "f2", "f3", "f4");
  for (std::size_t bin = 0; bin < series[0].bin_count(); bin += 4) {
    std::printf("%10s", sim::format_time(series[0].bin_start(bin)).c_str());
    for (const auto& s : series) std::printf(" %8.1f", s.gbps(bin));
    std::printf("\n");
  }
  return 0;
}
