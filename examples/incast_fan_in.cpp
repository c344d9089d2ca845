/// Incast scenario (paper Fig. 4): a long flow occupies a receiver's
/// downlink when a synchronized fan-in of responders slams the same
/// bottleneck. Compares how each congestion controller absorbs the
/// burst through harness::run_incast_scenario's burst summary: peak
/// queue, time back to a tenth of it, the queue left after that,
/// drops, and the receiver's goodput.
///
/// Every scheme — the receiver-driven HOMA transport included — is
/// resolved through cc::Registry, so no algorithm is special-cased here.

#include <cstdio>
#include <optional>
#include <string>

#include "harness/scenarios.hpp"

using namespace powertcp;

namespace {

/// "-" when the queue never settled.
std::string cell(const std::optional<double>& v, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v.value_or(0));
  return v ? buf : "-";
}

}  // namespace

int main() {
  // A 1 GB flow from the last host holds host 0's downlink; at 300 us
  // `fan_in` responders in other racks send 50 KB each.
  harness::IncastScenario cfg;
  cfg.long_flow_bytes = 1'000'000'000;
  cfg.long_companions = 0;
  cfg.responder_bytes = 50'000;
  cfg.burst_at = sim::microseconds(300);
  std::printf("Incast fan-in against a long flow (quick fat-tree)\n\n");
  for (const int fan_in : {10, 40}) {
    cfg.fan_in = fan_in;
    std::printf("== %d:1 incast ==\n", fan_in);
    std::printf("%-16s %10s %10s %13s %8s %13s\n", "algorithm", "peakQ(KB)",
                "settle(us)", "residualQ(KB)", "drops", "goodput(Gbps)");
    for (const char* scheme : {"powertcp", "theta-powertcp", "hpcc", "timely",
                               "dcqcn", "dctcp", "homa"}) {
      const harness::IncastSeries s =
          harness::run_incast_scenario(cfg, {"", scheme, {}});
      std::printf("%-16s %10.1f %10s %13s %8llu %13.1f\n", scheme,
                  s.peak_queue_kb, cell(s.settle_us, 1).c_str(),
                  cell(s.residual_queue_kb, 2).c_str(),
                  static_cast<unsigned long long>(s.drops),
                  s.mean_goodput_gbps);
    }
    std::printf("\n");
  }
  return 0;
}
