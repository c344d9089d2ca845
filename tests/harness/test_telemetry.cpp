/// Flight-recorder telemetry coverage: `[telemetry]` parsing and
/// validation, the off-path golden (enabling telemetry appends flight
/// tables without perturbing a single byte of the original tables),
/// thread-count byte-identity with telemetry on, and the shape of the
/// emitted flight tables.

#include "harness/telemetry.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/runner.hpp"

namespace powertcp::harness {
namespace {

TelemetryConfig parse_telemetry(const std::string& text) {
  const ConfigFile file = ConfigFile::parse(text, "telemetry.toml");
  TelemetryConfig cfg;
  KeyTable keys(file);
  declare_telemetry_keys(keys, &cfg);
  keys.finish();
  return cfg;
}

TEST(TelemetryConfig, AbsentSectionIsDisabledDefaults) {
  const TelemetryConfig cfg = parse_telemetry("[experiment]\nslug = x\n");
  EXPECT_FALSE(cfg.enabled);
  EXPECT_EQ(cfg.capacity, 512);
  EXPECT_EQ(cfg.sample_every, sim::microseconds(10));
  EXPECT_EQ(cfg.flow, 1);
}

TEST(TelemetryConfig, ParsesAllKeys) {
  const TelemetryConfig cfg = parse_telemetry(
      "[telemetry]\nenabled = true\ncapacity = 64\n"
      "sample_every_us = 2.5\nflow = 3\n");
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.capacity, 64);
  EXPECT_EQ(cfg.sample_every, sim::from_seconds(2.5e-6));
  EXPECT_EQ(cfg.flow, 3);
}

TEST(TelemetryConfig, RejectsOutOfRangeValues) {
  EXPECT_THROW(parse_telemetry("[telemetry]\ncapacity = 1\n"), ConfigError);
  EXPECT_THROW(parse_telemetry("[telemetry]\ncapacity = 2000000\n"),
               ConfigError);
  EXPECT_THROW(parse_telemetry("[telemetry]\nsample_every_us = 0\n"),
               ConfigError);
  EXPECT_THROW(parse_telemetry("[telemetry]\nsample_every_us = -1\n"),
               ConfigError);
  EXPECT_THROW(parse_telemetry("[telemetry]\nflow = 0\n"), ConfigError);
}

TEST(TelemetryConfig, RejectsUnknownKeys) {
  EXPECT_THROW(parse_telemetry("[telemetry]\nperiod_us = 10\n"), ConfigError);
}

// ---- end-to-end through the runner --------------------------------

constexpr const char* kMiniDumbbell = R"(
[experiment]
kind = dumbbell
slug = mini
schemes = powertcp, timely

[workload]
flow_mb = 3, 1.5
stagger_us = 300
horizon_ms = 2
bin_us = 100
row_every = 4
)";

/// Two bandwidths: the time series and the latency table's first
/// column both read the first bandwidth's runs, which carry the tap.
constexpr const char* kMiniRdcn = R"(
[experiment]
kind = rdcn
slug = minirdcn
schemes = powertcp, retcp

[topology]
preset = small

[workload]
packet_gbps = 25, 50
flow_mb = 20
horizon_ms = 0.5
bin_us = 50
)";

/// Two query points (companions only, then a query fan-in) per
/// scheme; the Homa tap has no sender window.
constexpr const char* kMiniIncast = R"(
[experiment]
kind = incast
slug = miniincast
schemes = powertcp, homa

[workload]
query_kb = 0, 400
fan_in = 8
long_companions = 2
burst_at_us = 100
horizon_ms = 0.4
bin_us = 50
)";

/// One load point with the incast overlay on.
constexpr const char* kMiniFatTree = R"(
[experiment]
kind = fat_tree
slug = minift
schemes = powertcp, homa

[workload]
load = 0.3
duration_ms = 0.2
size_scale = 0.05
incast = true
incast_requests_per_sec = 20000
incast_request_kb = 100
incast_fan_in = 8
)";

/// Two (mix, aqm, rtt, buffer) cells: one flight table per cell.
constexpr const char* kMiniMixedCc = R"(
[experiment]
kind = mixed_cc
slug = minimix
schemes = dctcp, powertcp

[workload]
cc_mix = dctcp:0.5+powertcp:0.5
buffer_kb = 0, 16
senders = 4
flow_mb = 0.5
horizon_ms = 1
)";

std::vector<ResultTable> run_mini(bool telemetry, int threads = 2,
                                  const char* text = kMiniDumbbell) {
  RunnerLoadOptions opts;
  opts.force_telemetry = telemetry;
  const RunnerConfig rc =
      load_runner_config(ConfigFile::parse(text, "mini.toml"),
                         ScenarioRegistry::instance(), opts);
  return run_config(rc, SweepRunner(threads));
}

std::string render_all(const std::vector<ResultTable>& tables) {
  std::string out;
  for (const auto& t : tables) {
    out += t.render_text();
    t.append_csv(out);
    t.append_json(out, 0);
    out += '\n';
  }
  return out;
}

bool is_flight(const ResultTable& t) {
  return t.slug.find("_flight") != std::string::npos;
}

/// The off-path golden: turning telemetry ON must not perturb any
/// pre-existing table — it only APPENDS `*_flight` tables. With the
/// flight tables filtered out, the on-run renders byte-identical to
/// the off-run (which is itself the telemetry-free code path every
/// shipped config exercises by default).
TEST(TelemetryGolden, EnablingTelemetryOnlyAppendsFlightTables) {
  struct Mini {
    const char* text;
    std::size_t flights;
  };
  for (const Mini& mini : {Mini{kMiniDumbbell, 2}, Mini{kMiniRdcn, 2},
                           Mini{kMiniIncast, 4}, Mini{kMiniFatTree, 2},
                           Mini{kMiniMixedCc, 2}}) {
    const auto off = run_mini(false, 2, mini.text);
    const auto on = run_mini(true, 2, mini.text);
    for (const auto& t : off) {
      EXPECT_FALSE(is_flight(t)) << t.slug;
    }
    std::vector<ResultTable> on_main;
    std::size_t flights = 0;
    for (const auto& t : on) {
      if (is_flight(t)) {
        ++flights;
      } else {
        on_main.push_back(t);
      }
    }
    EXPECT_EQ(flights, mini.flights)
        << "one flight table per scheme and point (per cell for mixed_cc)\n"
        << mini.text;
    EXPECT_EQ(render_all(off), render_all(on_main)) << mini.text;
  }
}

TEST(TelemetryGolden, FlightTablesAreByteIdenticalAcrossThreadCounts) {
  EXPECT_EQ(render_all(run_mini(true, 1)), render_all(run_mini(true, 3)));
}

TEST(TelemetryGolden, FlightTablesCarryTheFiveChannels) {
  const auto tables = run_mini(true);
  bool seen = false;
  for (const auto& t : tables) {
    if (!is_flight(t)) continue;
    seen = true;
    EXPECT_EQ(t.key_columns, std::vector<std::string>{"time"});
    EXPECT_EQ(t.value_columns,
              (std::vector<std::string>{"qKB", "power", "cwndKB", "paceGbps",
                                        "ecn"}));
    EXPECT_FALSE(t.rows.empty()) << t.slug;
  }
  EXPECT_TRUE(seen);
}

/// The flight tables of `text` at capacity 16, rendered as text.
std::string render_flights(const char* text) {
  const std::string capped =
      std::string(text) + "\n[telemetry]\ncapacity = 16\n";
  std::string out;
  for (const auto& t : run_mini(true, 2, capped.c_str())) {
    if (is_flight(t)) out += t.render_text();
  }
  return out;
}

// Rendered by the mini configs above at capacity 16; regenerate only
// when a tap deliberately changes what or when it samples.
constexpr const char* kDumbbellFlights = R"(=== powertcp flight recorder (bottleneck port + tapped flow) ===
time         qKB  power  cwndKB  paceGbps  ecn
0ps         0.00  0.000   14.69     25.00    0
160.000us   0.00  1.006   14.69     25.00    0
320.000us  12.58  1.743   14.59     24.82    0
480.000us  14.67  2.011   14.69     25.00    0
640.000us  14.67  2.011   14.69     25.00    0
800.000us  14.67  2.011   14.69     25.00    0
960.000us  14.67  2.011   14.69     25.00    0
1.120ms    14.67  2.011   14.69     25.00    0
1.280ms    14.67  2.011   14.69     25.00    0
1.440ms     0.00  1.006   14.69     25.00    0
1.600ms     0.00  0.000    0.00      0.00    0
1.760ms     0.00  0.000    0.00      0.00    0
1.920ms     0.00  0.000    0.00      0.00    0
2.000ms     0.00  0.000    0.00      0.00    0
=== timely flight recorder (bottleneck port + tapped flow) ===
time         qKB  power  cwndKB  paceGbps  ecn
0ps         0.00  0.000   14.69     25.00    0
160.000us   0.00  1.006   58.77     25.00    0
320.000us  39.82  5.226   24.35     10.36    0
480.000us   0.00  0.436   14.35      6.10    0
640.000us   2.10  1.150   34.09     14.50    0
800.000us  13.62  1.293   17.70      7.53    0
960.000us  14.67  0.134   11.68      4.97    0
1.120ms     0.00  0.503   17.69      7.52    0
1.280ms     6.29  1.676   40.11     17.06    0
1.440ms     9.43  1.101   39.20     16.68    0
1.600ms     0.00  1.006   58.77     25.00    0
1.760ms     0.00  0.000    0.00      0.00    0
1.920ms     0.00  0.000    0.00      0.00    0
2.000ms     0.00  0.000    0.00      0.00    0
)";

constexpr const char* kIncastFlights = R"(=== powertcp flight recorder (receiver ToR downlink + long flow) ===
time         qKB  power  cwndKB  paceGbps  ecn
0ps         0.00  0.000   56.58     25.00    0
40.000us    0.00  1.006   56.58     25.00    0
80.000us    0.00  1.006   56.58     25.00    0
120.000us  49.26  3.639   48.82     21.57    0
160.000us  34.58  0.973   31.69     14.00    0
200.000us  32.49  1.795   24.52     10.83    0
240.000us  29.34  1.426   22.31      9.86    0
280.000us  28.30  1.459   21.39      9.45    0
320.000us  27.25  1.441   20.98      9.27    0
360.000us  27.25  1.441   21.18      9.36    0
400.000us  27.25  1.441   21.24      9.39    0
=== homa flight recorder (receiver ToR downlink + long flow) ===
time         qKB  power  cwndKB  paceGbps  ecn
0ps         0.00  0.000    0.00      0.00    0
40.000us    0.00  1.006    0.00      0.00    0
80.000us    0.00  1.006    0.00      0.00    0
120.000us  50.30  3.738    0.00      0.00    0
160.000us   2.10  0.035    0.00      0.00    0
200.000us   2.10  1.043    0.00      0.00    0
240.000us   2.10  1.043    0.00      0.00    0
280.000us   2.10  1.043    0.00      0.00    0
320.000us   2.10  1.043    0.00      0.00    0
360.000us   2.10  1.043    0.00      0.00    0
400.000us   2.10  1.009    0.00      0.00    0
=== powertcp flight recorder (receiver ToR downlink + long flow) ===
time          qKB  power  cwndKB  paceGbps  ecn
0ps          0.00  0.000   56.58     25.00    0
40.000us     0.00  1.006   56.58     25.00    0
80.000us     0.00  1.006   56.58     25.00    0
120.000us   50.30  3.738   48.82     21.57    0
160.000us  175.02  8.099   17.88      7.90    0
200.000us  251.52  5.661    8.93      3.95    0
240.000us  171.87  0.000    8.93      3.95    0
280.000us   71.26  0.152    8.93      3.95    0
320.000us   56.59  3.824   37.68     16.65    0
360.000us   16.77  0.304   18.72      8.27    0
400.000us   30.39  0.928   21.66      9.57    0
=== homa flight recorder (receiver ToR downlink + long flow) ===
time          qKB  power  cwndKB  paceGbps  ecn
0ps          0.00  0.000    0.00      0.00    0
40.000us     0.00  1.006    0.00      0.00    0
80.000us     0.00  1.006    0.00      0.00    0
120.000us   50.30  3.738    0.00      0.00    0
160.000us  175.02  8.099    0.00      0.00    0
200.000us  268.29  5.777    0.00      0.00    0
240.000us  170.82  0.000    0.00      0.00    0
280.000us   45.06  0.000    0.00      0.00    0
320.000us    2.10  1.043    0.00      0.00    0
360.000us    2.10  1.043    0.00      0.00    0
400.000us    2.10  1.009    0.00      0.00    0
)";

constexpr const char* kFatTreeFlights = R"(=== powertcp flight recorder (first ToR uplink + tapped flow) ===
time         qKB  power  cwndKB  paceGbps  ecn
0ps         0.00  0.000   56.58     25.00    0
20.000us    0.00  0.000    0.00      0.00    0
40.000us    0.00  0.420    0.00      0.00    0
60.000us    0.00  0.537    0.00      0.00    0
80.000us    0.00  0.973    0.00      0.00    0
100.000us  22.01  1.211    0.00      0.00    0
120.000us  23.51  1.444    0.00      0.00    0
140.000us   1.05  0.385    0.00      0.00    0
160.000us   0.00  0.102    0.00      0.00    0
180.000us   0.00  0.420    0.00      0.00    0
200.000us   0.00  0.168    0.00      0.00    0
=== homa flight recorder (first ToR uplink + tapped flow) ===
time         qKB  power  cwndKB  paceGbps  ecn
0ps         0.00  0.000    0.00      0.00    0
20.000us    0.00  0.000    0.00      0.00    0
40.000us    0.00  0.420    0.00      0.00    0
60.000us    0.00  0.537    0.00      0.00    0
80.000us    0.00  0.974    0.00      0.00    0
100.000us  26.20  1.472    0.00      0.00    0
120.000us  28.30  1.782    0.00      0.00    0
140.000us   0.00  0.043    0.00      0.00    0
160.000us  18.36  2.068    0.00      0.00    0
180.000us   0.00  0.420    0.00      0.00    0
200.000us   0.00  0.000    0.00      0.00    0
)";

/// Pins what each tap samples and when it is armed relative to the
/// flows it watches: the dumbbell's bottleneck + flow 1, the incast
/// receiver downlink + long flow, and the fat tree's first ToR uplink +
/// first planned arrival.
TEST(TelemetryGolden, FlightTablesMatchPinnedText) {
  EXPECT_EQ(render_flights(kMiniDumbbell), kDumbbellFlights);
  EXPECT_EQ(render_flights(kMiniIncast), kIncastFlights);
  EXPECT_EQ(render_flights(kMiniFatTree), kFatTreeFlights);
}

}  // namespace
}  // namespace powertcp::harness
