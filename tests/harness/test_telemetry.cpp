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
  for (const char* text : {kMiniDumbbell, kMiniRdcn}) {
    const auto off = run_mini(false, 2, text);
    const auto on = run_mini(true, 2, text);
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
    EXPECT_EQ(flights, 2u) << "one flight table per scheme";
    EXPECT_EQ(render_all(off), render_all(on_main));
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

}  // namespace
}  // namespace powertcp::harness
