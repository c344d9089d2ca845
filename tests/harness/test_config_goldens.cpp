/// Byte-identity goldens for every shipped config: each file in
/// configs/ must render exactly the text/CSV/JSON committed in
/// tests/goldens/ under its stem. The suite is instantiated from a
/// listing of configs/*.toml, so a config shipped without goldens
/// fails here instead of going unpinned. The configs are the one way
/// to run a figure, so this is the regression fence for every figure
/// the harness reproduces.
///
/// The fixture name is deliberately outside the tsan test filter:
/// these runs are the heaviest in the suite and the pool race they
/// would exercise is already covered by the SweepRunner/Runner tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/runner.hpp"

#ifndef POWERTCP_SOURCE_DIR
#define POWERTCP_SOURCE_DIR "."
#endif

namespace powertcp::harness {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ADD_FAILURE() << "missing file: " << path;
    return {};
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Renders tables exactly as `powertcp_run` does: text with a blank
/// line between tables (BenchReporter::add), the long-format CSV with
/// its header (BenchReporter::finish with a fresh file), and the JSON
/// document with the fixed "powertcp_run" bench name.
struct Rendered {
  std::string text;
  std::string csv;
  std::string json;
};

Rendered render_like_cli(const std::vector<ResultTable>& tables) {
  Rendered r;
  for (std::size_t i = 0; i < tables.size(); ++i) {
    if (i > 0) r.text += "\n";
    r.text += tables[i].render_text();
  }
  r.csv = ResultTable::csv_header();
  for (const auto& t : tables) t.append_csv(r.csv);
  r.json = "{\n  \"bench\": \"powertcp_run\",\n  \"tables\": [\n";
  for (std::size_t i = 0; i < tables.size(); ++i) {
    tables[i].append_json(r.json, 4);
    r.json += i + 1 < tables.size() ? ",\n" : "\n";
  }
  r.json += "  ]\n}\n";
  return r;
}

/// Stems of every configs/*.toml, sorted so the suite order is stable.
std::vector<std::string> shipped_configs() {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(POWERTCP_SOURCE_DIR) + "/configs")) {
    if (entry.path().extension() == ".toml") {
      names.push_back(entry.path().stem().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

class ConfigGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(ConfigGolden, MatchesPreRefactorOutputByteForByte) {
  const std::string& name = GetParam();
  const std::string root = POWERTCP_SOURCE_DIR;
  const auto cfg = load_runner_config(
      ConfigFile::parse_file(root + "/configs/" + name + ".toml"));
  const unsigned hw = std::thread::hardware_concurrency();
  const SweepRunner runner(hw == 0 ? 1 : static_cast<int>(hw));
  const Rendered got = render_like_cli(run_config(cfg, runner));

  EXPECT_EQ(got.text, slurp(root + "/tests/goldens/" + name + ".txt"));
  EXPECT_EQ(got.csv, slurp(root + "/tests/goldens/" + name + ".csv"));
  EXPECT_EQ(got.json, slurp(root + "/tests/goldens/" + name + ".json"));
}

INSTANTIATE_TEST_SUITE_P(AllShippedConfigs, ConfigGolden,
                         ::testing::ValuesIn(shipped_configs()),
                         [](const auto& info) { return info.param; });

/// Renders shipped config `name` with every simulation point sharded
/// `sim_threads` ways and checks it against the sequential goldens. A
/// boundary ambiguity would throw out of run_config and fail the test.
void expect_golden_when_sharded(const std::string& name, int sim_threads) {
  const std::string root = POWERTCP_SOURCE_DIR;
  RunnerLoadOptions options;
  options.force_sim_threads = sim_threads;
  const auto cfg = load_runner_config(
      ConfigFile::parse_file(root + "/configs/" + name + ".toml"),
      ScenarioRegistry::instance(), options);
  const unsigned hw = std::thread::hardware_concurrency();
  const SweepRunner runner(hw == 0 ? 1 : static_cast<int>(hw));
  const Rendered got = render_like_cli(run_config(cfg, runner));

  EXPECT_EQ(got.text, slurp(root + "/tests/goldens/" + name + ".txt"));
  EXPECT_EQ(got.csv, slurp(root + "/tests/goldens/" + name + ".csv"));
  EXPECT_EQ(got.json, slurp(root + "/tests/goldens/" + name + ".json"));
}

/// The parallel-DES exactness bar: a shipped fat-tree config rendered
/// with the engine sharded four ways must match the sequential goldens
/// byte for byte (docs/performance.md, "Parallel DES"). Deliberately
/// outside the tsan filter like ConfigGolden above; the thread protocol
/// itself is TSan-covered by the lighter ShardedEngine/ShardedHarness
/// tests and the fig4 run below.
TEST(ShardedConfigGolden, Fig6QuickByteIdenticalAtFourSimThreads) {
  expect_golden_when_sharded("fig6_quick", 4);
}

/// Fig. 4's phase-locked 55:1 burst: every responder starts at the
/// same picosecond and its packets cross the pod cut toward one
/// receiver in lockstep. With deliveries keyed by
/// (time, sched, tie) the cross-shard order is exact, so the sharded
/// run must render the sequential goldens byte for byte. Unlike fig6
/// it is in the tsan filter: a real sharded config, with elided
/// serialization finishes on both sides of every cut, under the race
/// detector.
TEST(ShardedConfigGolden, Fig4QuickByteIdenticalAtFourSimThreads) {
  expect_golden_when_sharded("fig4_quick", 4);
}

}  // namespace
}  // namespace powertcp::harness
