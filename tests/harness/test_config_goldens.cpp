/// Byte-identity goldens for every shipped config: each file in
/// configs/ must render exactly the text/CSV/JSON captured in
/// tests/goldens/ before the AQM-layer refactor. This is the
/// regression fence for the pluggable-AQM work — the default "red"
/// policy (and the whole runner pipeline behind it) may not change a
/// single byte of any pre-existing experiment.
///
/// The fixture name is deliberately outside the tsan test filter:
/// these runs are the heaviest in the suite and the pool race they
/// would exercise is already covered by the SweepRunner/Runner tests.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/runner.hpp"
#include "harness/shard_setup.hpp"

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
  // The CLI reports shard_fallback_count() here; the goldens pin it at
  // 0 — no shipped config may silently rerun on the sequential engine.
  r.json = "{\n  \"bench\": \"powertcp_run\",\n  \"shard_fallbacks\": 0,\n"
           "  \"tables\": [\n";
  for (std::size_t i = 0; i < tables.size(); ++i) {
    tables[i].append_json(r.json, 4);
    r.json += i + 1 < tables.size() ? ",\n" : "\n";
  }
  r.json += "  ]\n}\n";
  return r;
}

/// run_config with the zero-fallback acceptance bar attached: the
/// process-wide fallback counter may not move while a shipped config
/// renders (otherwise the "shard_fallbacks": 0 the goldens pin would
/// be a lie whenever sim_threads > 1 is forced).
std::vector<ResultTable> run_config_no_fallback(const RunnerConfig& cfg,
                                                const SweepRunner& runner) {
  const std::uint64_t before =
      shard_fallback_count().load(std::memory_order_relaxed);
  auto tables = run_config(cfg, runner);
  EXPECT_EQ(shard_fallback_count().load(std::memory_order_relaxed), before)
      << "a shipped config fell back to the sequential engine";
  return tables;
}

class ConfigGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(ConfigGolden, MatchesPreRefactorOutputByteForByte) {
  const std::string name = GetParam();
  const std::string root = POWERTCP_SOURCE_DIR;
  const auto cfg = load_runner_config(
      ConfigFile::parse_file(root + "/configs/" + name + ".toml"));
  const unsigned hw = std::thread::hardware_concurrency();
  const SweepRunner runner(hw == 0 ? 1 : static_cast<int>(hw));
  const Rendered got = render_like_cli(run_config_no_fallback(cfg, runner));

  EXPECT_EQ(got.text, slurp(root + "/tests/goldens/" + name + ".txt"));
  EXPECT_EQ(got.csv, slurp(root + "/tests/goldens/" + name + ".csv"));
  EXPECT_EQ(got.json, slurp(root + "/tests/goldens/" + name + ".json"));
}

INSTANTIATE_TEST_SUITE_P(AllShippedConfigs, ConfigGolden,
                         ::testing::Values("fig2_reaction", "fig4_quick",
                                           "fig5_quick", "fig6_quick",
                                           "fig7_load_sweep", "fig8_quick",
                                           "fig9_oc"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

/// The parallel-DES exactness bar: a shipped fat-tree config rendered
/// with the engine sharded four ways must match the sequential goldens
/// byte for byte — via causally-independent windows where the traffic
/// allows it, via the detect-and-fallback rerun where it does not
/// (docs/performance.md, "Parallel DES"). Deliberately outside the
/// tsan filter like ConfigGolden above; the thread protocol itself is
/// TSan-covered by the lighter ShardedEngine/ShardedHarness tests.
TEST(ShardedConfigGolden, Fig6QuickByteIdenticalAtFourSimThreads) {
  const std::string root = POWERTCP_SOURCE_DIR;
  RunnerLoadOptions options;
  options.force_sim_threads = 4;
  const auto cfg = load_runner_config(
      ConfigFile::parse_file(root + "/configs/fig6_quick.toml"),
      ScenarioRegistry::instance(), options);
  const unsigned hw = std::thread::hardware_concurrency();
  const SweepRunner runner(hw == 0 ? 1 : static_cast<int>(hw));
  const Rendered got = render_like_cli(run_config_no_fallback(cfg, runner));

  EXPECT_EQ(got.text, slurp(root + "/tests/goldens/fig6_quick.txt"));
  EXPECT_EQ(got.csv, slurp(root + "/tests/goldens/fig6_quick.csv"));
  EXPECT_EQ(got.json, slurp(root + "/tests/goldens/fig6_quick.json"));
}

/// The workload the tie-token unlocked: fig5's synchronized dumbbell
/// used to trip the boundary-ambiguity detector (every sender's burst
/// lands at the bottleneck in the same picosecond) and silently rerun
/// sequentially. With deliveries keyed by (time, sched, tie) the
/// cross-shard order is exact, so the sharded run must now render the
/// sequential goldens byte for byte WITHOUT the fallback — which
/// run_config_no_fallback asserts. Unlike fig6 it is in the tsan filter:
/// a real sharded config, with elided serialization finishes on both
/// sides of every cut, under the race detector.
TEST(ShardedConfigGolden, Fig5QuickByteIdenticalAtFourSimThreads) {
  const std::string root = POWERTCP_SOURCE_DIR;
  RunnerLoadOptions options;
  options.force_sim_threads = 4;
  const auto cfg = load_runner_config(
      ConfigFile::parse_file(root + "/configs/fig5_quick.toml"),
      ScenarioRegistry::instance(), options);
  const unsigned hw = std::thread::hardware_concurrency();
  const SweepRunner runner(hw == 0 ? 1 : static_cast<int>(hw));
  const Rendered got = render_like_cli(run_config_no_fallback(cfg, runner));

  EXPECT_EQ(got.text, slurp(root + "/tests/goldens/fig5_quick.txt"));
  EXPECT_EQ(got.csv, slurp(root + "/tests/goldens/fig5_quick.csv"));
  EXPECT_EQ(got.json, slurp(root + "/tests/goldens/fig5_quick.json"));
}

}  // namespace
}  // namespace powertcp::harness
