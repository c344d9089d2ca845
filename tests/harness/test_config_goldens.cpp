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
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cc/registry.hpp"
#include "harness/bench_opts.hpp"
#include "harness/runner.hpp"
#include "net/aqm.hpp"

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
  const std::vector<ResultTable> tables = run_config(cfg, runner);
  // What powertcp_run writes: stdout, --csv into a fresh file, --json.
  std::string text;
  for (std::size_t i = 0; i < tables.size(); ++i) {
    text += text_block(tables[i], i == 0);
  }

  EXPECT_EQ(text, slurp(root + "/tests/goldens/" + name + ".txt"));
  EXPECT_EQ(csv_document(tables, /*header=*/true),
            slurp(root + "/tests/goldens/" + name + ".csv"));
  EXPECT_EQ(json_document("powertcp_run", tables),
            slurp(root + "/tests/goldens/" + name + ".json"));
}

INSTANTIATE_TEST_SUITE_P(AllShippedConfigs, ConfigGolden,
                         ::testing::ValuesIn(shipped_configs()),
                         [](const auto& info) { return info.param; });

/// The registry names the shipped configs run: every `[experiment]
/// schemes` label with its `[cc.<label>] scheme =` alias resolved, and
/// every AQM kind — `[aqm] kind` (omitted means red) plus the
/// `[workload] aqm` sweep only mixed_cc declares.
struct ShippedRegistryUse {
  std::set<std::string> schemes;
  std::set<std::string> aqms;
};

ShippedRegistryUse shipped_registry_use() {
  const auto value = [](const ConfigFile& file, const std::string& section,
                        const std::string& key) -> const std::string* {
    const ConfigFile::Section* sec = file.find(section);
    const ConfigFile::Entry* e = sec == nullptr ? nullptr : sec->find(key);
    return e == nullptr ? nullptr : &e->value;
  };
  ShippedRegistryUse use;
  for (const auto& name : shipped_configs()) {
    const auto file = ConfigFile::parse_file(
        std::string(POWERTCP_SOURCE_DIR) + "/configs/" + name + ".toml");
    if (const std::string* labels = value(file, "experiment", "schemes")) {
      for (const auto& label : split_config_list(*labels)) {
        const std::string* alias = value(file, "cc." + label, "scheme");
        use.schemes.insert(alias != nullptr ? *alias : label);
      }
    }
    const std::string* aqm = value(file, "aqm", "kind");
    use.aqms.insert(aqm != nullptr ? *aqm : "red");
    if (const std::string* swept = value(file, "workload", "aqm")) {
      for (const auto& a : split_config_list(*swept)) use.aqms.insert(a);
    }
  }
  return use;
}

/// A registry entry no shipped config runs is code no figure needs and
/// no golden pins: ship or extend a config that runs it, or delete it.
TEST(RegistryCoverage, EverySchemeRunsInAShippedConfig) {
  const ShippedRegistryUse use = shipped_registry_use();
  for (const auto& name : cc::Registry::instance().names()) {
    EXPECT_EQ(use.schemes.count(name), 1u)
        << "no configs/*.toml runs scheme '" << name << "'";
  }
}

TEST(RegistryCoverage, EveryAqmRunsInAShippedConfig) {
  const ShippedRegistryUse use = shipped_registry_use();
  for (const auto& name : net::AqmRegistry::instance().names()) {
    EXPECT_EQ(use.aqms.count(name), 1u)
        << "no configs/*.toml runs AQM '" << name << "'";
  }
}

}  // namespace
}  // namespace powertcp::harness
