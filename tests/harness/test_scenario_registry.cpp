/// ScenarioRegistry coverage: the fixed table of built-in kinds, and
/// unknown-kind and unknown-key errors with file:line context.

#include "harness/scenario_registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "harness/runner.hpp"

namespace powertcp::harness {
namespace {

TEST(ScenarioRegistry, BuiltinKindsAreRegisteredInOrder) {
  const auto& reg = ScenarioRegistry::instance();
  const std::vector<std::string> expected = {
      "fat_tree", "incast",      "rdcn",     "dumbbell",
      "homa_oc",  "single_flow", "mixed_cc", "fluid_phase"};
  EXPECT_EQ(reg.names(), expected);
  for (const auto& name : expected) {
    const ScenarioEntry& e = reg.at(name);
    EXPECT_EQ(e.name, name);
    EXPECT_FALSE(e.summary.empty()) << name;
    EXPECT_TRUE(static_cast<bool>(e.make)) << name;
  }
  EXPECT_THROW(reg.at("ring"), std::invalid_argument);
}

TEST(ScenarioRegistry, AtThrowsListingKnownKinds) {
  try {
    ScenarioRegistry::instance().at("warp-speed");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("warp-speed"), std::string::npos);
    EXPECT_NE(msg.find("fat_tree"), std::string::npos);
    EXPECT_NE(msg.find("homa_oc"), std::string::npos);
  }
}

TEST(ScenarioRegistry, UnknownKindErrorNamesOriginAndKnownKinds) {
  const auto file = ConfigFile::parse(
      "[experiment]\nkind = moebius\nschemes = powertcp\n", "strip.toml");
  try {
    load_runner_config(file);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("strip.toml"), std::string::npos);
    EXPECT_NE(msg.find("moebius"), std::string::npos);
    EXPECT_NE(msg.find("dumbbell"), std::string::npos);
  }
}

TEST(ScenarioRegistry, UnknownWorkloadKeyErrorCarriesFileAndLine) {
  const auto file = ConfigFile::parse(
      "[experiment]\nkind = dumbbell\nschemes = powertcp\n"
      "[workload]\nflow_mbb = 2\n",
      "typo.toml");
  try {
    load_runner_config(file);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    // KeyTable::finish's unknown-key rejection: origin:line plus the
    // key.
    EXPECT_NE(msg.find("typo.toml:5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("flow_mbb"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace powertcp::harness
