/// ScenarioRegistry coverage: the built-in kind table, registration
/// rejection paths (duplicate / invalid entries), unknown-kind and
/// unknown-key errors with file:line context, and a drop-in custom
/// kind loading + running end-to-end through load_runner_config.

#include "harness/scenario_registry.hpp"

#include <gtest/gtest.h>

#include <memory>
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
    const ScenarioEntry* e = reg.find(name);
    ASSERT_NE(e, nullptr) << name;
    EXPECT_FALSE(e->summary.empty()) << name;
    EXPECT_TRUE(static_cast<bool>(e->make)) << name;
  }
  EXPECT_EQ(reg.find("ring"), nullptr);
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

TEST(ScenarioRegistry, DuplicateRegistrationIsRejected) {
  ScenarioRegistry reg;  // local copy with the built-ins
  ScenarioEntry dup;
  dup.name = "fat_tree";
  dup.make = []() -> std::unique_ptr<ScenarioConfig> { return nullptr; };
  EXPECT_THROW(reg.add(dup), std::logic_error);

  // First registration of a fresh name is fine; the second is not.
  dup.name = "toy";
  EXPECT_NO_THROW(reg.add(dup));
  EXPECT_THROW(reg.add(dup), std::logic_error);
}

TEST(ScenarioRegistry, InvalidEntriesAreRejected) {
  ScenarioRegistry reg;
  ScenarioEntry nameless;
  nameless.make = []() -> std::unique_ptr<ScenarioConfig> { return nullptr; };
  EXPECT_THROW(reg.add(nameless), std::logic_error);
  ScenarioEntry factoryless;
  factoryless.name = "no-factory";
  EXPECT_THROW(reg.add(factoryless), std::logic_error);
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
    // SectionView's unknown-key rejection: origin:line plus the key.
    EXPECT_NE(msg.find("typo.toml:5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("flow_mbb"), std::string::npos) << msg;
  }
}

/// The registry's reason to exist: a new paper shape is one
/// registration away from config-file support — no runner changes.
TEST(ScenarioRegistry, CustomKindIsADropInRegistration) {
  struct EchoConfig final : ScenarioConfig {
    std::string slug;
    double knob = 1.5;
    void declare(KeyTable& keys) override {
      keys.real("workload", "knob", &knob, Bound::above(0));
    }
    void bind(const ScenarioContext& ctx, const KeyTable&) override {
      slug = ctx.slug_prefix + "_echo";
    }
    std::vector<ResultTable> run(const SweepRunner&) const override {
      ResultTable t;
      t.title = "echo";
      t.slug = slug;
      t.key_columns = {"key"};
      t.value_columns = {"knob"};
      ResultTable::Row row;
      row.keys = {Cell(std::string("k"))};
      row.values = {Cell(knob, 1)};
      t.rows.push_back(std::move(row));
      return {t};
    }
  };

  ScenarioRegistry reg;
  ScenarioEntry echo;
  echo.name = "echo";
  echo.summary = "test-only scenario";
  echo.make = [] { return std::make_unique<EchoConfig>(); };
  reg.add(echo);

  const auto file = ConfigFile::parse(
      "[experiment]\nkind = echo\nslug = custom\nschemes = powertcp\n"
      "[workload]\nknob = 7.25\n",
      "echo.toml");
  const RunnerConfig cfg = load_runner_config(file, reg);
  EXPECT_EQ(cfg.kind, "echo");
  const auto tables = run_config(cfg, SweepRunner(1));
  ASSERT_EQ(tables.size(), 1u);
  EXPECT_EQ(tables[0].slug, "custom_echo");
  EXPECT_EQ(tables[0].rows.at(0).values.at(0).number(), 7.25);

  // The custom kind still gets the shared rejection machinery: an
  // unknown workload key and an out-of-bound value are ConfigErrors
  // even though the key table is user-supplied, and --kinds lists it.
  const auto bad = ConfigFile::parse(
      "[experiment]\nkind = echo\nschemes = powertcp\n"
      "[workload]\nknobb = 1\n",
      "echo.toml");
  EXPECT_THROW(load_runner_config(bad, reg), ConfigError);
  EXPECT_THROW(load_runner_config(
                   ConfigFile::parse("[experiment]\nkind = echo\n"
                                     "schemes = powertcp\n[workload]\n"
                                     "knob = -1\n",
                                     "echo.toml"),
                   reg),
               ConfigError);
  EXPECT_NE(kinds_reference(reg).find("knob"), std::string::npos);
}

}  // namespace
}  // namespace powertcp::harness
