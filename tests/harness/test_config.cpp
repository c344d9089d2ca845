/// Config-file parser coverage: the INI/TOML-subset syntax and its
/// loud failure modes (syntax errors with file:line context). Typed
/// reads, bad values and unknown keys are KeyTable's (test_keys.cpp).

#include "harness/config.hpp"

#include <gtest/gtest.h>

namespace powertcp::harness {
namespace {

TEST(ConfigFile, ParsesSectionsKeysAndComments) {
  const auto cfg = ConfigFile::parse(R"(
# full-line comment
; also a comment
[experiment]
kind = fat_tree            # inline comment
schemes = powertcp, hpcc
title = "a # quoted hash"

[cc.powertcp]
gamma = 0.9
)",
                                     "test.toml");
  ASSERT_EQ(cfg.sections().size(), 2u);
  const auto* exp = cfg.find("experiment");
  ASSERT_NE(exp, nullptr);
  EXPECT_EQ(exp->find("kind")->value, "fat_tree");
  EXPECT_EQ(exp->find("schemes")->value, "powertcp, hpcc");
  EXPECT_EQ(exp->find("title")->value, "a # quoted hash");
  EXPECT_EQ(cfg.find("cc.powertcp")->find("gamma")->value, "0.9");
  EXPECT_EQ(cfg.find("nope"), nullptr);
}

TEST(ConfigFile, SplitsPlainAndBracketedLists) {
  EXPECT_EQ(split_config_list("a, b ,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_config_list("[0.2, 0.6]"),
            (std::vector<std::string>{"0.2", "0.6"}));
  EXPECT_EQ(split_config_list("\"x\", y"),
            (std::vector<std::string>{"x", "y"}));
  EXPECT_TRUE(split_config_list("").empty());
}

TEST(ConfigFile, SyntaxErrorsCarryFileAndLine) {
  const auto expect_error = [](const char* text, const char* needle) {
    try {
      ConfigFile::parse(text, "bad.toml");
      FAIL() << "expected ConfigError for: " << text;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("bad.toml"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("[experiment\nkind = x\n", "']'");
  expect_error("kind = x\n", "outside any [section]");
  expect_error("[a]\nx 1\n", "key = value");
  expect_error("[a]\n[a]\n", "duplicate section");
  expect_error("[a]\nx = 1\nx = 2\n", "duplicate key");
  expect_error("[a]\nx = \"unterminated\n", "unterminated");
  expect_error("[a b]\n", "bad section name");
}

TEST(ConfigFile, ParseFileReportsMissingFile) {
  EXPECT_THROW(ConfigFile::parse_file("/nonexistent/path.toml"),
               ConfigError);
}

}  // namespace
}  // namespace powertcp::harness
