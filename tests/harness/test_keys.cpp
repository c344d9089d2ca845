/// Key-table coverage, driven by the declarations themselves: every
/// numeric key of every kind and shared section rejects NaN and a value
/// past its bound at its own file:line, every key loads at the default
/// `powertcp_run --kinds` prints for it (rdcn fails every [aqm] key at
/// its line instead), and the units convert exactly.

#include "harness/keys.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/runner.hpp"

namespace powertcp::harness {
namespace {

std::vector<KeyInfo> shared_keys() {
  KeyTable keys;
  ScenarioContext ctx;
  declare_shared_keys(keys, &ctx);
  return keys.keys();
}

std::vector<KeyInfo> kind_keys(const ScenarioEntry& kind) {
  KeyTable keys;
  kind.make()->declare(keys);
  return keys.keys();
}

/// A config of `kind` as section -> lines, holding only what every
/// config of the kind must set: its kind, a scheme it can run, and its
/// required lists.
using Sections = std::map<std::string, std::vector<std::string>>;

Sections minimal(const std::string& kind) {
  const std::string scheme = kind == "homa_oc"    ? "homa"
                             : kind == "mixed_cc" ? "dctcp"
                                                  : "powertcp";
  Sections s;
  s["experiment"] = {"kind = " + kind, "schemes = " + scheme};
  if (kind == "mixed_cc") s["workload"] = {"cc_mix = dctcp"};
  return s;
}

/// Renders `[experiment]` first, then the other sections.
std::string render(const Sections& sections) {
  std::string text;
  const auto emit = [&text](const std::string& name,
                            const std::vector<std::string>& lines) {
    text += "[" + name + "]\n";
    for (const auto& line : lines) text += line + "\n";
  };
  emit("experiment", sections.at("experiment"));
  for (const auto& [name, lines] : sections) {
    if (name != "experiment") emit(name, lines);
  }
  return text;
}

/// Loads `text` and expects a ConfigError naming bad.toml at the line
/// that sets `key` in `[section]`, and the key itself.
void expect_rejected(const std::string& text, const std::string& section,
                     const std::string& key) {
  const std::size_t sec = text.find("[" + section + "]\n");
  const std::size_t at = text.find("\n" + key + " =", sec);
  ASSERT_NE(at, std::string::npos) << text;
  const long line = 2 + std::count(text.begin(),
                                   text.begin() + static_cast<long>(at), '\n');
  try {
    load_runner_config(ConfigFile::parse(text, "bad.toml"));
    ADD_FAILURE() << "loaded without a ConfigError:\n" << text;
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad.toml:" + std::to_string(line) + ": "),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(key), std::string::npos) << what;
  }
}

TEST(KeyTable, EveryNumericKeyRejectsNanAndValuesPastItsBound) {
  int checked = 0;
  const auto walk = [&checked](const std::string& kind,
                               const std::vector<KeyInfo>& keys) {
    for (const KeyInfo& k : keys) {
      if (k.outside.empty()) continue;  // flags, choices, text
      for (const std::string& value : {std::string("nan"), k.outside}) {
        SCOPED_TRACE(kind + ": [" + k.section + "] " + k.key + " = " +
                     value);
        Sections s = minimal(kind);
        s[k.section].push_back(k.key + " = " + value);
        expect_rejected(render(s), k.section, k.key);
        ++checked;
      }
    }
  };
  walk("fat_tree", shared_keys());
  for (const auto& kind : ScenarioRegistry::instance().entries()) {
    walk(kind.name, kind_keys(kind));
  }
  EXPECT_GT(checked, 150);
}

TEST(KeyTable, EveryKeyLoadsAtItsPrintedDefault) {
  const std::vector<KeyInfo> shared = shared_keys();
  for (const auto& kind : ScenarioRegistry::instance().entries()) {
    SCOPED_TRACE(kind.name);
    Sections s = minimal(kind.name);
    std::vector<KeyInfo> keys = shared;
    for (const KeyInfo& k : kind_keys(kind)) keys.push_back(k);
    int set = 0;
    for (const KeyInfo& k : keys) {
      if (k.default_value == "required") continue;  // minimal() sets them
      if (k.section == "experiment" && k.key == "kind") continue;
      if (kind.name == "rdcn" && k.section == "aqm") {
        // Its fabric runs no AQM, so even the default fails at its line.
        Sections aqm = minimal(kind.name);
        aqm["aqm"].push_back(k.key + " = " + k.default_value);
        expect_rejected(render(aqm), "aqm", k.key);
        ++set;
        continue;
      }
      s[k.section].push_back(k.key + " = " + k.default_value);
      ++set;
    }
    EXPECT_EQ(set + 1 + (kind.name == "mixed_cc" ? 2 : 1),
              static_cast<int>(keys.size()));
    const RunnerConfig cfg =
        load_runner_config(ConfigFile::parse(render(s), "defaults.toml"));
    EXPECT_EQ(cfg.kind, kind.name);
  }
}

TEST(KeyTable, RendersDefaultsFromTheStructAndReadsThemBack) {
  struct Demo {
    int n = 3;
    double x = 0.25;
    sim::TimePs t = sim::microseconds(800);
    std::int64_t bytes = 2'500'000;
    std::vector<std::int64_t> sizes = {0, 16'000};
    sim::Bandwidth bw = sim::Bandwidth::gbps(25);
    std::string mode = "b";
  };
  const auto declare = [](KeyTable& k, Demo* d) {
    k.count("s", "n", &d->n, Bound::at_least(1).upto(64));
    k.real("s", "x", &d->x, Bound::above(0).upto(1));
    k.us("s", "t_us", &d->t, /*positive=*/true);
    k.size("s", "size_mb", &d->bytes, Size::kMB);
    k.size("s", "sizes_kb", &d->sizes, Size::kKB, /*zero_ok=*/true);
    k.gbps("s", "rate_gbps", &d->bw);
    k.choice("s", "mode", &d->mode, {"a", "b"});
  };
  Demo d;
  KeyTable describe;
  declare(describe, &d);
  EXPECT_EQ(format_keys(describe.keys()),
            "  [s]\n"
            "    n                        count       3                    "
            "[1, 64]\n"
            "    x                        real        0.25                 "
            "(0, 1]\n"
            "    t_us                     us          800                  "
            "> 0\n"
            "    size_mb                  MB          2.5                  "
            ">= 1 byte\n"
            "    sizes_kb                 KB list     0, 16                "
            "0 or >= 1 byte\n"
            "    rate_gbps                Gbps        25                   "
            "[0.001, 1e+05]\n"
            "    mode                     choice      b                    "
            "a | b\n");

  const auto file = ConfigFile::parse(
      "[s]\nn = 64\nx = 1\nt_us = 2.5\nsize_mb = 1.5\nsizes_kb = 0, 4\n"
      "rate_gbps = 100\nmode = a\n",
      "demo.toml");
  KeyTable load(file);
  declare(load, &d);
  load.finish();
  EXPECT_EQ(d.n, 64);
  EXPECT_DOUBLE_EQ(d.x, 1.0);
  EXPECT_EQ(d.t, sim::from_seconds(2.5e-6));
  EXPECT_EQ(d.bytes, 1'500'000);
  EXPECT_EQ(d.sizes, (std::vector<std::int64_t>{0, 4'000}));
  EXPECT_DOUBLE_EQ(d.bw.gbps_value(), 100.0);
  EXPECT_EQ(d.mode, "a");
  EXPECT_EQ(load.sections(), (std::vector<std::string>{"s"}));
  EXPECT_TRUE(load.given(&d.n));
  EXPECT_EQ(load.name(&d.sizes), "sizes_kb");
}

TEST(KeyTable, CrossKeyRejectionsNameTheKeyOrItsSection) {
  const auto file = ConfigFile::parse("[s]\nset = 2\n", "cross.toml");
  int set = 1;
  int absent = 1;
  int elsewhere = 1;
  KeyTable keys(file);
  keys.count("s", "set", &set, Bound::at_least(1));
  keys.count("s", "absent", &absent, Bound::at_least(1));
  keys.count("t", "elsewhere", &elsewhere, Bound::at_least(1));
  try {
    keys.reject(&set, "clashes");
    FAIL();
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "cross.toml:2: [s] set = '2' clashes");
  }
  try {
    keys.reject(&absent, "clashes");
    FAIL();
  } catch (const ConfigError& e) {
    // Absent: the section's line.
    EXPECT_STREQ(e.what(), "cross.toml:1: [s] absent clashes");
  }
  try {
    keys.reject(&elsewhere, "clashes");
    FAIL();
  } catch (const ConfigError& e) {
    // No section either: the file alone.
    EXPECT_STREQ(e.what(), "cross.toml: [t] elsewhere clashes");
  }
}

TEST(KeyTable, ListedScalarKeysReadTheirPointsEntry) {
  const auto file = ConfigFile::parse(
      "[workload]\nx = 1, 2, 3\nlist = 4, 5\none = 7\n"
      "[topology]\nmode = a, b, a\n[s]\nn = 8\n",
      "pt.toml");
  for (std::size_t point = 0; point < 3; ++point) {
    double x = 0;
    std::vector<double> list;
    int one = 0;
    int n = 0;
    std::string mode;
    KeyTable keys(file, point);
    keys.real("workload", "x", &x, Bound::above(0));
    keys.real("workload", "list", &list, Bound::above(0));  // a list key
    keys.count("workload", "one", &one, Bound::at_least(1));
    keys.choice("topology", "mode", &mode, {"a", "b"});
    keys.count("s", "n", &n, Bound::at_least(1));
    keys.finish();
    EXPECT_EQ(keys.points(), 3u);
    EXPECT_DOUBLE_EQ(x, static_cast<double>(point + 1));
    EXPECT_EQ(list, (std::vector<double>{4, 5}));
    EXPECT_EQ(one, 7);
    EXPECT_EQ(mode, point == 1 ? "b" : "a");
    EXPECT_EQ(n, 8);
  }
  // An entry out of bound fails at the key's line, showing the entry.
  const auto bad = ConfigFile::parse("[workload]\nx = 1, -2\n", "bad.toml");
  double x = 0;
  KeyTable first(bad, 0);
  first.real("workload", "x", &x, Bound::above(0));
  EXPECT_EQ(first.points(), 2u);
  KeyTable second(bad, 1);
  try {
    second.real("workload", "x", &x, Bound::above(0));
    FAIL();
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "bad.toml:2: [workload] x = '-2' must be > 0");
  }
  // Outside [topology] and [workload] a scalar takes one value.
  const auto other = ConfigFile::parse("[s]\nn = 1, 2\n", "s.toml");
  int n = 0;
  KeyTable keys(other, 0);
  EXPECT_THROW(keys.count("s", "n", &n, Bound::at_least(1)), ConfigError);
  // Two lists longer than one pair entry by entry.
  const auto unequal = ConfigFile::parse(
      "[topology]\na = 1, 2\n[workload]\nb = 1, 2, 3\n", "u.toml");
  double a = 0, b = 0;
  KeyTable pair(unequal, 0);
  pair.real("topology", "a", &a, Bound::above(0));
  try {
    pair.real("workload", "b", &b, Bound::above(0));
    FAIL();
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(),
                 "u.toml:4: [workload] b = '1, 2, 3' lists 3 values but a "
                 "lists 2; listed keys pair entry by entry");
  }
}

TEST(KeyTable, UnparseableValuesAndUnknownKeysFailAtTheirLine) {
  const auto file = ConfigFile::parse(
      "[s]\nnum = not-a-number\nint = 2.5\nwide = 4294967297\n"
      "flag = maybe\nlist = 1, x\nhuge = 99999999999999999999\ntypo = 1\n",
      "bad.toml");
  double num = 0;
  std::int64_t integer = 0;
  int wide = 0;
  bool flag = false;
  std::vector<double> list;
  const std::pair<std::function<void(KeyTable&)>, const char*> cases[] = {
      {[&](KeyTable& k) { k.real("s", "num", &num, Bound::at_least(0)); },
       "bad.toml:2: [s] num = 'not-a-number' is not a valid number"},
      {[&](KeyTable& k) { k.count("s", "int", &integer, Bound::at_least(0)); },
       "bad.toml:3: [s] int = '2.5' is not a valid integer"},
      // A 32-bit key range-checks instead of wrapping to 1.
      {[&](KeyTable& k) { k.count("s", "wide", &wide, Bound::at_least(0)); },
       "bad.toml:4: [s] wide = '4294967297' is not a valid 32-bit integer"},
      {[&](KeyTable& k) { k.flag("s", "flag", &flag); },
       "bad.toml:5: [s] flag = 'maybe' is not a valid boolean "
       "(true/false/on/off/1/0)"},
      {[&](KeyTable& k) { k.real("s", "list", &list, Bound::at_least(0)); },
       "bad.toml:6: [s] list = '1, x' is not a valid number list"},
      // Past int64's range: rejected, not saturated to INT64_MAX.
      {[&](KeyTable& k) { k.count("s", "huge", &integer, Bound::at_least(0)); },
       "bad.toml:7: [s] huge = '99999999999999999999' is not a valid "
       "integer"},
  };
  for (const auto& [declare, message] : cases) {
    KeyTable keys(file);
    try {
      declare(keys);
      ADD_FAILURE() << "loaded: " << message;
    } catch (const ConfigError& e) {
      EXPECT_STREQ(e.what(), message);
    }
  }
  // `typo` is in a declared section, but nothing declares it.
  KeyTable keys(file);
  std::string text[6];
  const char* declared[] = {"num", "int", "wide", "flag", "list", "huge"};
  for (int i = 0; i < 6; ++i) keys.text("s", declared[i], &text[i]);
  try {
    keys.finish();
    FAIL() << "finished with an undeclared key";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "bad.toml:8: unknown key 'typo' in [s]");
  }
}

TEST(KeyTable, RequiredListsMustBeSet) {
  const auto file = ConfigFile::parse("[s]\nother = 1\n", "req.toml");
  std::vector<std::string> labels;
  KeyTable keys(file);
  try {
    keys.text("s", "labels", &labels);
    FAIL();
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "req.toml:1: [s] labels is required");
  }
  KeyTable describe;
  describe.text("s", "labels", &labels);
  EXPECT_EQ(describe.keys().at(0).default_value, "required");
}

}  // namespace
}  // namespace powertcp::harness
