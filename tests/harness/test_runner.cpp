/// Config-driven runner coverage: the paper numbers and the paper-scale
/// recipe the shipped configs stand for (ConfigGolden pins their bytes),
/// end-to-end thread-count byte-identity for every scenario kind, the
/// reTCP/HOMA topology wiring through run_config, and the loader's
/// rejection paths.

#include "harness/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/config.hpp"
#include "stats/timeseries.hpp"

#ifndef POWERTCP_SOURCE_DIR
#define POWERTCP_SOURCE_DIR "."
#endif

namespace powertcp::harness {
namespace {

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

template <typename Kind>
const Kind& as_kind(const RunnerConfig& cfg) {
  const auto* kind = dynamic_cast<const Kind*>(cfg.scenario.get());
  if (kind == nullptr) {
    throw std::logic_error("RunnerConfig holds an unexpected scenario type");
  }
  return *kind;
}

RunnerConfig load_shipped_config(const std::string& name) {
  return load_runner_config(ConfigFile::parse_file(
      std::string(POWERTCP_SOURCE_DIR) + "/configs/" + name));
}

/// Sets `key = value` on the line that assigns `key` (each key appears
/// once in the configs this edits), as a user adapting a shipped
/// config by hand would.
std::string with_key(std::string text, const std::string& key,
                     const std::string& value) {
  const std::size_t at = text.find("\n" + key + " =");
  if (at == std::string::npos) {
    ADD_FAILURE() << "no '" << key << " =' line to override";
    return text;
  }
  const std::size_t begin = at + 1;
  const std::size_t end = text.find('\n', begin);
  text.replace(begin, end - begin, key + " = " + value);
  return text;
}

/// Loads `text` as bad.toml and expects a ConfigError that names the
/// file:line of the `key = ...` line and the key itself.
void expect_rejected_at(const std::string& text, const std::string& key) {
  const std::size_t at = ("\n" + text).find("\n" + key + " =");
  ASSERT_NE(at, std::string::npos) << "no '" << key << " =' line";
  const long line =
      1 + std::count(text.begin(), text.begin() + static_cast<long>(at), '\n');
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

/// Fig. 2c's paper numbers, read from the shipped config: voltage
/// 3.24/2.12/2.12 cannot separate case-2 from case-3, current 9/1/9
/// cannot separate case-1 from case-3, and power (29.16/2.12/19.08)
/// separates all three. ConfigGolden pins every other byte.
TEST(RunnerGolden, Fig2ConfigPrintsThePaperNumbers) {
  const RunnerConfig cfg = load_shipped_config("fig2_reaction.toml");
  EXPECT_EQ(cfg.kind, "single_flow");
  const auto tables = run_config(cfg, SweepRunner(1));
  ASSERT_EQ(tables.size(), 3u);
  EXPECT_EQ(tables[0].slug, "fig2_vs_rate");
  EXPECT_EQ(tables[1].slug, "fig2_vs_queue");
  EXPECT_EQ(tables[2].slug, "fig2_three_cases");
  const ResultTable& c = tables[2];
  ASSERT_EQ(c.rows.size(), 3u);
  const char* expected[3][3] = {{"3.24", "9.00", "29.16"},
                                {"2.12", "1.00", "2.12"},
                                {"2.12", "9.00", "19.08"}};
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(c.rows[i].values.size(), 3u);
    for (int v = 0; v < 3; ++v) {
      EXPECT_EQ(c.rows[i].values[v].render(), expected[i][v])
          << "case " << i + 1 << " column " << c.value_columns[v];
    }
  }
}

/// The paper-scale Fig. 6 recipe (docs/reproducing.md, "Quick scale vs
/// paper scale"): fig6_quick.toml with four keys changed loads the
/// 256-host fabric, 100 ms of full-size websearch and p99.9 tails. The
/// simulation itself takes hours, so only the loaded fields are checked.
TEST(RunnerGolden, Fig6PaperScaleRecipeLoads) {
  std::ifstream in(std::string(POWERTCP_SOURCE_DIR) +
                   "/configs/fig6_quick.toml");
  std::ostringstream quick;
  quick << in.rdbuf();
  std::string text = quick.str();
  text = with_key(text, "preset", "paper");
  text = with_key(text, "duration_ms", "100");
  text = with_key(text, "size_scale", "1");
  text = with_key(text, "percentile", "99.9");
  const RunnerConfig cfg =
      load_runner_config(ConfigFile::parse(text, "fig6_paper.toml"));
  ASSERT_EQ(cfg.kind, "fat_tree");
  const FatTreeKindConfig& ft = as_kind<FatTreeKindConfig>(cfg);

  const topo::FatTreeConfig paper;
  EXPECT_EQ(ft.fat_tree.topo.pods, paper.pods);
  EXPECT_EQ(ft.fat_tree.topo.tors_per_pod, paper.tors_per_pod);
  EXPECT_EQ(ft.fat_tree.topo.aggs_per_pod, paper.aggs_per_pod);
  EXPECT_EQ(ft.fat_tree.topo.cores, paper.cores);
  EXPECT_EQ(ft.fat_tree.topo.servers_per_tor, paper.servers_per_tor);
  EXPECT_DOUBLE_EQ(ft.fat_tree.topo.host_bw.bps(), paper.host_bw.bps());
  EXPECT_DOUBLE_EQ(ft.fat_tree.topo.fabric_bw.bps(), paper.fabric_bw.bps());
  EXPECT_EQ(ft.fat_tree.topo.buffer_bytes_per_gbps,
            paper.buffer_bytes_per_gbps);
  EXPECT_DOUBLE_EQ(ft.fat_tree.topo.dt_alpha, paper.dt_alpha);

  EXPECT_EQ(ft.fat_tree.duration, sim::milliseconds(100));
  EXPECT_DOUBLE_EQ(ft.fat_tree.size_scale, 1.0);
  EXPECT_DOUBLE_EQ(ft.percentile, 99.9);
  EXPECT_EQ(ft.fat_tree.seed, 42u);
  EXPECT_EQ(ft.slug_prefix, "fig6");
  // `load = 0.2, 0.6`: two points, the second bound as its own object.
  EXPECT_DOUBLE_EQ(ft.fat_tree.uplink_load, 0.2);
  ASSERT_EQ(ft.next.size(), 1u);
  const auto& second = dynamic_cast<const FatTreeKindConfig&>(*ft.next[0]);
  EXPECT_DOUBLE_EQ(second.fat_tree.uplink_load, 0.6);
  EXPECT_EQ(second.fat_tree.topo.pods, paper.pods);
  EXPECT_DOUBLE_EQ(second.percentile, 99.9);
  std::vector<std::string> schemes;
  for (const auto& s : ft.schemes) {
    EXPECT_EQ(s.display(), s.scheme);
    EXPECT_TRUE(s.params.empty()) << s.scheme;
    schemes.push_back(s.scheme);
  }
  EXPECT_EQ(schemes,
            (std::vector<std::string>{"powertcp", "theta-powertcp", "hpcc",
                                      "dcqcn", "timely", "homa"}));
  const ResultTable table = second.load_table();
  EXPECT_EQ(table.slug, "fig6_load60");
  EXPECT_EQ(table.title,
            "60% ToR-uplink load, websearch (x1.00 sizes), p99.9 slowdown "
            "per size bucket");
}

RunnerConfig mini_fat_tree_config() {
  const auto file = ConfigFile::parse(R"(
[experiment]
kind = fat_tree
slug = mini
schemes = powertcp, dctcp
seed = 7

[workload]
load = 0.3, 0.5
duration_ms = 2
size_scale = 0.05

[cc.powertcp]
gamma = 0.85
)",
                                      "mini.toml");
  return load_runner_config(file);
}

TEST(Runner, FatTreeConfigIsByteIdenticalAcrossThreadCounts) {
  const RunnerConfig cfg = mini_fat_tree_config();
  const auto t1 = render_all(run_config(cfg, SweepRunner(1)));
  const auto t3 = render_all(run_config(cfg, SweepRunner(3)));
  EXPECT_EQ(t1, t3);
  EXPECT_NE(t1.find("mini_load30"), std::string::npos);
  EXPECT_NE(t1.find("mini_load50"), std::string::npos);
  EXPECT_NE(t1.find("powertcp"), std::string::npos);
}

/// Two loads x two overlay rates of the incast overlay, written as
/// four paired entries: four points in entry order, each an FCT table
/// named for its overlay plus its occupancy table.
TEST(Runner, FatTreeIncastOverlaySweepsLoadMajor) {
  const auto file = ConfigFile::parse(R"(
[experiment]
kind = fat_tree
slug = mini
schemes = powertcp, hpcc
seed = 7

[workload]
load = 0.3, 0.3, 0.5, 0.5
duration_ms = 1
size_scale = 0.05
incast = true
incast_requests_per_sec = 100, 200, 100, 200
incast_request_kb = 50
)",
                                      "mini.toml");
  const RunnerConfig cfg = load_runner_config(file);
  const auto tables = run_config(cfg, SweepRunner(1));
  std::vector<std::string> slugs;
  for (const auto& t : tables) slugs.push_back(t.slug);
  EXPECT_EQ(slugs, (std::vector<std::string>{
                       "mini_load30_incast100x50kb",
                       "mini_load30_incast100x50kb_occupancy",
                       "mini_load30_incast200x50kb",
                       "mini_load30_incast200x50kb_occupancy",
                       "mini_load50_incast100x50kb",
                       "mini_load50_incast100x50kb_occupancy",
                       "mini_load50_incast200x50kb",
                       "mini_load50_incast200x50kb_occupancy"}));
  EXPECT_EQ(tables[0].title,
            "30% ToR-uplink load, websearch (x0.05 sizes) + 100/s x 50 KB "
            "incast, p99.0 slowdown per size bucket");
  const ResultTable& occupancy = tables[1];
  EXPECT_EQ(occupancy.key_columns, (std::vector<std::string>{"algorithm"}));
  EXPECT_EQ(occupancy.value_columns,
            (std::vector<std::string>{"min", "max", "mean", "p50", "p90",
                                      "p99", "p99.9"}));
  ASSERT_EQ(occupancy.rows.size(), 2u);
  EXPECT_EQ(occupancy.rows[1].keys[0].render(), "hpcc");
  EXPECT_EQ(render_all(tables), render_all(run_config(cfg, SweepRunner(3))));
}

/// The overlay lists pair entry by entry, or one value serves every
/// entry of the other; with the overlay off, listed overlay values
/// make points that all write one table.
TEST(Runner, FatTreeOverlayListsAreCheckedAtTheirLine) {
  const std::string head =
      "[experiment]\nschemes = powertcp\n[workload]\nincast = true\n";
  expect_rejected_at(head + "incast_requests_per_sec = 1, 2, 3\n"
                            "incast_request_kb = 10, 20\n",
                     "incast_request_kb");
  EXPECT_NO_THROW(load_runner_config(ConfigFile::parse(
      head + "incast_requests_per_sec = 1\nincast_request_kb = 10, 20\n",
      "ok.toml")));
  const std::string off = "[experiment]\nschemes = powertcp\n[workload]\n";
  expect_rejected_at(off + "incast_requests_per_sec = 1, 2\n",
                     "incast_requests_per_sec");
  expect_rejected_at(off + "incast = false\nincast_request_kb = 10, 20\n",
                     "incast_request_kb");
  EXPECT_NO_THROW(load_runner_config(ConfigFile::parse(
      off + "incast_requests_per_sec = 1\nincast_request_kb = 10\n",
      "ok.toml")));
}

/// Two points that would write one table slug are a load error at the
/// first listed key's line.
TEST(Runner, RepeatedPointsAreRejectedAtTheirLine) {
  const std::string fat_tree =
      "[experiment]\nslug = dup\nschemes = powertcp\n[workload]\n";
  expect_rejected_at(fat_tree + "load = 0.2, 0.2\n", "load");
  // 20.1% prints as load20 too.
  expect_rejected_at(fat_tree + "load = 0.2, 0.201\n", "load");
  expect_rejected_at(fat_tree + "incast = true\n"
                                "incast_requests_per_sec = 256, 256\n"
                                "incast_request_kb = 200\n",
                     "incast_requests_per_sec");
  expect_rejected_at(fat_tree + "incast = true\n"
                                "incast_requests_per_sec = 256\n"
                                "incast_request_kb = 200, 200\n",
                     "incast_request_kb");
  try {
    load_runner_config(
        ConfigFile::parse(fat_tree + "load = 0.2, 0.2\n", "dup.toml"));
    ADD_FAILURE() << "repeated load loaded";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'dup_load20'"), std::string::npos)
        << e.what();
  }
  const std::string incast =
      "[experiment]\nkind = incast\nschemes = powertcp\n[workload]\n";
  expect_rejected_at(incast + "query_kb = 100, 100\nfan_in = 4, 8\n",
                     "query_kb");
  expect_rejected_at(incast + "query_kb = 0, 0\nfan_in = 4\n", "query_kb");
}

/// A list on a scalar key makes the points: a config listing two
/// points renders exactly its two single-value configs, one after the
/// other, at any thread count.
TEST(Runner, ListedPointsRenderLikeTheirSeparateRuns) {
  const auto render = [](const std::string& text, int threads) {
    return render_all(
        run_config(load_runner_config(ConfigFile::parse(text, "pt.toml")),
                   SweepRunner(threads)));
  };
  const std::string fat_tree =
      "[experiment]\nslug = pt\nschemes = powertcp, hpcc\nseed = 3\n"
      "[workload]\nduration_ms = 0.5\nsize_scale = 0.05\nincast = true\n"
      "incast_request_kb = 50\n";
  const std::string incast =
      "[experiment]\nkind = incast\nslug = pt\nschemes = powertcp, hpcc\n"
      "[workload]\nlong_companions = 2\nburst_at_us = 100\n"
      "horizon_ms = 0.4\n";
  const struct {
    std::string head, listed, first, second;
  } cases[] = {
      {fat_tree, "load = 0.3, 0.5\nincast_requests_per_sec = 100, 200\n",
       "load = 0.3\nincast_requests_per_sec = 100\n",
       "load = 0.5\nincast_requests_per_sec = 200\n"},
      {incast, "query_kb = 0, 400\nfan_in = 10, 8\n",
       "query_kb = 0\nfan_in = 10\n", "query_kb = 400\nfan_in = 8\n"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.listed);
    const std::string separate =
        render(c.head + c.first, 1) + render(c.head + c.second, 1);
    EXPECT_EQ(render(c.head + c.listed, 1), separate);
    EXPECT_EQ(render(c.head + c.listed, 3), separate);
  }
}

/// Keys pair by entry index: two lists longer than one must have equal
/// lengths, a cross-key check names the entry it fails at, and a kind
/// whose tables are not per point takes no list on a scalar key.
TEST(Runner, ListedScalarKeysPairByEntry) {
  const std::string fat_tree = "[experiment]\nschemes = powertcp\n";
  expect_rejected_at(fat_tree + "[topology]\npods = 2, 4, 8\n"
                                "[workload]\nload = 0.2, 0.4\n",
                     "load");
  try {
    load_runner_config(ConfigFile::parse(
        fat_tree + "[topology]\npods = 2, 4, 8\n[workload]\nload = 0.2, 0.4\n",
        "pair.toml"));
    ADD_FAILURE() << "unequal lists loaded";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("pods lists 3"), std::string::npos)
        << e.what();
  }
  // The old list key's name fails like any unknown key.
  expect_rejected_at(fat_tree + "[workload]\nloads = 0.2, 0.4\n", "loads");
  const std::string incast =
      "[experiment]\nkind = incast\nschemes = powertcp\n[workload]\n";
  expect_rejected_at(incast + "query_kb = 0, 100\nfan_in = 0\n", "fan_in");
  try {
    load_runner_config(ConfigFile::parse(
        incast + "query_kb = 0, 100\nfan_in = 0\n", "entry.toml"));
    ADD_FAILURE() << "fan_in = 0 loaded under a query";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("entry 2"), std::string::npos)
        << e.what();
  }
  expect_rejected_at(incast + "query_kb = 100, nan\nfan_in = 4\n", "query_kb");
  expect_rejected_at("[experiment]\nkind = dumbbell\nschemes = powertcp\n"
                     "[topology]\nbottleneck_gbps = 10, 25\n",
                     "bottleneck_gbps");
  expect_rejected_at("[experiment]\nkind = homa_oc\nschemes = homa\n"
                     "[workload]\nstagger_us = 100, 200\n",
                     "stagger_us");
  // Shared sections never list points.
  expect_rejected_at(fat_tree + "seed = 1, 2\n", "seed");
}

/// Each rdcn point writes one p99 column: two bandwidths that render
/// alike would write two columns of one name.
TEST(Runner, RdcnRejectsPointsThatShareAP99Column) {
  const std::string text =
      "[experiment]\nkind = rdcn\nschemes = powertcp\n"
      "[topology]\npreset = small\n"
      "[workload]\npacket_gbps = 25, 25.4\nhorizon_ms = 0.1\n";
  expect_rejected_at(text, "packet_gbps");
  try {
    load_runner_config(ConfigFile::parse(text, "dup.toml"));
    ADD_FAILURE() << "two 25G points loaded";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'25G p99us'"), std::string::npos)
        << e.what();
  }
}

/// homa_oc names its tables by level and fan-in, and mixed_cc keys its
/// rows by the rendered (mix, aqm, rtt, buffer) cell: a repeated entry
/// would write one table or row twice.
TEST(Runner, RepeatedGridEntriesAreRejectedAtTheirLine) {
  const std::string oc = "[experiment]\nkind = homa_oc\nschemes = homa\n"
                         "[workload]\n";
  expect_rejected_at(oc + "overcommit = 2, 2\nfan_in = 10, 10\n",
                     "overcommit");
  expect_rejected_at(oc + "overcommit = 2\nfan_in = 10, 10\n", "fan_in");
  const std::string mixed =
      "[experiment]\nkind = mixed_cc\nschemes = powertcp, dctcp\n"
      "[workload]\n";
  expect_rejected_at(mixed + "cc_mix = powertcp, powertcp\n", "cc_mix");
  // One mix, two spellings of its weights.
  expect_rejected_at(
      mixed + "cc_mix = powertcp:1+dctcp:1, powertcp:0.5+dctcp:0.5\n",
      "cc_mix");
  expect_rejected_at(mixed + "cc_mix = powertcp\naqm = red, red\n", "aqm");
  // 8.04 us renders as 8.0, 1.4 KB as 1.
  expect_rejected_at(mixed + "cc_mix = powertcp\nrtt_us = 8, 8.04\n",
                     "rtt_us");
  expect_rejected_at(mixed + "cc_mix = powertcp\nbuffer_kb = 1, 1.4\n",
                     "buffer_kb");
  EXPECT_NO_THROW(load_runner_config(ConfigFile::parse(
      mixed + "cc_mix = powertcp, dctcp\naqm = red, pie\nrtt_us = 8, 16\n"
              "buffer_kb = 0, 16\n",
      "ok.toml")));
}

/// A label names a table row or column, so each may run once.
TEST(Runner, RepeatedSchemeLabelsAreRejectedAtTheirLine) {
  expect_rejected_at(
      "[experiment]\nkind = incast\nschemes = powertcp, powertcp\n",
      "schemes");
  EXPECT_NO_THROW(load_runner_config(ConfigFile::parse(
      "[experiment]\nkind = incast\nschemes = powertcp, p2\n"
      "[cc.p2]\nscheme = powertcp\n",
      "ok.toml")));
}

/// The backstop behind the load checks: run_config never returns two
/// tables of one slug.
TEST(Runner, RunConfigRejectsTablesThatShareASlug) {
  const RunnerConfig cfg = load_runner_config(ConfigFile::parse(
      "[experiment]\nkind = fat_tree\nschemes = powertcp\n"
      "[workload]\nduration_ms = 0.1\nsize_scale = 0.05\n",
      "one.toml"));
  auto twice = std::make_shared<FatTreeKindConfig>(
      dynamic_cast<const FatTreeKindConfig&>(*cfg.scenario));
  twice->next.push_back(cfg.scenario);
  RunnerConfig dup = cfg;
  dup.scenario = twice;
  EXPECT_NO_THROW(run_config(cfg, SweepRunner(1)));
  EXPECT_THROW(run_config(dup, SweepRunner(1)), std::logic_error);
}

TEST(Runner, RetiredEngineKeysAreUnknownKeys) {
  // The event-queue backend, exact burst mode and the [burst] NIC
  // batching section are gone; their keys must fail like any typo,
  // with file:line, not be silently ignored.
  const auto expect_error = [](const std::string& text,
                               const std::string& message, int line) {
    try {
      load_runner_config(ConfigFile::parse(text, "q.toml"));
      FAIL() << "expected ConfigError: " << message;
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("q.toml:" + std::to_string(line)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(message), std::string::npos) << what;
    }
  };
  const auto expect_unknown = [&](const std::string& text,
                                  const std::string& key, int line) {
    expect_error(text, "unknown key '" + key + "'", line);
  };
  const std::string head =
      "[experiment]\nkind = fat_tree\nschemes = powertcp\n";
  const std::string work = "[workload]\nload = 0.3\n";
  // Spelled in pieces so a search of the tree for the retired names
  // finds no live use of them.
  const std::string retired_queue = std::string("sim_") + "queue";
  const std::string retired_burst = std::string("sim_") + "burst";
  expect_unknown(head + retired_queue + " = heap\n" + work, retired_queue, 4);
  expect_unknown(head + retired_burst + " = off\n" + work, retired_burst, 4);
  expect_error(head + work + "[burst]\nbudget = 8\n",
               "unused section [burst]", 6);
}

TEST(Runner, RdcnConfigWiresReTcpToTheCircuitSchedule) {
  const auto file = ConfigFile::parse(R"(
[experiment]
kind = rdcn
slug = minirdcn
schemes = retcp, powertcp

[topology]
preset = small
n_tors = 4
servers_per_tor = 2

[workload]
packet_gbps = 25, 50
flow_mb = 40
horizon_ms = 1
bin_us = 50

[cc.retcp]
prebuffering_us = 300
)",
                                      "minirdcn.toml");
  const RunnerConfig cfg = load_runner_config(file);
  // Thread-count independence: the time series and the latency table
  // come from one pool call over both bandwidths.
  const auto tables = run_config(cfg, SweepRunner(1));
  const auto t1 = render_all(tables);
  const auto t3 = render_all(run_config(cfg, SweepRunner(3)));
  EXPECT_EQ(t1, t3);
  // reTCP ran (no CircuitSchedule throw) and moved bytes: its goodput
  // column holds at least one positive bin.
  EXPECT_NE(t1.find("retcp gbps"), std::string::npos);
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables[0].slug, "minirdcn_timeseries");
  EXPECT_EQ(tables[1].slug, "minirdcn_p99");
  EXPECT_EQ(tables[1].value_columns,
            (std::vector<std::string>{"25G p99us", "50G p99us"}));
}

TEST(Runner, IncastConfigRunsMessageTransportViaRegistry) {
  const auto file = ConfigFile::parse(R"(
[experiment]
kind = incast
slug = miniincast
schemes = powertcp, homa

[workload]
query_kb = 0, 400
fan_in = 12
horizon_ms = 1
bin_us = 100

[cc.homa]
overcommit = 2
)",
                                      "miniincast.toml");
  const RunnerConfig cfg = load_runner_config(file);
  // Both query points' schemes share one pool call.
  const auto t1 = render_all(run_config(cfg, SweepRunner(1)));
  const auto t3 = render_all(run_config(cfg, SweepRunner(3)));
  EXPECT_EQ(t1, t3);
  EXPECT_NE(t1.find("homa gbps"), std::string::npos);
  EXPECT_NE(t1.find("miniincast_10to1"), std::string::npos);
  EXPECT_NE(t1.find("miniincast_query400kb"), std::string::npos);
}

TEST(Runner, DumbbellTimeSeriesIsByteIdenticalAcrossThreadCounts) {
  const auto file = ConfigFile::parse(R"(
[experiment]
kind = dumbbell
slug = minifair
schemes = powertcp, timely, homa

[workload]
flow_mb = 3, 1.5
stagger_us = 200
horizon_ms = 2
bin_us = 100
row_every = 2
)",
                                      "minifair.toml");
  const RunnerConfig cfg = load_runner_config(file);
  const auto t1 = render_all(run_config(cfg, SweepRunner(1)));
  const auto t3 = render_all(run_config(cfg, SweepRunner(3)));
  EXPECT_EQ(t1, t3);
  // One table per scheme with per-flow columns; homa ran through the
  // registry's message-transport path on the same dumbbell.
  EXPECT_NE(t1.find("minifair_powertcp"), std::string::npos);
  EXPECT_NE(t1.find("minifair_timely"), std::string::npos);
  EXPECT_NE(t1.find("minifair_homa"), std::string::npos);
  EXPECT_NE(t1.find("f2"), std::string::npos);
}

TEST(Runner, DumbbellRowsSpanTheLongestFlow) {
  // Flow order is config-controlled: with ascending sizes flow 1
  // finishes first, and the table must keep rows until the last flow
  // drains rather than stopping at flow 1's final bin.
  const auto file = ConfigFile::parse(R"(
[experiment]
kind = dumbbell
schemes = powertcp

[workload]
flow_mb = 0.2, 2
stagger_us = 0
horizon_ms = 3
bin_us = 100
row_every = 1
)",
                                      "asc.toml");
  const RunnerConfig cfg = load_runner_config(file);
  const auto tables = run_config(cfg, SweepRunner(1));
  ASSERT_EQ(tables.size(), 1u);
  const auto& rows = tables[0].rows;
  ASSERT_FALSE(rows.empty());
  // The final row lands in flow 2's last active bin: goodput in f2,
  // nothing left of flow 1.
  EXPECT_GT(rows.back().values.at(1).number(), 0.0);
  EXPECT_EQ(rows.back().values.at(0).number(), 0.0);
}

TEST(Runner, SingleRackFabricsRejectFanInsInsteadOfCrashing) {
  // A one-rack fat-tree leaves no host outside the receiver's rack to
  // answer a burst: the modulo that picks responders would divide by
  // zero (SIGFPE). The loader rejects such a fan-in at its line, and
  // both fan-in scenarios still throw when built directly.
  const std::string tiny_topo =
      "[topology]\npods = 1\ntors_per_pod = 1\naggs_per_pod = 1\n"
      "cores = 1\nservers_per_tor = 2\n";
  expect_rejected_at("[experiment]\nkind = incast\nschemes = powertcp\n" +
                         tiny_topo +
                         "[workload]\nquery_kb = 100\nfan_in = 4\n",
                     "fan_in");
  expect_rejected_at("[experiment]\nkind = homa_oc\nschemes = homa\n" +
                         tiny_topo + "[workload]\novercommit = 1\nfan_in = 2\n",
                     "fan_in");

  topo::FatTreeConfig tiny = topo::FatTreeConfig::quick();
  tiny.pods = tiny.tors_per_pod = tiny.aggs_per_pod = tiny.cores = 1;
  tiny.servers_per_tor = 2;
  IncastScenario incast;
  incast.topo = tiny;
  incast.responder_bytes = 25'000;
  incast.fan_in = 4;
  incast.horizon = sim::milliseconds(1);
  EXPECT_THROW(run_incast_scenario(incast, SchemeRun{"", "powertcp", {}}),
               std::invalid_argument);
  IncastScenario oc = HomaOcScenario::default_incast();
  oc.topo = tiny;
  oc.fan_in = 2;
  oc.horizon = sim::milliseconds(1);
  EXPECT_THROW(run_incast_scenario(oc, SchemeRun{"", "homa", {}}),
               std::invalid_argument);
}

TEST(Runner, LoadErrorsThatWouldHangOrCrashNameTheirLine) {
  // Unchecked, each of these would run forever, grow memory until
  // killed, or die with a line-less library error. The loader rejects
  // each at its line, right at the boundary, and the library layer
  // still throws when called directly. No probe runs a simulation that
  // could hang.
  const std::string fat_tree = "[experiment]\nschemes = powertcp\n";
  // One rack: no uplink load can be set (a zero inter-rack fraction
  // would make the Poisson generator append arrivals forever).
  expect_rejected_at(fat_tree +
                         "[topology]\npods = 1\ntors_per_pod = 1\n"
                         "[workload]\nload = 0.3\nduration_ms = 0.2\n",
                     "pods");
  // The overlay's distinct responders come from outside the
  // requester's rack: 24 hosts with two pods of the quick fabric.
  const std::string overlay =
      fat_tree +
      "[topology]\npods = 2\n[workload]\nincast = true\n"
      "incast_requests_per_sec = 100000\nincast_fan_in = ";
  expect_rejected_at(overlay + "25\n", "incast_fan_in");
  expect_rejected_at(overlay + "28\n", "incast_fan_in");
  EXPECT_NO_THROW(
      load_runner_config(ConfigFile::parse(overlay + "24\n", "ok.toml")));
  // Companion i sends from host servers_per_tor + 1 + i; the quick
  // fabric has 64 hosts and 8 per rack.
  const std::string incast =
      "[experiment]\nkind = incast\nschemes = powertcp\n[workload]\n"
      "long_companions = ";
  expect_rejected_at(incast + "100\n", "long_companions");
  expect_rejected_at(incast + "56\n", "long_companions");
  EXPECT_NO_THROW(
      load_runner_config(ConfigFile::parse(incast + "55\n", "ok.toml")));
  // A ToR has a port per server plus its two uplinks.
  const std::string rdcn =
      "[experiment]\nkind = rdcn\nschemes = powertcp\n[topology]\n"
      "preset = small\nn_tors = 4\nservers_per_tor = ";
  expect_rejected_at(rdcn + "600\n", "servers_per_tor");
  expect_rejected_at(rdcn + "510\n", "servers_per_tor");
  EXPECT_NO_THROW(
      load_runner_config(ConfigFile::parse(rdcn + "509\n", "ok.toml")));
  expect_rejected_at("[experiment]\nkind = rdcn\nschemes = powertcp\n"
                     "[topology]\npreset = small\nn_tors = 512\n",
                     "n_tors");

  const SchemeRun powertcp{"", "powertcp", {}};
  FatTreeExperiment one_rack;
  one_rack.topo.pods = one_rack.topo.tors_per_pod = 1;
  one_rack.duration = sim::microseconds(200);
  EXPECT_THROW(run_fat_tree_experiment(one_rack, powertcp),
               std::invalid_argument);
  FatTreeExperiment wide;
  wide.topo.pods = 2;
  wide.incast = true;
  wide.incast_fan_in = 25;
  wide.duration = sim::microseconds(200);
  EXPECT_THROW(run_fat_tree_experiment(wide, powertcp), std::invalid_argument);
  IncastScenario companions;
  companions.long_companions = 56;
  companions.horizon = sim::microseconds(200);
  EXPECT_THROW(run_incast_scenario(companions, powertcp),
               std::invalid_argument);
}

TEST(Runner, OversizedFabricsFailAtTheirLine) {
  // Past the tie-token range (net::Node::attach_port): a switch with
  // more than 511 ports, or more than 2^22 nodes. The counts are
  // checked at load, in 64 bits, before anything is built.
  const std::string fat_tree = "[experiment]\nschemes = powertcp\n";
  expect_rejected_at(fat_tree + "[topology]\nservers_per_tor = 600\n",
                     "servers_per_tor");
  expect_rejected_at(fat_tree + "[topology]\npods = 100000\n"
                                "tors_per_pod = 1000\nservers_per_tor = 1000\n",
                     "servers_per_tor");
  expect_rejected_at(fat_tree + "[topology]\npods = 500\ntors_per_pod = 500\n"
                                "servers_per_tor = 500\n",
                     "pods");
  expect_rejected_at(fat_tree + "[topology]\ncores = 2000\n", "cores");
  expect_rejected_at("[experiment]\nkind = mixed_cc\nschemes = dctcp\n"
                     "[workload]\ncc_mix = dctcp\nsenders = 600\n",
                     "senders");
  std::string flows = "1";
  for (int i = 1; i < 600; ++i) flows += ", 1";
  expect_rejected_at("[experiment]\nkind = dumbbell\nschemes = powertcp\n"
                     "[workload]\nflow_mb = " + flows + "\n",
                     "flow_mb");
  // 510 senders fill the bottleneck switch exactly.
  EXPECT_NO_THROW(load_runner_config(ConfigFile::parse(
      "[experiment]\nkind = mixed_cc\nschemes = dctcp\n"
      "[workload]\ncc_mix = dctcp\nsenders = 510\n",
      "full.toml")));
}

TEST(Runner, SimThreadsIsAnUnknownKeyOfEveryKind) {
  // Every point runs on one engine: the retired shard count is an
  // unknown key at its line, whatever the kind.
  for (const auto& kind : ScenarioRegistry::instance().entries()) {
    SCOPED_TRACE(kind.name);
    std::string scheme = "powertcp";
    if (kind.name == "mixed_cc") scheme = "dctcp";
    if (kind.name == "homa_oc") scheme = "homa";
    std::string text = "[experiment]\nkind = " + kind.name;
    text += "\nschemes = " + scheme + "\nsim_threads = 2\n";
    if (kind.name == "mixed_cc") text += "[workload]\ncc_mix = dctcp\n";
    try {
      load_runner_config(ConfigFile::parse(text, "bad.toml"));
      ADD_FAILURE() << "loaded";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "bad.toml:4: unknown key 'sim_threads' in [experiment]"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Runner, HomaOcKindRejectsSenderCcSchemes) {
  // The overcommitment sweep drives message transports only: a sender
  // CC scheme fails at load, at the schemes line.
  expect_rejected_at(R"([experiment]
kind = homa_oc
schemes = homa, powertcp

[workload]
overcommit = 1
fan_in = 2
)",
                     "schemes");
  // The library entry point throws on the same rule.
  try {
    homa_oc_tables(SweepRunner(1), HomaOcScenario{},
                   {SchemeRun{"", "powertcp", {}}}, "oc");
    FAIL() << "ran a sender CC scheme";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "'powertcp', which is not a receiver-driven message "
                  "transport"),
              std::string::npos)
        << e.what();
  }
}

TEST(Runner, HomaOcKindRejectsACcSectionOvercommit) {
  // [workload] overcommit sets every point's level, so a [cc.<label>]
  // overcommit would be overwritten at each level: it fails at its own
  // line instead of being silently ignored.
  try {
    load_runner_config(ConfigFile::parse(R"([experiment]
kind = homa_oc
schemes = homa

[workload]
overcommit = 1, 2
fan_in = 2

[cc.homa]
overcommit = 3
)",
                                         "bad.toml"));
    ADD_FAILURE() << "loaded a [cc.homa] overcommit";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "bad.toml:10: [cc.homa] overcommit = '3' is set per point "
                  "by [workload] overcommit under kind homa_oc"),
              std::string::npos)
        << e.what();
  }
  // The library entry point throws on the same rule.
  try {
    homa_oc_tables(SweepRunner(1), HomaOcScenario{},
                   {SchemeRun{"", "homa", {{"overcommit", "3"}}}}, "oc");
    FAIL() << "ran a scheme that sets its own overcommit";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "scheme 'homa' sets overcommit, which the sweep sets per "
                  "level"),
              std::string::npos)
        << e.what();
  }
}

TEST(Runner, LoaderRejectsSchemesTheKindCannotRun) {
  // The RDCN fabric has no priority bands (Homa), marks no packets
  // (DCQCN, DCTCP) and runs no AQM, and reTCP needs the circuit
  // schedule only kind rdcn builds: each mismatch is a ConfigError at
  // its line, not a run that silently ignores it.
  for (const char* scheme : {"homa", "dcqcn", "dctcp"}) {
    SCOPED_TRACE(scheme);
    expect_rejected_at(std::string("[experiment]\nkind = rdcn\n"
                                   "schemes = powertcp, ") +
                           scheme + "\n",
                       "schemes");
  }
  // Every [aqm] key fails at its own line (5), `kind` included.
  const std::pair<const char*, const char*> aqm_keys[] = {
      {"kind", "pie"}, {"target_us", "20"}, {"alpha", "0.5"},
      {"ecn_threshold", "0.1"}};
  for (const auto& [key, value] : aqm_keys) {
    SCOPED_TRACE(key);
    try {
      load_runner_config(ConfigFile::parse(
          std::string("[experiment]\nkind = rdcn\nschemes = powertcp\n"
                      "[aqm]\n") +
              key + " = " + value + "\n",
          "bad.toml"));
      ADD_FAILURE() << "loaded";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("bad.toml:5: [aqm] ") +
                                           key),
                std::string::npos)
          << e.what();
    }
  }
  for (const char* kind : {"fat_tree", "incast", "dumbbell"}) {
    SCOPED_TRACE(kind);
    expect_rejected_at(
        std::string("[experiment]\nkind = ") + kind + "\nschemes = retcp\n",
        "schemes");
  }
  // An alias names the scheme it runs, with its label.
  try {
    load_runner_config(ConfigFile::parse(
        "[experiment]\nkind = incast\nschemes = prebuffer\n"
        "[cc.prebuffer]\nscheme = retcp\n",
        "bad.toml"));
    ADD_FAILURE() << "reTCP under kind incast loaded";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "names scheme 'retcp' (prebuffer), which needs a "
                  "circuit schedule"),
              std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW(load_runner_config(ConfigFile::parse(
      "[experiment]\nkind = rdcn\nschemes = retcp\n", "ok.toml")));
}

TEST(Runner, LoaderRejectsUnknownSchemesKeysAndSections) {
  const auto load = [](const std::string& text) {
    return load_runner_config(ConfigFile::parse(text, "bad.toml"));
  };
  // Unknown scheme name: at the schemes line, or at the alias that
  // names it.
  expect_rejected_at("[experiment]\nschemes = powertcp, warp-speed\n",
                     "schemes");
  expect_rejected_at("[experiment]\nschemes = fast\n"
                     "[cc.fast]\nscheme = warp-speed\n",
                     "scheme");
  // The label is repeated in parentheses only when an alias names a
  // different scheme.
  const auto error_of = [&load](const std::string& text) -> std::string {
    try {
      load(text);
    } catch (const ConfigError& e) {
      return e.what();
    }
    return "loaded";
  };
  EXPECT_NE(error_of("[experiment]\nschemes = warp-speed\n")
                .find("names scheme 'warp-speed', which is not registered"),
            std::string::npos);
  EXPECT_NE(error_of("[experiment]\nschemes = fast\n"
                     "[cc.fast]\nscheme = warp-speed\n")
                .find("names scheme 'warp-speed' (fast), which is not "
                      "registered"),
            std::string::npos);
  // Param not declared by the scheme, at its line.
  expect_rejected_at("[experiment]\nschemes = powertcp\n"
                     "[cc.powertcp]\ngamma = 0.9\nwarp = 9\n",
                     "warp");
  // Empty or out-of-range [experiment] values, at their line; a
  // missing schemes list at the section's.
  expect_rejected_at("[experiment]\nkind = fat_tree\nschemes =\n",
                     "schemes");
  // The retired shard count is an unknown key, at its line.
  EXPECT_NE(error_of("[experiment]\nschemes = powertcp\nsim_threads = 2\n")
                .find("bad.toml:3: unknown key 'sim_threads' in [experiment]"),
            std::string::npos);
  try {
    load("\n[experiment]\nkind = fat_tree\n");
    ADD_FAILURE() << "loaded without schemes";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "bad.toml:2: [experiment] schemes is required");
  }
  // Unknown workload key.
  EXPECT_THROW(load("[experiment]\nschemes = powertcp\n"
                    "[workload]\nlods = 0.2\n"),
               ConfigError);
  // Unknown workload key for the new kinds, too.
  EXPECT_THROW(load("[experiment]\nkind = dumbbell\nschemes = powertcp\n"
                    "[workload]\nflw_mb = 2\n"),
               ConfigError);
  EXPECT_THROW(load("[experiment]\nkind = homa_oc\nschemes = homa\n"
                    "[workload]\novercommitt = 2\n"),
               ConfigError);
  // Unused section (typo'd scheme section).
  EXPECT_THROW(load("[experiment]\nschemes = powertcp\n"
                    "[cc.powertpc]\ngamma = 0.9\n"),
               ConfigError);
  // Bad kind, missing experiment, empty schemes.
  EXPECT_THROW(load("[experiment]\nkind = ring\nschemes = powertcp\n"),
               ConfigError);
  EXPECT_THROW(load("[workload]\nload = 0.2\n"), ConfigError);
  EXPECT_THROW(load("[experiment]\nkind = fat_tree\n"), ConfigError);
  // Bad values for the new kinds' validated keys.
  EXPECT_THROW(load("[experiment]\nkind = dumbbell\nschemes = powertcp\n"
                    "[workload]\nrow_every = 0\n"),
               ConfigError);
  EXPECT_THROW(load("[experiment]\nkind = dumbbell\nschemes = powertcp\n"
                    "[workload]\nflow_mb = 0\n"),
               ConfigError);
  EXPECT_THROW(load("[experiment]\nkind = homa_oc\nschemes = homa\n"
                    "[workload]\novercommit = 0\n"),
               ConfigError);
  // Integer point lists must be integers: silently truncating 2.5 to
  // level 2 would run points the config does not state.
  EXPECT_THROW(load("[experiment]\nkind = homa_oc\nschemes = homa\n"
                    "[workload]\novercommit = 2.5\n"),
               ConfigError);
  EXPECT_THROW(load("[experiment]\nkind = homa_oc\nschemes = homa\n"
                    "[workload]\nfan_in = 10.7\n"),
               ConfigError);
  EXPECT_THROW(load("[experiment]\nkind = incast\nschemes = powertcp\n"
                    "[workload]\nfan_in = 2.7\n"),
               ConfigError);
  // Out-of-int-range values must be a ConfigError, not an undefined
  // double->int cast.
  EXPECT_THROW(load("[experiment]\nkind = homa_oc\nschemes = homa\n"
                    "[workload]\novercommit = 3000000000\n"),
               ConfigError);
  // Integer keys narrowed to int must not wrap: 4294967304 would
  // otherwise load as 8 senders and 4294967297 as a row stride of 1.
  EXPECT_THROW(load("[experiment]\nkind = mixed_cc\nschemes = dctcp\n"
                    "[workload]\ncc_mix = dctcp\nsenders = 4294967304\n"),
               ConfigError);
  EXPECT_THROW(load("[experiment]\nkind = dumbbell\nschemes = powertcp\n"
                    "[workload]\nrow_every = 4294967297\n"),
               ConfigError);
  EXPECT_THROW(load("[experiment]\nschemes = powertcp\n"
                    "[topology]\npods = -4294967294\n"),
               ConfigError);
  // Likewise for byte-size keys: NaN slips past a <= 0 check and a
  // huge value is an undefined int64 cast; both must throw.
  EXPECT_THROW(load("[experiment]\nkind = dumbbell\nschemes = powertcp\n"
                    "[workload]\nflow_mb = nan\n"),
               ConfigError);
  EXPECT_THROW(load("[experiment]\nkind = homa_oc\nschemes = homa\n"
                    "[workload]\nlong_message_mb = 1e15\n"),
               ConfigError);
  // A zero bin width divides every time series by zero (SIGFPE):
  // each one fails at load, at its own file:line. The width is checked
  // in picoseconds, so 1e-7 us (which rounds to 0 ps) fails too.
  expect_rejected_at("[experiment]\nkind = dumbbell\nschemes = powertcp\n"
                     "[workload]\nbin_us = 0\n",
                     "bin_us");
  expect_rejected_at("[experiment]\nkind = dumbbell\nschemes = powertcp\n"
                     "[workload]\nbin_us = 1e-7\n",
                     "bin_us");
  expect_rejected_at("[experiment]\nkind = incast\nschemes = powertcp\n"
                     "[workload]\nbin_us = 0\n",
                     "bin_us");
  expect_rejected_at("[experiment]\nkind = rdcn\nschemes = powertcp\n"
                     "[topology]\npreset = small\n[workload]\nbin_us = 0\n",
                     "bin_us");
  expect_rejected_at("[experiment]\nkind = homa_oc\nschemes = homa\n"
                     "[workload]\nfairness_bin_us = 0\n",
                     "fairness_bin_us");
  expect_rejected_at("[experiment]\nkind = homa_oc\nschemes = homa\n"
                     "[workload]\nincast_bin_us = 0\n",
                     "incast_bin_us");
  // A query incast needs a positive fan-in (the query splits across
  // it); fan_in = 0 with query_kb > 0 must fail at load, not SIGFPE
  // in the scenario.
  EXPECT_THROW(load("[experiment]\nkind = incast\nschemes = powertcp\n"
                    "[workload]\nquery_kb = 100\nfan_in = 0\n"),
               ConfigError);
  // Message transports cannot run the RDCN scenario: a ConfigError at
  // load, while the scenario keeps its own throw for library callers.
  expect_rejected_at("[experiment]\nkind = rdcn\nschemes = homa\n"
                     "[topology]\npreset = small\n"
                     "[workload]\nhorizon_ms = 1\n",
                     "schemes");
  // It throws for marking-driven schemes too, which its fabric would
  // run unmarked.
  for (const char* scheme : {"homa", "dcqcn", "dctcp"}) {
    EXPECT_THROW(run_rdcn_scenario(RdcnScenario{}, SchemeRun{"", scheme, {}}),
                 std::invalid_argument)
        << scheme;
  }
}

TEST(Runner, OutOfRangeIntegersFailAtTheirLine) {
  // An integer past int64 does not saturate, and a [cc.<label>] int
  // param does not wrap (4294967301 would run as 5): each fails at
  // load, at its line, in KeyTable's words.
  const std::pair<const char*, const char*> cases[] = {
      {"[experiment]\nkind = dumbbell\nschemes = hpcc\n"
       "seed = 99999999999999999999\n",
       "bad.toml:4: [experiment] seed = '99999999999999999999' is not a "
       "valid integer"},
      {"[experiment]\nkind = dumbbell\nschemes = hpcc\n"
       "[cc.hpcc]\neta = 0.9\nmax_stage = 4294967301\n",
       "bad.toml:6: [cc.hpcc] max_stage = '4294967301' is not a valid "
       "32-bit integer"},
      {"[experiment]\nkind = dumbbell\nschemes = homa\n"
       "[cc.homa]\novercommit = -4294967295\n",
       "bad.toml:5: [cc.homa] overcommit = '-4294967295' is not a valid "
       "32-bit integer"},
      {"[experiment]\nkind = dumbbell\nschemes = dcqcn\n"
       "[cc.dcqcn]\nincrease_bytes = 99999999999999999999\n",
       "bad.toml:5: [cc.dcqcn] increase_bytes = '99999999999999999999' is "
       "not a valid integer"},
  };
  for (const auto& [text, message] : cases) {
    try {
      load_runner_config(ConfigFile::parse(text, "bad.toml"));
      ADD_FAILURE() << "loaded: " << message;
    } catch (const ConfigError& e) {
      EXPECT_STREQ(e.what(), message);
    }
  }
}

/// Sizes and durations are doubles in the file but integers in the
/// run: every value that cannot be cast (NaN, negative, past int64 or
/// past the picosecond clock) fails at load with file:line and the key,
/// instead of running with a garbage size or horizon.
TEST(Runner, LoaderRejectsUncastableSizesAndTimes) {
  expect_rejected_at("[experiment]\nkind = dumbbell\nschemes = powertcp\n"
                     "[topology]\nbuffer_kb = nan\n",
                     "buffer_kb");
  expect_rejected_at("[experiment]\nkind = dumbbell\nschemes = powertcp\n"
                     "[topology]\nbuffer_kb = -16\n",
                     "buffer_kb");
  expect_rejected_at("[experiment]\nkind = fat_tree\nschemes = powertcp\n"
                     "[workload]\nincast = true\nincast_request_kb = 1e300\n",
                     "incast_request_kb");
  expect_rejected_at("[experiment]\nkind = rdcn\nschemes = powertcp\n"
                     "[topology]\npreset = small\n[workload]\nflow_mb = 1e30\n",
                     "flow_mb");
  expect_rejected_at("[experiment]\nkind = incast\nschemes = powertcp\n"
                     "[workload]\nlong_flow_mb = -3\n",
                     "long_flow_mb");
  expect_rejected_at("[experiment]\nkind = incast\nschemes = powertcp\n"
                     "[workload]\nquery_kb = nan\nfan_in = 4\n",
                     "query_kb");
  expect_rejected_at("[experiment]\nkind = fat_tree\nschemes = powertcp\n"
                     "[workload]\nduration_ms = 1e300\n",
                     "duration_ms");
  expect_rejected_at("[experiment]\nkind = dumbbell\nschemes = powertcp\n"
                     "[workload]\nhorizon_ms = -1\n",
                     "horizon_ms");
  expect_rejected_at("[experiment]\nkind = incast\nschemes = powertcp\n"
                     "[workload]\nburst_at_us = inf\n",
                     "burst_at_us");

  // buffer_kb = 0 still means "derive the default buffer".
  const RunnerConfig derived = load_runner_config(ConfigFile::parse(
      "[experiment]\nkind = dumbbell\nschemes = powertcp\n"
      "[topology]\nbuffer_kb = 0\n",
      "ok.toml"));
  EXPECT_EQ(as_kind<DumbbellKindConfig>(derived).dumbbell.topo.buffer_bytes,
            0);
}

TEST(Runner, QueryPointsGetUniqueSlugs) {
  // Two query sizes in one config must not shadow each other in the
  // CSV/JSON (the regression gate indexes tables by slug).
  const auto file = ConfigFile::parse(R"(
[experiment]
kind = incast
slug = fig4
schemes = powertcp

[workload]
query_kb = 500, 2000
fan_in = 8, 16
horizon_ms = 0.2
)",
                                      "slugs.toml");
  // Slug generation is pure string work; the horizon shrinks the
  // simulations. Each point's summary table follows its series.
  const auto tables = run_config(load_runner_config(file), SweepRunner(1));
  ASSERT_EQ(tables.size(), 4u);
  EXPECT_EQ(tables[0].slug, "fig4_query500kb");
  EXPECT_EQ(tables[1].slug, "fig4_query500kb_summary");
  EXPECT_EQ(tables[2].slug, "fig4_query2000kb");
  EXPECT_EQ(tables[3].slug, "fig4_query2000kb_summary");
}

TEST(Runner, IncastSummaryHasOneRowPerScheme) {
  // long_companions = 0 drops the "N long flows + " title prefix, and
  // the summary has one row per scheme with every cell filled once the
  // burst drains.
  const auto file = ConfigFile::parse(R"(
[experiment]
kind = incast
slug = solo
schemes = powertcp, hpcc

[workload]
long_companions = 0
query_kb = 400
fan_in = 8
burst_at_us = 100
horizon_ms = 0.6
)",
                                      "solo.toml");
  const auto tables = run_config(load_runner_config(file), SweepRunner(1));
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables[0].title, "8:1 query incast (400 KB total) at t=100us");
  const ResultTable& summary = tables[1];
  EXPECT_EQ(summary.slug, "solo_query400kb_summary");
  EXPECT_EQ(summary.value_columns,
            (std::vector<std::string>{"peakQ(KB)", "settle(us)",
                                      "residualQ(KB)", "drops",
                                      "goodput(Gbps)"}));
  ASSERT_EQ(summary.rows.size(), 2u);
  EXPECT_EQ(summary.rows[0].keys.at(0).render(), "powertcp");
  EXPECT_EQ(summary.rows[1].keys.at(0).render(), "hpcc");
  for (const auto& row : summary.rows) {
    EXPECT_GT(row.values.at(0).number(), 0.0);
    EXPECT_GT(row.values.at(1).number(), 0.0);
    EXPECT_NE(row.values.at(2).render(), "-");
  }
}

TEST(Runner, BurstSummaryReadsPeakSettleAndResidual) {
  stats::QueueSeries q;
  q.sample(sim::microseconds(0), 0);  // at or below a tenth, but pre-peak
  q.sample(sim::microseconds(120), 2'000);
  q.sample(sim::microseconds(150), 50'000);  // the peak
  q.sample(sim::microseconds(155), 5'001);   // just above peak/10
  q.sample(sim::microseconds(170), 5'000);   // settles: <= peak/10
  q.sample(sim::microseconds(200), 1'000);
  const IncastSeries s = summarize_burst_queue(q, sim::microseconds(100),
                                               sim::microseconds(270));
  EXPECT_DOUBLE_EQ(s.peak_queue_kb, 50.0);
  ASSERT_TRUE(s.settle_us.has_value());
  EXPECT_NEAR(*s.settle_us, 70.0, 1e-9);  // from burst_at, not from 0
  // [170, 270] us: 5000 B for 30 us, then 1000 B for 70 us.
  ASSERT_TRUE(s.residual_queue_kb.has_value());
  EXPECT_NEAR(*s.residual_queue_kb, 2.2, 1e-9);

  stats::QueueSeries high;
  high.sample(sim::microseconds(10), 1'000);
  high.sample(sim::microseconds(20), 800);
  const IncastSeries never = summarize_burst_queue(
      high, sim::microseconds(0), sim::microseconds(100));
  EXPECT_DOUBLE_EQ(never.peak_queue_kb, 1.0);
  EXPECT_FALSE(never.settle_us.has_value());
  EXPECT_FALSE(never.residual_queue_kb.has_value());
  EXPECT_FALSE(summarize_burst_queue(stats::QueueSeries{}, 0,
                                     sim::microseconds(100))
                   .settle_us.has_value());
}

TEST(Runner, HomaOcSubKilobyteBurstsAreSentUnclamped) {
  // burst_kb is what each responder sends, as given: 0.5 KB stays
  // 500 bytes (the incast kind's 1 KB floor applies to its query
  // split, not here). A 1 KB burst peaks at 5.2 KB on this point; the
  // row below is the pre-refactor output for 0.5 KB.
  const auto file = ConfigFile::parse(R"(
[experiment]
kind = homa_oc
slug = half
schemes = homa

[workload]
overcommit = 1
fan_in = 10
flow_mb = 1, 0.5
fairness_horizon_ms = 1
incast_horizon_ms = 1
burst_kb = 0.5
)",
                                      "half.toml");
  const auto tables = run_config(load_runner_config(file), SweepRunner(1));
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables[1].slug, "half_homa_incast10to1");
  ASSERT_EQ(tables[1].rows.size(), 1u);
  const auto& cells = tables[1].rows[0].values;
  EXPECT_EQ(cells.at(0).render(), "3.2");
  EXPECT_EQ(cells.at(1).render(), "0");
  EXPECT_EQ(cells.at(2).render(), "23.6");
}

TEST(Runner, SchemeAliasesRunOneSchemeTwice) {
  const auto file = ConfigFile::parse(R"(
[experiment]
kind = fat_tree
schemes = fast-power, slow-power

[workload]
load = 0.3

[cc.fast-power]
scheme = powertcp
gamma = 1.0

[cc.slow-power]
scheme = powertcp
gamma = 0.1
)",
                                      "alias.toml");
  const RunnerConfig cfg = load_runner_config(file);
  const FatTreeKindConfig& kind = as_kind<FatTreeKindConfig>(cfg);
  ASSERT_EQ(kind.schemes.size(), 2u);
  EXPECT_EQ(kind.schemes[0].display(), "fast-power");
  EXPECT_EQ(kind.schemes[0].scheme, "powertcp");
  EXPECT_EQ(kind.schemes[0].params.at("gamma"), "1.0");
  EXPECT_EQ(kind.schemes[1].params.at("gamma"), "0.1");
}

// ---- mixed_cc / fluid_phase / [aqm] --------------------------------

RunnerConfig mini_mixed_config(const std::string& extra = "") {
  const auto file = ConfigFile::parse(
      "[experiment]\n"
      "kind = mixed_cc\n"
      "slug = mini\n"
      "schemes = dctcp, powertcp\n"
      "seed = 7\n"
      "[workload]\n"
      "cc_mix = dctcp:0.5+powertcp:0.5\n"
      "senders = 6\n"
      "flow_mb = 0.5\n"
      "horizon_ms = 2\n" +
          extra,
      "mixed.toml");
  return load_runner_config(file);
}

TEST(Runner, MixedCcConfigResolvesMembersFromSchemeLabels) {
  const RunnerConfig cfg = mini_mixed_config("[cc.dctcp]\ng = 0.125\n");
  EXPECT_EQ(cfg.kind, "mixed_cc");
  const MixedCcKindConfig& kind = as_kind<MixedCcKindConfig>(cfg);
  EXPECT_EQ(kind.slug_prefix, "mini");
  EXPECT_EQ(kind.mixed.seed, 7u);
  EXPECT_EQ(kind.mixed.senders, 6);
  EXPECT_EQ(kind.mixed.flow_bytes, 500'000);
  ASSERT_EQ(kind.mixed.mixes.size(), 1u);
  const MixedCcMix& mix = kind.mixed.mixes[0];
  EXPECT_EQ(mix.display, "dctcp:0.50+powertcp:0.50");
  ASSERT_EQ(mix.members.size(), 2u);
  EXPECT_EQ(mix.members[0].scheme, "dctcp");
  // [cc.<label>] params flow through to the mix member.
  EXPECT_EQ(mix.members[0].params.at("g"), "0.125");
  EXPECT_EQ(mix.members[1].scheme, "powertcp");
  EXPECT_DOUBLE_EQ(mix.weights[0], 0.5);
  EXPECT_DOUBLE_EQ(mix.weights[1], 0.5);
  // Defaults: the red AQM, one rtt point, one cell at the topology's
  // default buffer (0).
  EXPECT_EQ(kind.mixed.aqm_kinds, (std::vector<std::string>{"red"}));
  EXPECT_EQ(kind.mixed.buffer_bytes, (std::vector<std::int64_t>{0}));
}

TEST(Runner, MixedCcTablesAreByteIdenticalAcrossThreadCounts) {
  const RunnerConfig cfg =
      mini_mixed_config("aqm = red, pie\nbuffer_kb = 0, 16\n");
  const auto t1 = render_all(run_config(cfg, SweepRunner(1)));
  const auto t4 = render_all(run_config(cfg, SweepRunner(4)));
  EXPECT_EQ(t1, t4);
  // Three tables (fairness, share, fct) with per-cell rows.
  EXPECT_NE(t1.find("mini_fairness"), std::string::npos);
  EXPECT_NE(t1.find("mini_share"), std::string::npos);
  EXPECT_NE(t1.find("mini_fct"), std::string::npos);
  EXPECT_NE(t1.find("dctcp:0.50+powertcp:0.50"), std::string::npos);
  EXPECT_NE(t1.find("pie"), std::string::npos);
}

TEST(Runner, MixedCcLoaderRejectsBadMixesWithFileLineContext) {
  const auto load = [](const std::string& workload) {
    return load_runner_config(ConfigFile::parse(
        "[experiment]\nkind = mixed_cc\nschemes = dctcp, powertcp, homa, "
        "retcp\n[workload]\n" +
            workload,
        "badmix.toml"));
  };
  // A message transport in a mix is a load-time ConfigError carrying
  // the cc_mix entry's line, not a run-time crash.
  try {
    load("cc_mix = dctcp+homa\n");
    FAIL() << "homa mix member should be rejected";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("badmix.toml:5"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("message transport"),
              std::string::npos);
  }
  // Circuit-bound schemes cannot share the coexistence dumbbell.
  EXPECT_THROW(load("cc_mix = dctcp+retcp\n"), ConfigError);
  // The library entry point throws on the same rules.
  const std::pair<const char*, const char*> members[] = {
      {"homa", "'homa' is a receiver-driven message transport"},
      {"retcp", "'retcp' needs a circuit schedule"}};
  for (const auto& [scheme, why] : members) {
    MixedCcScenario cfg;
    cfg.mixes = {{"dctcp+x", {{"", "dctcp", {}}, {"", scheme, {}}}, {1, 1}}};
    try {
      mixed_cc_tables(SweepRunner(1), cfg, "mix");
      ADD_FAILURE() << "ran mix member " << scheme;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  }
  // Members must come from the resolved schemes list.
  EXPECT_THROW(load("cc_mix = dctcp+timely\n"), ConfigError);
  // Malformed member syntax, empty list, unknown AQM kind, bad axes.
  EXPECT_THROW(load("cc_mix = dctcp:0+powertcp\n"), ConfigError);
  EXPECT_THROW(load(""), ConfigError);
  EXPECT_THROW(load("cc_mix = dctcp\naqm = fq_codel\n"), ConfigError);
  EXPECT_NO_THROW(load("cc_mix = dctcp\naqm = pie\n"));
  EXPECT_THROW(load("cc_mix = dctcp\nrtt_us = 0\n"), ConfigError);
  EXPECT_THROW(load("cc_mix = dctcp\nbuffer_kb = -4\n"), ConfigError);
  EXPECT_THROW(load("cc_mix = dctcp\nsenders = 0\n"), ConfigError);
}

TEST(Runner, AqmSectionParsesAndRejectsBadValues) {
  const auto load = [](const std::string& aqm) {
    return load_runner_config(ConfigFile::parse(
        "[experiment]\nkind = dumbbell\nschemes = dctcp\n"
        "[workload]\nhorizon_ms = 1\n" +
            aqm,
        "aqm.toml"));
  };
  // Default: red, untouched pre-refactor behavior.
  EXPECT_EQ(as_kind<DumbbellKindConfig>(load("")).dumbbell.topo.aqm.kind,
            "red");
  const auto pie = load("[aqm]\nkind = pie\ntarget_us = 40\nalpha = 0.25\n");
  const net::AqmSpec& spec =
      as_kind<DumbbellKindConfig>(pie).dumbbell.topo.aqm;
  EXPECT_EQ(spec.kind, "pie");
  EXPECT_DOUBLE_EQ(spec.target_us, 40.0);
  EXPECT_DOUBLE_EQ(spec.alpha, 0.25);
  EXPECT_DOUBLE_EQ(spec.tupdate_us, 20.0);  // untouched default
  EXPECT_THROW(load("[aqm]\nkind = fq_codel\n"), ConfigError);
  EXPECT_THROW(load("[aqm]\ntarget_us = 0\n"), ConfigError);
  EXPECT_THROW(load("[aqm]\necn_threshold = 1.5\n"), ConfigError);
  EXPECT_THROW(load("[aqm]\nkindd = pie\n"), ConfigError);  // unknown key
}

TEST(Runner, FluidPhaseConfigMirrorsTheFig3Bench) {
  const auto file = ConfigFile::parse(R"(
[experiment]
kind = fluid_phase
slug = fig3
schemes = powertcp
)",
                                      "fig3.toml");
  const RunnerConfig cfg = load_runner_config(file);
  const auto tables = run_config(cfg, SweepRunner(1));
  // Three per-law portraits + summary + theorem table.
  ASSERT_EQ(tables.size(), 5u);
  EXPECT_EQ(tables[0].slug, "fig3_voltage");
  EXPECT_EQ(tables[1].slug, "fig3_current");
  EXPECT_EQ(tables[2].slug, "fig3_power");
  EXPECT_EQ(tables[3].slug, "fig3_summary");
  EXPECT_EQ(tables[4].slug, "fig3_stability");
  const std::string summary = tables[3].render_text();
  // The figure's three claims: voltage undershoots the BDP line,
  // current has no unique equilibrium (empty eq cells), power is
  // loss-free with a unique equilibrium.
  EXPECT_NE(summary.find("no loss"), std::string::npos);
  EXPECT_NE(summary.find("loss"), std::string::npos);
  const std::string power_row =
      summary.substr(summary.find("power"));
  EXPECT_NE(power_row.find("no loss"), std::string::npos);
  // Deterministic closed forms: byte-identical across thread counts.
  EXPECT_EQ(render_all(tables),
            render_all(run_config(cfg, SweepRunner(3))));
}

TEST(Runner, FluidPhaseLoaderValidatesGridAndParameters) {
  const auto load = [](const std::string& extra) {
    return load_runner_config(ConfigFile::parse(
        "[experiment]\nkind = fluid_phase\nschemes = powertcp\n" + extra,
        "fluid.toml"));
  };
  EXPECT_NO_THROW(load("[workload]\ngrid_w_bdp = 1\ngrid_q_bdp = 0\n"));
  EXPECT_THROW(load("[topology]\nbandwidth_gbps = 0\n"), ConfigError);
  EXPECT_THROW(load("[workload]\nstep_us = 0\n"), ConfigError);
  EXPECT_THROW(load("[workload]\ngrid_w_bdp = 1, 2\ngrid_q_bdp = 0\n"),
               ConfigError);
  EXPECT_THROW(load("[workload]\ngrid_w_bdp = 0\ngrid_q_bdp = 0\n"),
               ConfigError);
  // Work caps: 1e-300 us steps or samples would integrate (or store)
  // forever. Fig. 3's own 20,000 steps stay well inside.
  const std::string fluid =
      "[experiment]\nkind = fluid_phase\nschemes = powertcp\n[workload]\n";
  expect_rejected_at(fluid + "step_us = 1e-300\n", "step_us");
  expect_rejected_at(fluid + "sample_us = 1e-300\n", "sample_us");
  expect_rejected_at(fluid + "duration_ms = 1e300\n", "duration_ms");
  EXPECT_NO_THROW(load("[workload]\nduration_ms = 100\nstep_us = 1\n"));
}

TEST(Runner, SingleFlowLoaderCapsTheTableRows) {
  const std::string head =
      "[experiment]\nkind = single_flow\nschemes = powertcp\n[workload]\n";
  // 0..rate_max in steps of 1 and 0..queue_max in steps of
  // queue_step: a 1e300 sweep never finishes.
  expect_rejected_at(head + "rate_max = 1e300\n", "rate_max");
  expect_rejected_at(head + "queue_step_pkts = 1e-300\n", "queue_step_pkts");
  expect_rejected_at(head + "queue_max_pkts = 1e300\n", "queue_max_pkts");
  expect_rejected_at(head + "queue_step_pkts = nan\n", "queue_step_pkts");
  EXPECT_NO_THROW(load_runner_config(ConfigFile::parse(
      head + "rate_max = 9998\nqueue_max_pkts = 9999\nqueue_step_pkts = 1\n",
      "ok.toml")));
}

}  // namespace
}  // namespace powertcp::harness
