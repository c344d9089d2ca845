#include "harness/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/bench_opts.hpp"

namespace powertcp::harness {
namespace {

TEST(Cell, RendersNumbersTextAndEmpty) {
  EXPECT_EQ(Cell(3.14159, 2).render(), "3.14");
  EXPECT_EQ(Cell(2.0, 0).render(), "2");
  EXPECT_EQ(Cell::integer(42).render(), "42");
  EXPECT_EQ(Cell(std::string("powertcp")).render(), "powertcp");
  EXPECT_EQ(Cell().render(), "-");
  EXPECT_EQ(Cell(std::nan(""), 2).render(), "-");  // NaN collapses to empty
}

TEST(Cell, CsvQuotesOnlyWhenNeeded) {
  EXPECT_EQ(Cell(std::string("plain")).csv(), "plain");
  EXPECT_EQ(Cell(std::string("a,b")).csv(), "\"a,b\"");
  EXPECT_EQ(Cell(std::string("say \"hi\"")).csv(), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(Cell().csv(), "");
  EXPECT_EQ(Cell(1.5, 1).csv(), "1.5");
}

TEST(Cell, JsonEmitsTypedValues) {
  EXPECT_EQ(Cell(1.25, 2).json(), "1.25");
  EXPECT_EQ(Cell(std::string("x")).json(), "\"x\"");
  EXPECT_EQ(Cell().json(), "null");
}

ResultTable tiny_table() {
  ResultTable t;
  t.title = "tiny";
  t.slug = "tiny";
  t.key_columns = {"algo", "load"};
  t.value_columns = {"p99", "drops"};
  t.rows.push_back({{Cell(std::string("powertcp")), Cell(20.0, 0)},
                    {Cell(3.5, 2), Cell::integer(0)}});
  t.rows.push_back(
      {{Cell(std::string("hpcc")), Cell(40.0, 0)}, {Cell(), Cell::integer(7)}});
  return t;
}

TEST(ResultTable, TextAlignsColumns) {
  const std::string text = tiny_table().render_text();
  EXPECT_EQ(text,
            "=== tiny ===\n"
            "algo      load   p99  drops\n"
            "powertcp    20  3.50      0\n"
            "hpcc        40     -      7\n");
}

TEST(ResultTable, CsvIsLongFormat) {
  std::string csv = ResultTable::csv_header();
  tiny_table().append_csv(csv);
  EXPECT_EQ(csv,
            "table,point,metric,value\n"
            "tiny,algo=powertcp;load=20,p99,3.50\n"
            "tiny,algo=powertcp;load=20,drops,0\n"
            "tiny,algo=hpcc;load=40,p99,\n"
            "tiny,algo=hpcc;load=40,drops,7\n");
}

TEST(ResultTable, JsonHasColumnsAndNullForEmpty) {
  std::string json;
  tiny_table().append_json(json, 0);
  EXPECT_NE(json.find("\"slug\": \"tiny\""), std::string::npos);
  EXPECT_NE(json.find("\"key_columns\": [\"algo\", \"load\"]"),
            std::string::npos);
  EXPECT_NE(json.find("\"p99\": null"), std::string::npos);
  EXPECT_NE(json.find("\"p99\": 3.50"), std::string::npos);
}

TEST(ResultTable, RejectsRowShapeMismatch) {
  ResultTable t = tiny_table();
  t.rows.back().values.push_back(Cell(1.0, 1));  // one cell too many
  EXPECT_THROW(t.render_text(), std::logic_error);
  std::string out;
  EXPECT_THROW(t.append_csv(out), std::logic_error);
  EXPECT_THROW(t.append_json(out, 0), std::logic_error);
}

TEST(ResultTable, RejectsRepeatedColumnNames) {
  // Two columns of one name would write one (table, point, metric) CSV
  // key twice; key and value columns share one namespace.
  for (const bool as_key : {false, true}) {
    ResultTable t = tiny_table();
    (as_key ? t.key_columns : t.value_columns).push_back(t.value_columns[0]);
    for (auto& row : t.rows) {
      (as_key ? row.keys : row.values).push_back(Cell(1.0, 1));
    }
    EXPECT_THROW(t.render_text(), std::logic_error) << as_key;
    std::string out;
    EXPECT_THROW(t.append_csv(out), std::logic_error) << as_key;
    EXPECT_THROW(t.append_json(out, 0), std::logic_error) << as_key;
  }
}

TEST(BenchReporter, CsvAppendsAcrossRunsWithSingleHeader) {
  const std::string path = testing::TempDir() + "/sweep_append_test.csv";
  std::remove(path.c_str());
  BenchOptions opts;
  opts.csv_path = path;
  for (int run = 0; run < 2; ++run) {
    BenchReporter reporter("test_bench", opts);
    reporter.add(tiny_table());
    EXPECT_EQ(reporter.finish(), 0);
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[256];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  // Header once, data rows twice.
  EXPECT_EQ(content.find("table,point,metric,value"),
            content.rfind("table,point,metric,value"));
  EXPECT_NE(content.find("tiny,algo=powertcp;load=20,p99,3.50"),
            content.rfind("tiny,algo=powertcp;load=20,p99,3.50"));
}

TEST(SweepRunner, MapPreservesDeclarationOrder) {
  SweepRunner runner(8);
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 64; ++i) {
    jobs.push_back([i] { return i * i; });
  }
  const std::vector<int> out = runner.map(jobs);
  ASSERT_EQ(out.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i * i);
}

TEST(SweepRunner, EveryIndexRunsExactlyOnce) {
  SweepRunner runner(4);
  std::vector<std::atomic<int>> hits(97);
  runner.run_indexed(hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SweepRunner, PropagatesJobException) {
  SweepRunner runner(4);
  EXPECT_THROW(runner.run_indexed(8,
                                  [](std::size_t i) {
                                    if (i == 5) {
                                      throw std::runtime_error("boom");
                                    }
                                  }),
               std::runtime_error);
}

TEST(BenchOptions, ParsesSweepFlags) {
  const char* argv[] = {"bench", "--threads=4", "--csv=a.csv",
                        "--json=b.json", "--fast"};
  const auto o =
      BenchOptions::parse(5, const_cast<char**>(argv));
  EXPECT_TRUE(o.ok);
  EXPECT_EQ(o.threads, 4);
  EXPECT_EQ(o.csv_path, "a.csv");
  EXPECT_EQ(o.json_path, "b.json");
  EXPECT_TRUE(o.fast);
}

TEST(BenchOptions, RejectsUnknownAndBadFlags) {
  const char* unknown[] = {"bench", "--frobnicate"};
  EXPECT_FALSE(BenchOptions::parse(2, const_cast<char**>(unknown)).ok);
  const char* bad[] = {"bench", "--threads=zero"};
  EXPECT_FALSE(BenchOptions::parse(2, const_cast<char**>(bad)).ok);
  const char* neg[] = {"bench", "--threads=0"};
  EXPECT_FALSE(BenchOptions::parse(2, const_cast<char**>(neg)).ok);
}

TEST(BenchOptions, HelpShortCircuits) {
  const char* argv[] = {"bench", "--help"};
  const auto o = BenchOptions::parse(2, const_cast<char**>(argv));
  EXPECT_TRUE(o.help);
  EXPECT_NE(BenchOptions::usage("bench").find("--threads=N"),
            std::string::npos);
}

}  // namespace
}  // namespace powertcp::harness
