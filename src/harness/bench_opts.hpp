#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/sweep.hpp"

/// \file bench_opts.hpp
/// Shared CLI for `powertcp_run` and the sweep benches: each accepts
///   --threads=N    run sweep points on N pool threads (default 1)
///   --csv=FILE     append long-format CSV (table,point,metric,value);
///                  the header is written only when FILE is new/empty,
///                  so several benches can accumulate into one file
///   --json=FILE    write (overwrite) a structured JSON document
///   --fast / --full  the pre-existing scale presets (bench-interpreted)
/// plus a BenchReporter that prints each finished table as text and
/// flushes the machine-readable files at the end. Output is a pure
/// function of (flags, seed): tables are assembled in declaration order
/// no matter how many threads execute the sweep.

namespace powertcp::harness {

/// True when `arg` is `<flag>=<value>`; stores the value.
bool take_value(const char* arg, const char* flag, std::string* out);

/// Parses a --threads value in [1, 4096] (the pool's bound) into
/// `*out`. Otherwise prints "<prog>: bad --threads value '<value>'" to
/// stderr and returns false, leaving `*out` untouched.
bool parse_threads(const char* prog, const std::string& value, int* out);

struct BenchOptions {
  int threads = 1;
  std::string csv_path;
  std::string json_path;
  bool fast = false;
  bool full = false;

  /// Parses argv. Unknown flags print usage to stderr and set `ok`
  /// false (benches exit 2). `--help` sets `help` (benches exit 0).
  static BenchOptions parse(int argc, char** argv);
  bool ok = true;
  bool help = false;

  static std::string usage(const std::string& bench_name);
};

/// One table as BenchReporter::add prints it: after a blank line
/// unless `first`.
std::string text_block(const ResultTable& table, bool first);
/// The long-format CSV rows of `tables`, after the header with `header`.
std::string csv_document(const std::vector<ResultTable>& tables,
                         bool header);
/// The --json document: the bench name, then every table. No other
/// run metadata, so it is byte-identical for every --threads value.
std::string json_document(const std::string& bench_name,
                          const std::vector<ResultTable>& tables);

/// Collects ResultTables from one bench run: prints each table as text
/// on add(), and on finish() writes the CSV/JSON files requested on the
/// command line.
class BenchReporter {
 public:
  BenchReporter(std::string bench_name, const BenchOptions& opts);

  SweepRunner& runner() { return runner_; }
  const BenchOptions& options() const { return opts_; }

  /// Prints the table (stdout) and retains it for the file emitters.
  /// Throws std::invalid_argument, printing nothing, if an earlier
  /// table has the same slug: the CSV's (table, point, metric) keys
  /// would be ambiguous.
  void add(ResultTable table);

  /// Writes --csv/--json outputs if requested. Returns 0 on success,
  /// 1 if a file could not be written (after printing to stderr).
  int finish();

 private:
  std::string bench_name_;
  BenchOptions opts_;
  SweepRunner runner_;
  std::vector<ResultTable> tables_;
};

}  // namespace powertcp::harness
