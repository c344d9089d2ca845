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

/// Collects ResultTables from one bench run: prints each table as text
/// on add(), and on finish() writes the CSV/JSON files requested on the
/// command line.
class BenchReporter {
 public:
  BenchReporter(std::string bench_name, const BenchOptions& opts);

  SweepRunner& runner() { return runner_; }
  const BenchOptions& options() const { return opts_; }

  /// Prints the table (stdout) and retains it for the file emitters.
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
