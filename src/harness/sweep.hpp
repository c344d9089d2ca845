#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

/// \file sweep.hpp
/// Parallel sweep execution and machine-readable result tables.
///
/// The paper's headline figures (6-8) are sweeps over independent
/// simulations: every point owns a private Simulator/Network, so points
/// are embarrassingly parallel. SweepRunner::map / run_indexed is the
/// one way to run them: a caller builds all of its points as one job
/// list, and results land *by declaration index*, so the tables built
/// from them are byte-identical regardless of thread count or
/// completion order. ResultTable renders as an aligned text table,
/// long-format CSV rows, or JSON.
///
/// Thread-safety contract for jobs run on the pool: a job runs on a
/// worker thread and must only touch its own point's config and result.
/// The library holds no mutable global state (the only function-local
/// statics — paper_size_buckets(), cc::Registry::instance() and the
/// per-scheme param-spec tables, sender_cc_names() — are const and
/// initialised thread-safely), but stats::Samples is NOT shareable
/// across points: percentile()/summary() mutate its lazy sort cache, so
/// a Samples read by two workers concurrently would be a data race. The
/// tsan CMake preset runs these pool paths under ThreadSanitizer in CI.

namespace powertcp::harness {

/// One table cell: a fixed-precision number, a text label, or empty.
/// Empty cells render as "-" in text, an empty field in CSV, and null in
/// JSON; NaN numbers are treated as empty.
class Cell {
 public:
  Cell() = default;  ///< empty
  Cell(double value, int precision);
  explicit Cell(std::string text);
  static Cell integer(std::int64_t v) {
    return Cell(static_cast<double>(v), 0);
  }

  double number() const { return number_; }
  const std::string& text() const { return text_; }

  std::string render() const;  ///< text-table form ("3.10", label, "-")
  std::string csv() const;     ///< CSV field (quoted if needed, "" if empty)
  std::string json() const;    ///< JSON value (number, string, or null)

 private:
  enum class Kind { kEmpty, kNumber, kText };
  Kind kind_ = Kind::kEmpty;
  double number_ = 0;
  int precision_ = 2;
  std::string text_;
};

/// A completed sweep: named key columns identifying each row plus named
/// value columns of measured metrics.
struct ResultTable {
  std::string title;  ///< human heading, printed above the text table
  std::string slug;   ///< machine name used in CSV/JSON ("fig7_load80")
  std::vector<std::string> key_columns;
  std::vector<std::string> value_columns;
  struct Row {
    std::vector<Cell> keys;
    std::vector<Cell> values;
  };
  std::vector<Row> rows;

  /// Throws std::logic_error if a column name repeats (its CSV and JSON
  /// keys would be ambiguous) or any row's cell counts disagree with
  /// the declared key/value columns (metrics callbacks and column lists
  /// are maintained separately and can drift). All renderers call this.
  void check_shape() const;

  /// Aligned text table including the "=== title ===" heading.
  std::string render_text() const;

  /// Appends long-format rows `slug,key1=...;key2=...,metric,value`.
  /// Callers emit csv_header() once per file.
  void append_csv(std::string& out) const;
  static const char* csv_header();  // "table,point,metric,value\n"

  /// Appends this table as a JSON object (no trailing comma/newline).
  void append_json(std::string& out, int indent) const;
};

class SweepRunner {
 public:
  /// `threads` <= 1 means run inline on the calling thread.
  explicit SweepRunner(int threads = 1);

  int threads() const { return threads_; }

  /// Runs `fn(0) .. fn(n-1)` across the pool. Each index is claimed by
  /// exactly one worker; the call returns after all indices finish. The
  /// first exception thrown by any job is rethrown on the caller.
  void run_indexed(std::size_t n,
                   const std::function<void(std::size_t)>& fn) const;

  /// Order-preserving parallel map: result i is jobs[i]'s return value,
  /// independent of thread count and completion order.
  template <typename T>
  std::vector<T> map(const std::vector<std::function<T()>>& jobs) const {
    std::vector<T> out(jobs.size());
    run_indexed(jobs.size(), [&](std::size_t i) { out[i] = jobs[i](); });
    return out;
  }

 private:
  int threads_;
};

}  // namespace powertcp::harness
