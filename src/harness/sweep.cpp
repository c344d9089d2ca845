#include "harness/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

namespace powertcp::harness {

namespace {

std::string format_number(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace

Cell::Cell(double value, int precision)
    : kind_(std::isnan(value) ? Kind::kEmpty : Kind::kNumber),
      number_(value),
      precision_(precision) {}

Cell::Cell(std::string text) : kind_(Kind::kText), text_(std::move(text)) {}

std::string Cell::render() const {
  switch (kind_) {
    case Kind::kNumber: return format_number(number_, precision_);
    case Kind::kText: return text_;
    case Kind::kEmpty: return "-";
  }
  return "-";
}

std::string Cell::csv() const {
  switch (kind_) {
    case Kind::kNumber: return format_number(number_, precision_);
    case Kind::kText: return csv_escape(text_);
    case Kind::kEmpty: return "";
  }
  return "";
}

std::string Cell::json() const {
  switch (kind_) {
    case Kind::kNumber: return format_number(number_, precision_);
    case Kind::kText: return json_escape(text_);
    case Kind::kEmpty: return "null";
  }
  return "null";
}

void ResultTable::check_shape() const {
  std::set<std::string> names(key_columns.begin(), key_columns.end());
  names.insert(value_columns.begin(), value_columns.end());
  if (names.size() != key_columns.size() + value_columns.size()) {
    throw std::logic_error("ResultTable '" + slug + "': a column name repeats");
  }
  for (const auto& row : rows) {
    if (row.keys.size() != key_columns.size() ||
        row.values.size() != value_columns.size()) {
      throw std::logic_error(
          "ResultTable '" + slug + "': row has " +
          std::to_string(row.keys.size()) + "+" +
          std::to_string(row.values.size()) + " cells but " +
          std::to_string(key_columns.size()) + "+" +
          std::to_string(value_columns.size()) + " columns are declared");
    }
  }
}

std::string ResultTable::render_text() const {
  check_shape();
  const std::size_t n_keys = key_columns.size();
  const std::size_t n_cols = n_keys + value_columns.size();
  std::vector<std::size_t> width(n_cols);
  const auto header_at = [&](std::size_t c) -> const std::string& {
    return c < n_keys ? key_columns[c] : value_columns[c - n_keys];
  };
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows.size());
  for (const auto& row : rows) {
    std::vector<std::string> r;
    r.reserve(n_cols);
    for (const auto& cell : row.keys) r.push_back(cell.render());
    for (const auto& cell : row.values) r.push_back(cell.render());
    rendered.push_back(std::move(r));
  }
  for (std::size_t c = 0; c < n_cols; ++c) {
    width[c] = header_at(c).size();
    for (const auto& r : rendered) {
      if (c < r.size()) width[c] = std::max(width[c], r[c].size());
    }
  }

  std::string out;
  if (!title.empty()) out += "=== " + title + " ===\n";
  // The leading key column is left-aligned (labels); everything else is
  // right-aligned (numbers), matching the historical printf tables.
  const auto pad = [&](const std::string& s, std::size_t c) {
    std::string padded;
    const std::size_t w = width[c];
    if (c == 0) {
      padded = s + std::string(w > s.size() ? w - s.size() : 0, ' ');
    } else {
      padded = std::string(w > s.size() ? w - s.size() : 0, ' ') + s;
    }
    return padded;
  };
  for (std::size_t c = 0; c < n_cols; ++c) {
    if (c) out += "  ";
    out += pad(header_at(c), c);
  }
  out += '\n';
  for (const auto& r : rendered) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      if (c) out += "  ";
      out += pad(r[c], c);
    }
    out += '\n';
  }
  return out;
}

const char* ResultTable::csv_header() { return "table,point,metric,value\n"; }

void ResultTable::append_csv(std::string& out) const {
  check_shape();
  for (const auto& row : rows) {
    std::string point;
    for (std::size_t k = 0; k < row.keys.size(); ++k) {
      if (k) point += ';';
      point += key_columns[k] + '=' + row.keys[k].render();
    }
    for (std::size_t v = 0; v < row.values.size(); ++v) {
      out += csv_escape(slug);
      out += ',';
      out += csv_escape(point);
      out += ',';
      out += csv_escape(value_columns[v]);
      out += ',';
      out += row.values[v].csv();
      out += '\n';
    }
  }
}

void ResultTable::append_json(std::string& out, int indent) const {
  check_shape();
  const std::string ind(static_cast<std::size_t>(indent), ' ');
  const std::string ind2 = ind + "  ";
  const std::string ind3 = ind2 + "  ";
  out += ind + "{\n";
  out += ind2 + "\"title\": " + json_escape(title) + ",\n";
  out += ind2 + "\"slug\": " + json_escape(slug) + ",\n";
  const auto name_array = [&](const char* field,
                              const std::vector<std::string>& names) {
    out += ind2 + '"' + field + "\": [";
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i) out += ", ";
      out += json_escape(names[i]);
    }
    out += "],\n";
  };
  name_array("key_columns", key_columns);
  name_array("value_columns", value_columns);
  out += ind2 + "\"rows\": [";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out += r ? ",\n" : "\n";
    out += ind3 + "{\"keys\": {";
    for (std::size_t k = 0; k < rows[r].keys.size(); ++k) {
      if (k) out += ", ";
      out += json_escape(key_columns[k]) + ": " +
             json_escape(rows[r].keys[k].render());
    }
    out += "}, \"values\": {";
    for (std::size_t v = 0; v < rows[r].values.size(); ++v) {
      if (v) out += ", ";
      out += json_escape(value_columns[v]) + ": " + rows[r].values[v].json();
    }
    out += "}}";
  }
  out += rows.empty() ? "]\n" : "\n" + ind2 + "]\n";
  out += ind + "}";
}

SweepRunner::SweepRunner(int threads) : threads_(threads < 1 ? 1 : threads) {}

void SweepRunner::run_indexed(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  if (n == 0) return;
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(threads_), n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;
  const auto worker = [&] {
    for (;;) {
      // Fail fast: once any job throws, stop claiming points instead of
      // grinding through the (possibly hours-long) remainder.
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace powertcp::harness
