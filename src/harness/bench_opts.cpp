#include "harness/bench_opts.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace powertcp::harness {

bool take_value(const char* arg, const char* flag, std::string* out) {
  const std::size_t n = std::strlen(flag);
  if (std::strncmp(arg, flag, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

bool parse_threads(const char* prog, const std::string& value, int* out) {
  char* end = nullptr;
  const long n = std::strtol(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || n < 1 || n > 4096) {
    std::fprintf(stderr, "%s: bad --threads value '%s'\n", prog,
                 value.c_str());
    return false;
  }
  *out = static_cast<int>(n);
  return true;
}

std::string BenchOptions::usage(const std::string& bench_name) {
  return "usage: " + bench_name +
         " [--threads=N] [--csv=FILE] [--json=FILE] [--fast]\n"
         "  --threads=N  run independent sweep points on N threads\n"
         "               (results are identical for every N)\n"
         "  --csv=FILE   append long-format CSV rows "
         "(table,point,metric,value)\n"
         "  --json=FILE  write all result tables as one JSON document\n"
         "  --fast       smaller/quicker preset (where supported)\n";
}

BenchOptions BenchOptions::parse(int argc, char** argv) {
  BenchOptions o;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (take_value(arg, "--threads", &value)) {
      if (!parse_threads(argv[0], value, &o.threads)) {
        o.ok = false;
        return o;
      }
    } else if (take_value(arg, "--csv", &value)) {
      o.csv_path = value;
    } else if (take_value(arg, "--json", &value)) {
      o.json_path = value;
    } else if (std::strcmp(arg, "--fast") == 0) {
      o.fast = true;
    } else if (std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0) {
      o.help = true;
      return o;
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n%s", argv[0], arg,
                   usage(argv[0]).c_str());
      o.ok = false;
      return o;
    }
  }
  return o;
}

std::string text_block(const ResultTable& table, bool first) {
  return (first ? "" : "\n") + table.render_text();
}

std::string csv_document(const std::vector<ResultTable>& tables,
                         bool header) {
  std::string csv = header ? ResultTable::csv_header() : "";
  for (const auto& t : tables) t.append_csv(csv);
  return csv;
}

std::string json_document(const std::string& bench_name,
                          const std::vector<ResultTable>& tables) {
  std::string json = "{\n  \"bench\": \"" + bench_name + "\",\n";
  json += "  \"tables\": [\n";
  for (std::size_t i = 0; i < tables.size(); ++i) {
    tables[i].append_json(json, 4);
    json += i + 1 < tables.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  return json;
}

BenchReporter::BenchReporter(std::string bench_name, const BenchOptions& opts)
    : bench_name_(std::move(bench_name)),
      opts_(opts),
      runner_(opts.threads) {}

void BenchReporter::add(ResultTable table) {
  for (const ResultTable& t : tables_) {
    if (t.slug == table.slug) {
      throw std::invalid_argument("table slug '" + table.slug +
                                  "' is already taken by an earlier table");
    }
  }
  std::fputs(text_block(table, tables_.empty()).c_str(), stdout);
  std::fflush(stdout);
  tables_.push_back(std::move(table));
}

int BenchReporter::finish() {
  int rc = 0;
  const auto write_file = [&](const std::string& path,
                              const std::string& content, const char* mode) {
    std::FILE* f = std::fopen(path.c_str(), mode);
    if (f == nullptr) {
      std::fprintf(stderr, "%s: cannot write %s\n", bench_name_.c_str(),
                   path.c_str());
      rc = 1;
      return;
    }
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
  };
  if (!opts_.csv_path.empty()) {
    // Appending lets several benches accumulate rows in one file (the
    // fixed long-format schema is shared); the header is only emitted
    // when the file is new or empty.
    bool fresh = true;
    if (std::FILE* probe = std::fopen(opts_.csv_path.c_str(), "r")) {
      fresh = std::fgetc(probe) == EOF;
      std::fclose(probe);
    }
    write_file(opts_.csv_path, csv_document(tables_, fresh), "a");
    if (rc == 0) {
      std::fprintf(stderr, "appended CSV: %s\n", opts_.csv_path.c_str());
    }
  }
  if (!opts_.json_path.empty()) {
    write_file(opts_.json_path, json_document(bench_name_, tables_), "w");
    if (rc == 0) {
      std::fprintf(stderr, "wrote JSON: %s\n", opts_.json_path.c_str());
    }
  }
  return rc;
}

}  // namespace powertcp::harness
