/// powertcp_run — the unified, config-file-driven experiment runner.
///
///   powertcp_run [--threads=N] [--csv=FILE] [--json=FILE] CONFIG...
///   powertcp_run --schemes
///   powertcp_run --kinds
///
/// Each CONFIG is an INI/TOML-subset experiment definition (see
/// configs/ for the per-figure quick-scale setups and
/// docs/reproducing.md for the key reference). Tables print as text
/// and accumulate into the optional CSV/JSON outputs; independent
/// simulation points run on the --threads pool and the output is
/// byte-identical for every thread count.

#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "cc/registry.hpp"
#include "harness/bench_opts.hpp"
#include "harness/config.hpp"
#include "harness/runner.hpp"
#include "harness/scenario_registry.hpp"

using namespace powertcp;

namespace {

const char* const kProg = "powertcp_run";

const char* kUsage =
    "usage: powertcp_run [options] CONFIG...\n"
    "  --threads=N  run independent simulation points on N threads\n"
    "               (results are identical for every N)\n"
    "  --csv=FILE   append long-format CSV rows (table,point,metric,value)\n"
    "  --json=FILE  write all result tables as one JSON document\n"
    "  --telemetry  arm the flight recorder even when the config has no\n"
    "               [telemetry] enabled = true (adds *_flight tables;\n"
    "               never changes the other tables' values)\n"
    "  --schemes    list registered schemes, their tunables and\n"
    "               topology needs, then exit\n"
    "  --kinds      list registered scenario kinds and every config\n"
    "               key with its unit, default and bound, then exit\n"
    "  --help       this message\n"
    "CONFIG files define [experiment]/[topology]/[workload]/[cc.*]\n"
    "sections; `kind = <name>` under [experiment] picks any registered\n"
    "scenario kind. See configs/ and docs/reproducing.md.\n";

void list_schemes() {
  for (const auto& scheme : cc::Registry::instance().schemes()) {
    std::printf("%s\n  %s\n", scheme.name.c_str(), scheme.summary.c_str());
    std::string needs;
    if (scheme.needs.priority_bands > 0) {
      needs += std::to_string(scheme.needs.priority_bands) +
               " fabric priority bands";
    }
    if (scheme.needs.circuit_schedule) {
      if (!needs.empty()) needs += ", ";
      needs += "a CircuitSchedule (RDCN topologies)";
    }
    if (scheme.needs.ecn.enabled) {
      if (!needs.empty()) needs += ", ";
      needs += "ECN marking";
    }
    if (scheme.message_transport) {
      if (!needs.empty()) needs += ", ";
      needs += "receiver-driven message transport";
    }
    if (!needs.empty()) std::printf("  needs: %s\n", needs.c_str());
    for (const auto& p : scheme.params) {
      std::printf("    %-22s %10s  %s\n", p.key.c_str(),
                  p.default_value.c_str(), p.description.c_str());
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  harness::BenchOptions opts;
  harness::RunnerLoadOptions load_opts;
  std::vector<std::string> configs;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (harness::take_value(arg, "--threads", &value)) {
      if (!harness::parse_threads(kProg, value, &opts.threads)) return 2;
    } else if (harness::take_value(arg, "--csv", &value)) {
      opts.csv_path = value;
    } else if (harness::take_value(arg, "--json", &value)) {
      opts.json_path = value;
    } else if (std::strcmp(arg, "--telemetry") == 0) {
      load_opts.force_telemetry = true;
    } else if (std::strcmp(arg, "--schemes") == 0) {
      list_schemes();
      return 0;
    } else if (std::strcmp(arg, "--kinds") == 0) {
      std::fputs(harness::kinds_reference().c_str(), stdout);
      return 0;
    } else if (std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "powertcp_run: unknown flag '%s'\n%s", arg,
                   kUsage);
      return 2;
    } else {
      configs.push_back(arg);
    }
  }
  if (configs.empty()) {
    std::fprintf(stderr, "powertcp_run: no config file given\n%s", kUsage);
    return 2;
  }

  harness::BenchReporter reporter("powertcp_run", opts);
  for (const auto& path : configs) {
    try {
      const auto file = harness::ConfigFile::parse_file(path);
      const auto cfg = harness::load_runner_config(
          file, harness::ScenarioRegistry::instance(), load_opts);
      for (auto& table : harness::run_config(cfg, reporter.runner())) {
        try {
          reporter.add(std::move(table));
        } catch (const std::invalid_argument& e) {
          throw std::invalid_argument(path + ": " + e.what());
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "powertcp_run: %s\n", e.what());
      return 2;
    }
  }
  return reporter.finish();
}
