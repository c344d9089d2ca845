#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"

/// \file params.hpp
/// String-typed tunable parameters for congestion control schemes.
///
/// Every scheme declares a table of ParamSpecs (name, rendered default,
/// one-line description) and accepts a ParamMap of `key=value` overrides
/// — the form config files ([cc.<scheme>] sections) and the registry
/// hand around. ParamReader does the typed parsing: an override for an
/// undeclared key, or a value that does not parse, throws
/// std::invalid_argument naming the scheme and key.

namespace powertcp::cc {

/// `key=value` overrides, e.g. parsed from a `[cc.powertcp]` section.
/// Ordered so diagnostics and --list-schemes output are stable.
using ParamMap = std::map<std::string, std::string>;

/// One declared tunable. `default_value` is documentation (the config
/// struct initializer is authoritative); it is rendered by
/// `powertcp_run --schemes`.
struct ParamSpec {
  std::string key;
  std::string default_value;
  std::string description;
};

/// Shared scalar parsers — the single definition of what counts as a
/// number/boolean everywhere strings carry config (ParamReader here,
/// harness::KeyTable, the one config-file reader). Empty optional means
/// the text does not parse; the caller owns error shaping.
std::optional<double> parse_double_value(const std::string& text);
std::optional<std::int64_t> parse_int_value(const std::string& text);
std::optional<bool> parse_bool_value(const std::string& text);

/// Typed access to a ParamMap against a scheme's declared specs.
/// Construction validates that every override names a declared key.
class ParamReader {
 public:
  /// Throws std::invalid_argument if `overrides` contains a key absent
  /// from `specs` ("scheme 'x': unknown parameter 'y'; declared: ...").
  ParamReader(const std::string& scheme, const ParamMap& overrides,
              const std::vector<ParamSpec>& specs);

  bool has(const std::string& key) const;

  /// Each getter returns `fallback` when the key is not overridden and
  /// throws std::invalid_argument when the override does not parse (or
  /// is NaN or infinite, or a duration past the picosecond clock).
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  /// Value given in microseconds, returned as simulator time.
  sim::TimePs get_microseconds(const std::string& key,
                               sim::TimePs fallback) const;

 private:
  const std::string* raw(const std::string& key) const;

  std::string scheme_;
  const ParamMap& overrides_;
};

}  // namespace powertcp::cc
