#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"

/// \file params.hpp
/// String-typed tunable parameters for congestion control schemes.
///
/// Every scheme declares a table of ParamSpecs (name, rendered default,
/// one-line description) and accepts a ParamMap of `key=value` overrides
/// — the form config files ([cc.<scheme>] sections) and the registry
/// hand around. ParamReader does the typed parsing: an override for an
/// undeclared key throws std::invalid_argument, and a value that does
/// not parse throws ParamError, both naming the scheme and key.

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

/// A value that does not parse as its parameter's type. `key` names
/// the parameter and `why` is the message's tail ("is not a valid
/// integer"), so a config reader can report the value at its own line.
struct ParamError : std::invalid_argument {
  ParamError(const std::string& scheme, const std::string& key,
             const std::string& value, const std::string& why);
  std::string key;
  std::string why;
};

/// Shared scalar parsers — the single definition of what counts as a
/// number/boolean everywhere strings carry config (ParamReader here,
/// harness::KeyTable, the one config-file reader). Empty optional means
/// the text does not parse (an integer past int64's range does not);
/// the caller owns error shaping.
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
  /// throws ParamError when the override does not parse (or is NaN or
  /// infinite, a duration past the picosecond clock, or an integer
  /// outside its destination type).
  double get_double(const std::string& key, double fallback) const;
  /// The destination type is named at the call, get_int<int>(...), so
  /// a value is never narrowed silently: one outside int's range is
  /// "not a valid 32-bit integer".
  template <typename Int>
  Int get_int(const std::string& key,
              std::type_identity_t<Int> fallback) const {
    static_assert(std::is_same_v<Int, int> ||
                  std::is_same_v<Int, std::int64_t>);
    const std::string* v = raw(key);
    if (v == nullptr) return fallback;
    return static_cast<Int>(int_within(key, *v,
                                       std::numeric_limits<Int>::min(),
                                       std::numeric_limits<Int>::max()));
  }
  bool get_bool(const std::string& key, bool fallback) const;
  /// Value given in microseconds, returned as simulator time.
  sim::TimePs get_microseconds(const std::string& key,
                               sim::TimePs fallback) const;

 private:
  const std::string* raw(const std::string& key) const;
  /// `value` parsed as an integer in [lo, hi], else throws ParamError.
  /// A range narrower than int64's is int's (see get_int).
  std::int64_t int_within(const std::string& key, const std::string& value,
                          std::int64_t lo, std::int64_t hi) const;

  std::string scheme_;
  const ParamMap& overrides_;
};

}  // namespace powertcp::cc
