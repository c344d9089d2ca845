#include "cc/params.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace powertcp::cc {

namespace {

/// Just under int64 max, as in harness/keys.cpp: the ceiling for a
/// duration rounded onto the picosecond clock.
constexpr double kClockCeilingPs = 9.0e18;

[[noreturn]] void bad_value(const std::string& scheme, const std::string& key,
                            const std::string& value, const char* want) {
  throw ParamError(scheme, key, value, std::string("is not a valid ") + want);
}

}  // namespace

ParamError::ParamError(const std::string& scheme, const std::string& key,
                       const std::string& value, const std::string& why)
    : std::invalid_argument("scheme '" + scheme + "': parameter '" + key +
                            "' = '" + value + "' " + why),
      key(key),
      why(why) {}

std::optional<double> parse_double_value(const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') return std::nullopt;
  return v;
}

std::optional<std::int64_t> parse_int_value(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

std::optional<bool> parse_bool_value(const std::string& text) {
  if (text == "true" || text == "on" || text == "1") return true;
  if (text == "false" || text == "off" || text == "0") return false;
  return std::nullopt;
}

ParamReader::ParamReader(const std::string& scheme, const ParamMap& overrides,
                         const std::vector<ParamSpec>& specs)
    : scheme_(scheme), overrides_(overrides) {
  for (const auto& [key, value] : overrides) {
    (void)value;
    bool declared = false;
    for (const auto& spec : specs) declared = declared || spec.key == key;
    if (!declared) {
      std::string known;
      for (const auto& spec : specs) {
        if (!known.empty()) known += ", ";
        known += spec.key;
      }
      throw std::invalid_argument("scheme '" + scheme +
                                  "': unknown parameter '" + key +
                                  "'; declared: " + known);
    }
  }
}

const std::string* ParamReader::raw(const std::string& key) const {
  const auto it = overrides_.find(key);
  return it == overrides_.end() ? nullptr : &it->second;
}

bool ParamReader::has(const std::string& key) const {
  return raw(key) != nullptr;
}

double ParamReader::get_double(const std::string& key, double fallback) const {
  const std::string* v = raw(key);
  if (v == nullptr) return fallback;
  const auto parsed = parse_double_value(*v);
  if (!parsed || !std::isfinite(*parsed)) {
    bad_value(scheme_, key, *v, "number");
  }
  return *parsed;
}

std::int64_t ParamReader::int_within(const std::string& key,
                                     const std::string& value,
                                     std::int64_t lo, std::int64_t hi) const {
  const auto parsed = parse_int_value(value);
  if (!parsed) bad_value(scheme_, key, value, "integer");
  if (*parsed < lo || *parsed > hi) {
    bad_value(scheme_, key, value, "32-bit integer");
  }
  return *parsed;
}

bool ParamReader::get_bool(const std::string& key, bool fallback) const {
  const std::string* v = raw(key);
  if (v == nullptr) return fallback;
  const auto parsed = parse_bool_value(*v);
  if (!parsed) bad_value(scheme_, key, *v, "boolean (true/false/on/off/1/0)");
  return *parsed;
}

sim::TimePs ParamReader::get_microseconds(const std::string& key,
                                          sim::TimePs fallback) const {
  const std::string* v = raw(key);
  if (v == nullptr) return fallback;
  const double us = get_double(key, 0.0);
  // llround past int64 has no detectable error path.
  if (std::abs(us) * 1e6 > kClockCeilingPs) {
    bad_value(scheme_, key, *v, "number");
  }
  return sim::from_seconds(us * 1e-6);
}

}  // namespace powertcp::cc
