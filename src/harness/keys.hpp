#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/config.hpp"
#include "sim/time.hpp"

/// \file keys.hpp
/// Declarative config schemas. A section's keys are declared once, one
/// line per key, by a function over the config struct they fill:
///
///   keys.count("topology", "pods", &cfg.pods, Bound::at_least(1));
///
/// The same function runs in two modes. In load mode (a KeyTable over
/// a ConfigFile) each line reads its key if the file sets it, parses
/// it with the cc::parse_*_value helpers, checks it against its unit
/// and bound, and writes the field; a violation is a ConfigError at the
/// key's file:line, and so is a key no line declares. KeyTable is the
/// one typed reader of a config file, `[cc.<label>]` sections included.
/// In describe mode (a default KeyTable over a default-constructed
/// struct) each line records the key, its unit, its bound and the
/// field's value as the default: the reference `powertcp_run --kinds`
/// prints. So a key's reader, range
/// check and documentation cannot drift apart.
///
/// A load-mode table reads one point: a scalar key under [topology] or
/// [workload] may list one value per point (one value serves every
/// point), and the table reads its point's entry. Listed keys pair by
/// entry index, so their lengths must match.

namespace powertcp::harness {

/// The values a numeric key admits: from `lo` (exclusive when
/// `lo_open`) up to `hi` inclusive. NaN and infinities never pass.
struct Bound {
  double lo = 0;
  bool lo_open = false;
  double hi = std::numeric_limits<double>::infinity();

  static constexpr Bound at_least(double lo) { return {lo, false}; }
  static constexpr Bound above(double lo) { return {lo, true}; }
  constexpr Bound upto(double h) const { return {lo, lo_open, h}; }

  bool admits(double x) const;
  /// ">= 1", "> 0", "[1, 64]" or "(0, 1]".
  std::string text() const;
};

/// Sizes are written in KB or MB and stored in bytes.
enum class Size { kKB, kMB };

/// One declared key, as describe mode records it.
struct KeyInfo {
  std::string section;
  std::string key;
  std::string unit;           ///< "count", "real list", "ms", ...
  std::string default_value;  ///< the struct's value; "required" if none
  std::string bound;
  std::string outside;  ///< a value the bound rejects ("" if none)
};

class KeyTable {
 public:
  /// The bound every line rate (Gbps) shares.
  static constexpr Bound kGbps = Bound::at_least(1e-3).upto(1e5);

  /// Describe mode.
  KeyTable() = default;
  /// Load mode: each declaration reads its key from `file`, a listed
  /// scalar key at entry `point`.
  explicit KeyTable(const ConfigFile& file, std::size_t point = 0)
      : file_(&file), point_(point) {}

  // A vector field makes a list key: comma-separated, non-empty, each
  // entry in bound. A list field that is empty by default is required.
  void count(const char* section, const char* key, int* field, Bound bound);
  void count(const char* section, const char* key, std::int64_t* field,
             Bound bound);
  void count(const char* section, const char* key, std::vector<int>* field,
             Bound bound);
  void real(const char* section, const char* key, double* field, Bound bound,
            const char* unit = "real");
  void real(const char* section, const char* key, std::vector<double>* field,
            Bound bound);
  void gbps(const char* section, const char* key, sim::Bandwidth* field);
  void gbps(const char* section, const char* key, double* field) {
    real(section, key, field, kGbps, "Gbps");
  }
  /// A duration >= 0 within the clock's range; with `positive`, at
  /// least 1 ps once rounded (time-series bins divide by it).
  void ms(const char* section, const char* key, sim::TimePs* field,
          bool positive = false) {
    time(section, key, field, "ms", 1e-3, positive);
  }
  void us(const char* section, const char* key, sim::TimePs* field,
          bool positive = false) {
    time(section, key, field, "us", 1e-6, positive);
  }
  /// At least one byte and within int64; with `zero_ok`, 0 as well
  /// (the kind's "use the default" value).
  void size(const char* section, const char* key, std::int64_t* field,
            Size unit, bool zero_ok = false);
  void size(const char* section, const char* key,
            std::vector<std::int64_t>* field, Size unit,
            bool zero_ok = false);
  void flag(const char* section, const char* key, bool* field);
  /// One of `options`; with no options, any text.
  void choice(const char* section, const char* key, std::string* field,
              const std::vector<std::string>& options);
  void choice(const char* section, const char* key,
              std::vector<std::string>* field,
              const std::vector<std::string>& options);
  void text(const char* section, const char* key, std::string* field) {
    choice(section, key, field, {});
  }
  void text(const char* section, const char* key,
            std::vector<std::string>* field) {
    choice(section, key, field, {});
  }

  /// The key that writes `field`.
  const std::string& name(const void* field) const;
  /// Load mode: whether the file sets the key that writes `field`.
  bool given(const void* field) const;
  /// Load mode, for checks that span keys: throws ConfigError at the
  /// line of the key that writes `field`, else of its section.
  [[noreturn]] void reject(const void* field, const std::string& why) const;
  /// Load mode: throws ConfigError on the first key, in a declared
  /// section, that nothing declared.
  void finish();
  /// Load mode: how many points the listed scalar keys make (1 when the
  /// file lists none).
  std::size_t points() const {
    return listed_.empty() ? 1 : listed_.front().second;
  }
  /// Load mode: throws ConfigError at the line of the first listed
  /// scalar key.
  [[noreturn]] void reject_points(const std::string& why) const {
    reject(listed_.front().first, why);
  }
  /// Load mode: every section a declaration named, in order.
  const std::vector<std::string>& sections() const { return sections_; }
  /// Describe mode: the declared keys, in order.
  const std::vector<KeyInfo>& keys() const { return keys_; }

 private:
  /// A key the file sets, as its declaration reads it: a listed scalar
  /// key's value is its point's entry.
  struct Read {
    const std::string& origin;
    std::string section;
    ConfigFile::Entry entry;

    /// Throws ConfigError "origin:line: [section] key = 'value' why".
    [[noreturn]] void fail(const std::string& why) const;
    double number() const;
    std::vector<double> numbers() const;
  };

  /// Records a key. Returns its read in load mode when the file sets
  /// the key.
  std::optional<Read> declare(const char* section, const char* key,
                              const void* field, KeyInfo info,
                              bool required = false);
  /// declare() for a scalar key, which [topology] and [workload] may
  /// list.
  std::optional<Read> scalar(const char* section, const char* key,
                             const void* field, KeyInfo info);
  void time(const char* section, const char* key, sim::TimePs* field,
            const char* unit, double unit_s, bool positive);

  const ConfigFile* file_ = nullptr;
  std::size_t point_ = 0;
  /// Every section a declaration named, in order.
  std::vector<std::string> sections_;
  /// The listed scalar keys, in declaration order, with their lengths.
  std::vector<std::pair<const void*, std::size_t>> listed_;
  std::map<const void*, std::pair<std::string, std::string>> fields_;
  std::vector<KeyInfo> keys_;
};

/// Renders keys grouped by section, one aligned line per key: key,
/// unit, default, bound.
std::string format_keys(const std::vector<KeyInfo>& keys);

}  // namespace powertcp::harness
