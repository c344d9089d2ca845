#pragma once

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

/// \file config.hpp
/// A small INI/TOML-subset config format for experiment definitions:
///
///   # comment (also ';'); inline '#' comments allowed after values
///   [section]           # or dotted names like [cc.powertcp]
///   key = value         # bare or "quoted" strings, numbers, booleans
///   list = a, b, c      # or TOML-style [a, b, c]
///
/// ConfigFile is the parsed syntax tree; SectionView layers typed
/// getters and unknown-key rejection on one section (every key a
/// harness does not consume is an error, so typos fail loudly instead
/// of silently running the default).

namespace powertcp::harness {

/// Parse/validation failure, prefixed "origin:line: " where known.
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ConfigFile {
 public:
  struct Entry {
    std::string key;
    std::string value;
    int line = 0;
  };
  struct Section {
    std::string name;
    std::vector<Entry> entries;
    int line = 0;

    /// nullptr when `key` is absent.
    const Entry* find(const std::string& key) const;
  };

  /// Throws ConfigError on I/O failure or syntax errors (duplicate
  /// sections/keys included).
  static ConfigFile parse_file(const std::string& path);
  static ConfigFile parse(const std::string& text,
                          const std::string& origin = "<config>");

  const std::string& origin() const { return origin_; }
  const std::vector<Section>& sections() const { return sections_; }
  /// nullptr when the section is absent.
  const Section* find(const std::string& name) const;

 private:
  std::string origin_;
  std::vector<Section> sections_;
};

/// Typed, consumption-tracked reads from one section. Call finish()
/// after the last get: any key never consumed throws ConfigError
/// naming it — the config-file analogue of cc::ParamReader.
class SectionView {
 public:
  /// `section` may be nullptr (a legitimately absent section): every
  /// getter then returns its fallback and finish() is a no-op.
  SectionView(const ConfigFile& file, const ConfigFile::Section* section);

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key, const std::string& fallback);
  double get_double(const std::string& key, double fallback);
  std::int64_t get_int(const std::string& key, std::int64_t fallback);
  /// get_int narrowed to `int`: a value outside int's range throws
  /// ConfigError (file:line) instead of wrapping.
  int get_int32(const std::string& key, int fallback);
  bool get_bool(const std::string& key, bool fallback);
  /// Comma-separated (or bracketed) list of strings; empty fallback
  /// stays empty.
  std::vector<std::string> get_list(const std::string& key,
                                    std::vector<std::string> fallback = {});
  std::vector<double> get_double_list(const std::string& key,
                                      std::vector<double> fallback = {});

  /// Throws ConfigError on the first key read by none of the getters.
  void finish();

  /// Throws ConfigError "origin:line: [section] key = 'value' <why>"
  /// for a key whose value parsed but is out of range.
  [[noreturn]] void reject(const std::string& key,
                           const std::string& why) const;

 private:
  const ConfigFile::Entry* take(const std::string& key);
  [[noreturn]] void fail(const ConfigFile::Entry& e,
                         const std::string& why) const;

  const ConfigFile& file_;
  const ConfigFile::Section* section_;
  std::set<std::string> consumed_;
};

/// Splits a raw list value ("a, b" or "[a, b]") into trimmed elements.
std::vector<std::string> split_config_list(const std::string& value);

}  // namespace powertcp::harness
