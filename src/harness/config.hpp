#pragma once

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
/// ConfigFile is the parsed syntax tree. The one typed reader over it
/// is harness::KeyTable (keys.hpp): it parses each entry a declaration
/// names, and every key nothing declared is an error, so typos fail
/// loudly instead of silently running the default.

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

/// Splits a raw list value ("a, b" or "[a, b]") into trimmed elements.
std::vector<std::string> split_config_list(const std::string& value);

}  // namespace powertcp::harness
