#include "harness/config.hpp"

#include <fstream>
#include <sstream>

namespace powertcp::harness {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Strips an unquoted trailing comment, honouring "..." quoting.
std::string strip_inline_comment(const std::string& s) {
  bool quoted = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '"') quoted = !quoted;
    if (!quoted && (s[i] == '#' || s[i] == ';')) return s.substr(0, i);
  }
  return s;
}

[[noreturn]] void fail_at(const std::string& origin, int line,
                          const std::string& message) {
  throw ConfigError(origin + ":" + std::to_string(line) + ": " + message);
}

std::string unquote(const std::string& v, const std::string& origin,
                    int line) {
  if (v.size() >= 2 && v.front() == '"') {
    if (v.back() != '"') fail_at(origin, line, "unterminated string: " + v);
    return v.substr(1, v.size() - 2);
  }
  return v;
}

bool valid_name(const std::string& s) {
  if (s.empty()) return false;
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

const ConfigFile::Entry* ConfigFile::Section::find(
    const std::string& key) const {
  for (const auto& e : entries) {
    if (e.key == key) return &e;
  }
  return nullptr;
}

ConfigFile ConfigFile::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open config file: " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return parse(buf.str(), path);
}

ConfigFile ConfigFile::parse(const std::string& text,
                             const std::string& origin) {
  ConfigFile cfg;
  cfg.origin_ = origin;
  Section* current = nullptr;

  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::string line = trim(strip_inline_comment(raw));
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') fail_at(origin, lineno, "expected ']': " + raw);
      const std::string name = trim(line.substr(1, line.size() - 2));
      if (!valid_name(name)) {
        fail_at(origin, lineno, "bad section name: [" + name + "]");
      }
      if (cfg.find(name) != nullptr) {
        fail_at(origin, lineno, "duplicate section [" + name + "]");
      }
      cfg.sections_.push_back(Section{name, {}, lineno});
      current = &cfg.sections_.back();
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      fail_at(origin, lineno, "expected 'key = value': " + trim(raw));
    }
    if (current == nullptr) {
      fail_at(origin, lineno, "key outside any [section]: " + trim(raw));
    }
    const std::string key = trim(line.substr(0, eq));
    if (!valid_name(key)) fail_at(origin, lineno, "bad key name: " + key);
    if (current->find(key) != nullptr) {
      fail_at(origin, lineno,
              "duplicate key '" + key + "' in [" + current->name + "]");
    }
    const std::string value =
        unquote(trim(line.substr(eq + 1)), origin, lineno);
    current->entries.push_back(Entry{key, value, lineno});
  }
  return cfg;
}

const ConfigFile::Section* ConfigFile::find(const std::string& name) const {
  for (const auto& s : sections_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> split_config_list(const std::string& value) {
  std::string body = trim(value);
  if (body.size() >= 2 && body.front() == '[' && body.back() == ']') {
    body = body.substr(1, body.size() - 2);
  }
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= body.size()) {
    const std::size_t comma = body.find(',', start);
    const std::string piece =
        trim(comma == std::string::npos ? body.substr(start)
                                        : body.substr(start, comma - start));
    if (!piece.empty()) {
      std::string p = piece;
      if (p.size() >= 2 && p.front() == '"' && p.back() == '"') {
        p = p.substr(1, p.size() - 2);
      }
      out.push_back(p);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace powertcp::harness
