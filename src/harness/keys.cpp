#include "harness/keys.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "cc/params.hpp"

namespace powertcp::harness {

void KeyTable::Read::fail(const std::string& why) const {
  throw ConfigError(origin + ":" + std::to_string(entry.line) + ": [" +
                    section + "] " + entry.key + " = '" + entry.value +
                    "' " + why);
}

double KeyTable::Read::number() const {
  const auto x = cc::parse_double_value(entry.value);
  if (!x) fail("is not a valid number");
  return *x;
}

std::vector<double> KeyTable::Read::numbers() const {
  std::vector<double> xs;
  for (const auto& piece : split_config_list(entry.value)) {
    const auto x = cc::parse_double_value(piece);
    if (!x) fail("is not a valid number list");
    xs.push_back(*x);
  }
  return xs;
}

namespace {

/// Just under int64 max: the ceiling for any double that is cast to a
/// byte count or rounded onto the picosecond clock.
constexpr double kInt64Ceiling = 9.0e18;

/// Shortest text that parses back to `x`.
std::string number(double x) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), x).ptr);
}

template <typename T, typename Show>
std::string joined(const std::vector<T>& xs, Show show,
                   const char* sep = ", ") {
  std::string out;
  for (const T& x : xs) out += (out.empty() ? "" : sep) + show(x);
  return out;
}

std::string as_is(const std::string& s) { return s; }

std::string requirement(const Bound& b) {
  return (std::isinf(b.hi) ? "must be " : "must be in ") + b.text();
}

KeyInfo numeric(const char* unit, const Bound& b, std::string dflt) {
  return {"", "", unit, std::move(dflt), b.text(),
          number(b.lo_open ? b.lo : b.lo - 1)};
}

/// A scalar or list read of KeyTable::Read `r`, each value checked
/// against `b`.
std::vector<double> read_reals(const auto& r, const Bound& b, bool list) {
  std::vector<double> xs = list ? r.numbers() : std::vector{r.number()};
  if (xs.empty()) r.fail("must list at least one value");
  for (const double x : xs) {
    if (!b.admits(x)) r.fail((list ? "entries " : "") + requirement(b));
  }
  return xs;
}

std::int64_t to_bytes(const auto& r, double x, Size unit, bool zero_ok) {
  if (zero_ok && x == 0) return 0;
  const double bytes = x * (unit == Size::kKB ? 1e3 : 1e6);
  // Range-check before the cast: casting an unrepresentable double is
  // undefined behavior, not a detectable error.
  if (!std::isfinite(bytes) || bytes < 1 || bytes > kInt64Ceiling) {
    r.fail("must be a positive in-range size");
  }
  return static_cast<std::int64_t>(bytes);
}

KeyInfo size_info(Size unit, bool list, const std::vector<std::int64_t>& dflt,
                  bool zero_ok) {
  const double scale = unit == Size::kKB ? 1e3 : 1e6;
  const auto show = [scale](std::int64_t b) {
    return number(static_cast<double>(b) / scale);
  };
  return {"", "", std::string(unit == Size::kKB ? "KB" : "MB") +
                      (list ? " list" : ""),
          joined(dflt, show), zero_ok ? "0 or >= 1 byte" : ">= 1 byte", "-1"};
}

KeyInfo choice_info(const std::vector<std::string>& options, bool list,
                    const std::vector<std::string>& dflt) {
  return {"", "", std::string(options.empty() ? "text" : "choice") +
                      (list ? " list" : ""),
          joined(dflt, as_is), joined(options, as_is, " | "), ""};
}

/// An empty `options` list admits any text.
void check_option(const auto& r, const std::string& x,
                  const std::vector<std::string>& options) {
  if (!options.empty() &&
      std::find(options.begin(), options.end(), x) == options.end()) {
    r.fail("'" + x + "' is not one of " + joined(options, as_is));
  }
}

}  // namespace

bool Bound::admits(double x) const {
  return std::isfinite(x) && (lo_open ? x > lo : x >= lo) && x <= hi;
}

std::string Bound::text() const {
  if (std::isinf(hi)) return (lo_open ? "> " : ">= ") + number(lo);
  return (lo_open ? "(" : "[") + number(lo) + ", " + number(hi) + "]";
}

std::optional<KeyTable::Read> KeyTable::declare(const char* section,
                                                const char* key,
                                                const void* field,
                                                KeyInfo info, bool required) {
  fields_[field] = {section, key};
  if (std::find(sections_.begin(), sections_.end(), section) ==
      sections_.end()) {
    sections_.push_back(section);
  }
  if (file_ == nullptr) {
    info.section = section;
    info.key = key;
    if (required) info.default_value = "required";
    keys_.push_back(std::move(info));
    return std::nullopt;
  }
  const ConfigFile::Section* sec = file_->find(section);
  if (const ConfigFile::Entry* e = sec ? sec->find(key) : nullptr) {
    return Read{file_->origin(), section, *e};
  }
  if (required) reject(field, "is required");
  return std::nullopt;
}

std::optional<KeyTable::Read> KeyTable::scalar(const char* section,
                                               const char* key,
                                               const void* field,
                                               KeyInfo info) {
  std::optional<Read> r = declare(section, key, field, std::move(info));
  if (!r || (r->section != "topology" && r->section != "workload")) return r;
  const std::vector<std::string> entries = split_config_list(r->entry.value);
  if (entries.size() < 2) return r;
  if (!listed_.empty() && entries.size() != points()) {
    r->fail("lists " + std::to_string(entries.size()) + " values but " +
            name(listed_.front().first) + " lists " +
            std::to_string(points()) + "; listed keys pair entry by entry");
  }
  listed_.emplace_back(field, entries.size());
  r->entry.value = entries.at(point_);
  return r;
}

void KeyTable::count(const char* section, const char* key, int* field,
                     Bound bound) {
  if (const auto r = scalar(section, key, field,
                            numeric("count", bound, number(*field)))) {
    const auto x = cc::parse_int_value(r->entry.value);
    if (!x || *x < std::numeric_limits<int>::min() ||
        *x > std::numeric_limits<int>::max()) {
      r->fail("is not a valid 32-bit integer");
    }
    *field = static_cast<int>(*x);
    if (!bound.admits(*field)) r->fail(requirement(bound));
  }
}

void KeyTable::count(const char* section, const char* key,
                     std::int64_t* field, Bound bound) {
  const double dflt = static_cast<double>(*field);
  if (const auto r = scalar(section, key, field,
                            numeric("count", bound, number(dflt)))) {
    const auto x = cc::parse_int_value(r->entry.value);
    if (!x) r->fail("is not a valid integer");
    *field = *x;
    if (!bound.admits(static_cast<double>(*field))) {
      r->fail(requirement(bound));
    }
  }
}

void KeyTable::count(const char* section, const char* key,
                     std::vector<int>* field, Bound bound) {
  const auto show = [](int x) { return number(x); };
  const auto r = declare(section, key, field,
                         numeric("count list", bound, joined(*field, show)),
                         field->empty());
  if (!r) return;
  field->clear();
  for (const double x : read_reals(*r, bound, true)) {
    // Integers only: truncating 2.5 would run a point the config does
    // not state, and casting past int's range is undefined behavior.
    if (std::floor(x) != x || x > std::numeric_limits<int>::max()) {
      r->fail("entries must be integers");
    }
    field->push_back(static_cast<int>(x));
  }
}

void KeyTable::real(const char* section, const char* key, double* field,
                    Bound bound, const char* unit) {
  if (const auto r = scalar(section, key, field,
                            numeric(unit, bound, number(*field)))) {
    *field = read_reals(*r, bound, false)[0];
  }
}

void KeyTable::real(const char* section, const char* key,
                    std::vector<double>* field, Bound bound) {
  if (const auto r = declare(
          section, key, field,
          numeric("real list", bound, joined(*field, number)),
          field->empty())) {
    *field = read_reals(*r, bound, true);
  }
}

void KeyTable::gbps(const char* section, const char* key,
                    sim::Bandwidth* field) {
  if (const auto r = scalar(
          section, key, field,
          numeric("Gbps", kGbps, number(field->gbps_value())))) {
    *field = sim::Bandwidth::gbps(read_reals(*r, kGbps, false)[0]);
  }
}

void KeyTable::time(const char* section, const char* key, sim::TimePs* field,
                    const char* unit, double unit_s, bool positive) {
  const double ps = unit_s * static_cast<double>(sim::kPsPerSec);
  const auto r = scalar(
      section, key, field,
      numeric(unit, positive ? Bound::above(0) : Bound::at_least(0),
              number(static_cast<double>(*field) / ps)));
  if (!r) return;
  // NaN/inf, negative and past-the-clock values: llround of them is
  // not a detectable error path.
  const double s = r->number() * unit_s;
  if (!std::isfinite(s) || s < 0 ||
      s * static_cast<double>(sim::kPsPerSec) > kInt64Ceiling) {
    r->fail("must be a finite duration >= 0 within the clock's range");
  }
  *field = sim::from_seconds(s);
  // Checked after rounding: a tiny value rounds to 0 ps.
  if (positive && *field < 1) r->fail("must be at least 1 ps");
}

void KeyTable::size(const char* section, const char* key, std::int64_t* field,
                    Size unit, bool zero_ok) {
  if (const auto r = scalar(section, key, field,
                            size_info(unit, false, {*field}, zero_ok))) {
    *field = to_bytes(*r, r->number(), unit, zero_ok);
  }
}

void KeyTable::size(const char* section, const char* key,
                    std::vector<std::int64_t>* field, Size unit,
                    bool zero_ok) {
  const auto r = declare(section, key, field,
                         size_info(unit, true, *field, zero_ok),
                         field->empty());
  if (!r) return;
  field->clear();
  for (const double x : r->numbers()) {
    field->push_back(to_bytes(*r, x, unit, zero_ok));
  }
  if (field->empty()) r->fail("must list at least one value");
}

void KeyTable::flag(const char* section, const char* key, bool* field) {
  if (const auto r = scalar(section, key, field,
                            {"", "", "flag", *field ? "true" : "false",
                             "true | false", ""})) {
    const auto x = cc::parse_bool_value(r->entry.value);
    if (!x) r->fail("is not a valid boolean (true/false/on/off/1/0)");
    *field = *x;
  }
}

void KeyTable::choice(const char* section, const char* key,
                      std::string* field,
                      const std::vector<std::string>& options) {
  if (const auto r = scalar(section, key, field,
                            choice_info(options, false, {*field}))) {
    *field = r->entry.value;
    check_option(*r, *field, options);
  }
}

void KeyTable::choice(const char* section, const char* key,
                      std::vector<std::string>* field,
                      const std::vector<std::string>& options) {
  const auto r = declare(section, key, field,
                         choice_info(options, true, *field), field->empty());
  if (!r) return;
  *field = split_config_list(r->entry.value);
  if (field->empty()) r->fail("must list at least one value");
  for (const auto& x : *field) check_option(*r, x, options);
}

const std::string& KeyTable::name(const void* field) const {
  return fields_.at(field).second;
}

bool KeyTable::given(const void* field) const {
  const auto& [section, key] = fields_.at(field);
  const ConfigFile::Section* sec = file_->find(section);
  return sec != nullptr && sec->find(key) != nullptr;
}

void KeyTable::reject(const void* field, const std::string& why) const {
  const auto& [section, key] = fields_.at(field);
  const ConfigFile::Section* sec = file_->find(section);
  if (given(field)) Read{file_->origin(), section, *sec->find(key)}.fail(why);
  const std::string at =
      sec == nullptr ? "" : ":" + std::to_string(sec->line);
  throw ConfigError(file_->origin() + at + ": [" + section + "] " + key +
                    " " + why);
}

void KeyTable::finish() {
  for (const std::string& name : sections_) {
    const ConfigFile::Section* sec = file_->find(name);
    if (sec == nullptr) continue;
    for (const ConfigFile::Entry& e : sec->entries) {
      const auto declared = [&](const auto& f) {
        return f.second.first == name && f.second.second == e.key;
      };
      if (std::none_of(fields_.begin(), fields_.end(), declared)) {
        throw ConfigError(file_->origin() + ":" + std::to_string(e.line) +
                          ": unknown key '" + e.key + "' in [" + name + "]");
      }
    }
  }
}

std::string format_keys(const std::vector<KeyInfo>& keys) {
  const auto pad = [](std::string s, std::size_t width) {
    s.resize(std::max(s.size(), width), ' ');
    return s;
  };
  std::string out;
  std::string section;
  for (const KeyInfo& k : keys) {
    if (k.section != section) out += "  [" + (section = k.section) + "]\n";
    std::string line = "    " + pad(k.key, 24) + " " + pad(k.unit, 11) +
                       " " + pad(k.default_value, 20) + " " + k.bound;
    line.erase(line.find_last_not_of(' ') + 1);
    out += line + "\n";
  }
  return out;
}

}  // namespace powertcp::harness
