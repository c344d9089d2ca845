#include "harness/keys.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iterator>
#include <tuple>

namespace powertcp::harness {

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

/// A scalar or list read, each value checked against `b`.
std::vector<double> read_reals(SectionView& v, const char* key,
                               const Bound& b, bool list) {
  std::vector<double> xs =
      list ? v.get_double_list(key) : std::vector{v.get_double(key, 0)};
  if (xs.empty()) v.reject(key, "must list at least one value");
  for (const double x : xs) {
    if (!b.admits(x)) v.reject(key, (list ? "entries " : "") + requirement(b));
  }
  return xs;
}

std::int64_t to_bytes(SectionView& v, const char* key, double x, Size unit,
                      bool zero_ok) {
  if (zero_ok && x == 0) return 0;
  const double bytes = x * (unit == Size::kKB ? 1e3 : 1e6);
  // Range-check before the cast: casting an unrepresentable double is
  // undefined behavior, not a detectable error.
  if (!std::isfinite(bytes) || bytes < 1 || bytes > kInt64Ceiling) {
    v.reject(key, "must be a positive in-range size");
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
void check_option(SectionView& v, const char* key, const std::string& x,
                  const std::vector<std::string>& options) {
  if (!options.empty() &&
      std::find(options.begin(), options.end(), x) == options.end()) {
    v.reject(key, "'" + x + "' is not one of " + joined(options, as_is));
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

SectionView* KeyTable::declare(const char* section, const char* key,
                               const void* field, KeyInfo info,
                               bool required) {
  fields_[field] = {section, key};
  if (file_ == nullptr) {
    info.section = section;
    info.key = key;
    if (required) info.default_value = "required";
    keys_.push_back(std::move(info));
    return nullptr;
  }
  auto it = std::find_if(views_.begin(), views_.end(),
                         [&](const auto& v) { return v.first == section; });
  if (it == views_.end()) {
    views_.emplace_back(std::piecewise_construct,
                        std::forward_as_tuple(section),
                        std::forward_as_tuple(*file_, file_->find(section)));
    it = std::prev(views_.end());
  }
  if (it->second.has(key)) return &it->second;
  if (required) reject(field, "is required");
  return nullptr;
}

void KeyTable::count(const char* section, const char* key, int* field,
                     Bound bound) {
  if (SectionView* v = declare(section, key, field,
                               numeric("count", bound, number(*field)))) {
    *field = v->get_int32(key, 0);
    if (!bound.admits(*field)) v->reject(key, requirement(bound));
  }
}

void KeyTable::count(const char* section, const char* key,
                     std::int64_t* field, Bound bound) {
  const double dflt = static_cast<double>(*field);
  if (SectionView* v = declare(section, key, field,
                               numeric("count", bound, number(dflt)))) {
    *field = v->get_int(key, 0);
    if (!bound.admits(static_cast<double>(*field))) {
      v->reject(key, requirement(bound));
    }
  }
}

void KeyTable::count(const char* section, const char* key,
                     std::vector<int>* field, Bound bound) {
  const auto show = [](int x) { return number(x); };
  SectionView* v = declare(
      section, key, field,
      numeric("count list", bound, joined(*field, show)), field->empty());
  if (v == nullptr) return;
  field->clear();
  for (const double x : read_reals(*v, key, bound, true)) {
    // Integers only: truncating 2.5 would run a point the config does
    // not state, and casting past int's range is undefined behavior.
    if (std::floor(x) != x || x > std::numeric_limits<int>::max()) {
      v->reject(key, "entries must be integers");
    }
    field->push_back(static_cast<int>(x));
  }
}

void KeyTable::real(const char* section, const char* key, double* field,
                    Bound bound, const char* unit) {
  if (SectionView* v = declare(section, key, field,
                               numeric(unit, bound, number(*field)))) {
    *field = read_reals(*v, key, bound, false)[0];
  }
}

void KeyTable::real(const char* section, const char* key,
                    std::vector<double>* field, Bound bound,
                    const char* unit) {
  if (SectionView* v = declare(section, key, field,
                               numeric(unit, bound, joined(*field, number)),
                               field->empty())) {
    *field = read_reals(*v, key, bound, true);
  }
}

void KeyTable::gbps(const char* section, const char* key,
                    sim::Bandwidth* field) {
  if (SectionView* v = declare(
          section, key, field,
          numeric("Gbps", kGbps, number(field->gbps_value())))) {
    *field = sim::Bandwidth::gbps(read_reals(*v, key, kGbps, false)[0]);
  }
}

void KeyTable::time(const char* section, const char* key, sim::TimePs* field,
                    const char* unit, double unit_s, bool positive) {
  const double ps = unit_s * static_cast<double>(sim::kPsPerSec);
  SectionView* v = declare(
      section, key, field,
      numeric(unit, positive ? Bound::above(0) : Bound::at_least(0),
              number(static_cast<double>(*field) / ps)));
  if (v == nullptr) return;
  // NaN/inf, negative and past-the-clock values: llround of them is
  // not a detectable error path.
  const double s = v->get_double(key, 0) * unit_s;
  if (!std::isfinite(s) || s < 0 ||
      s * static_cast<double>(sim::kPsPerSec) > kInt64Ceiling) {
    v->reject(key, "must be a finite duration >= 0 within the clock's range");
  }
  *field = sim::from_seconds(s);
  // Checked after rounding: a tiny value rounds to 0 ps.
  if (positive && *field < 1) v->reject(key, "must be at least 1 ps");
}

void KeyTable::size(const char* section, const char* key, std::int64_t* field,
                    Size unit, bool zero_ok) {
  if (SectionView* v = declare(section, key, field,
                               size_info(unit, false, {*field}, zero_ok))) {
    *field = to_bytes(*v, key, v->get_double(key, 0), unit, zero_ok);
  }
}

void KeyTable::size(const char* section, const char* key,
                    std::vector<std::int64_t>* field, Size unit,
                    bool zero_ok) {
  SectionView* v = declare(section, key, field,
                           size_info(unit, true, *field, zero_ok),
                           field->empty());
  if (v == nullptr) return;
  field->clear();
  for (const double x : v->get_double_list(key)) {
    field->push_back(to_bytes(*v, key, x, unit, zero_ok));
  }
  if (field->empty()) v->reject(key, "must list at least one value");
}

void KeyTable::flag(const char* section, const char* key, bool* field) {
  if (SectionView* v = declare(section, key, field,
                               {"", "", "flag", *field ? "true" : "false",
                                "true | false", ""})) {
    *field = v->get_bool(key, false);
  }
}

void KeyTable::choice(const char* section, const char* key,
                      std::string* field,
                      const std::vector<std::string>& options) {
  if (SectionView* v = declare(section, key, field,
                               choice_info(options, false, {*field}))) {
    *field = v->get_string(key, "");
    check_option(*v, key, *field, options);
  }
}

void KeyTable::choice(const char* section, const char* key,
                      std::vector<std::string>* field,
                      const std::vector<std::string>& options) {
  SectionView* v = declare(section, key, field,
                           choice_info(options, true, *field),
                           field->empty());
  if (v == nullptr) return;
  *field = v->get_list(key);
  if (field->empty()) v->reject(key, "must list at least one value");
  for (const auto& x : *field) check_option(*v, key, x, options);
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
  if (given(field)) SectionView(*file_, sec).reject(key, why);
  const std::string at =
      sec == nullptr ? "" : ":" + std::to_string(sec->line);
  throw ConfigError(file_->origin() + at + ": [" + section + "] " + key +
                    " " + why);
}

void KeyTable::finish() {
  for (auto& [name, v] : views_) v.finish();
}

std::vector<std::string> KeyTable::sections() const {
  std::vector<std::string> out;
  for (const auto& [name, v] : views_) out.push_back(name);
  return out;
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
