#include "cc/mix.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "sim/rng.hpp"

namespace powertcp::cc {
namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

std::vector<MixMember> parse_cc_mix(const std::string& spec) {
  std::vector<MixMember> mix;
  std::string member;
  const auto flush = [&mix](const std::string& raw) {
    const std::string item = trim(raw);
    if (item.empty()) {
      throw std::invalid_argument("cc_mix: empty member in '" + raw + "'");
    }
    MixMember m;
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) {
      m.label = item;
    } else {
      m.label = trim(item.substr(0, colon));
      const std::string wtext = trim(item.substr(colon + 1));
      if (m.label.empty() || wtext.empty()) {
        throw std::invalid_argument("cc_mix: malformed member '" + item +
                                    "' (want name or name:weight)");
      }
      std::size_t used = 0;
      try {
        m.weight = std::stod(wtext, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (used != wtext.size() || !std::isfinite(m.weight) || m.weight <= 0) {
        throw std::invalid_argument(
            "cc_mix: weight of '" + m.label +
            "' must be a finite positive number, got '" + wtext + "'");
      }
    }
    for (const MixMember& prev : mix) {
      if (prev.label == m.label) {
        throw std::invalid_argument("cc_mix: duplicate member '" + m.label +
                                    "'");
      }
    }
    mix.push_back(std::move(m));
  };
  for (char c : spec) {
    if (c == '+' || c == ',') {
      flush(member);
      member.clear();
    } else {
      member.push_back(c);
    }
  }
  flush(member);

  double total = 0;
  for (const MixMember& m : mix) total += m.weight;
  for (MixMember& m : mix) m.weight /= total;
  return mix;
}

std::string mix_display(const std::vector<MixMember>& mix) {
  std::string out;
  char buf[32];
  for (const MixMember& m : mix) {
    if (!out.empty()) out += '+';
    std::snprintf(buf, sizeof(buf), "%.2f", m.weight);
    out += m.label;
    out += ':';
    out += buf;
  }
  return out;
}

std::vector<int> mix_assignment(const std::vector<MixMember>& mix,
                                int n_hosts, std::uint64_t seed) {
  if (mix.empty()) {
    throw std::invalid_argument("mix_assignment: empty mix");
  }
  if (n_hosts < 0) {
    throw std::invalid_argument("mix_assignment: negative host count");
  }
  // Largest-remainder quotas: floors first, leftovers to the biggest
  // fractional parts (member order breaks ties, so the first-listed
  // scheme wins the odd host of a 50/50 split).
  const std::size_t k = mix.size();
  std::vector<int> quota(k, 0);
  std::vector<std::pair<double, std::size_t>> rema;
  rema.reserve(k);
  int assigned = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const double ideal = mix[i].weight * static_cast<double>(n_hosts);
    quota[i] = static_cast<int>(std::floor(ideal));
    assigned += quota[i];
    rema.emplace_back(ideal - std::floor(ideal), i);
  }
  std::stable_sort(rema.begin(), rema.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  int left = n_hosts - assigned;
  for (std::size_t r = 0; left > 0; ++r, --left) ++quota[rema[r % k].second];

  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(n_hosts));
  for (std::size_t i = 0; i < k; ++i) {
    out.insert(out.end(), static_cast<std::size_t>(quota[i]),
               static_cast<int>(i));
  }
  // Fisher–Yates with the experiment RNG so placement is reproducible
  // from the seed but uncorrelated with host numbering.
  sim::Rng rng(seed);
  for (std::size_t i = out.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(out[i - 1], out[j]);
  }
  return out;
}

}  // namespace powertcp::cc
