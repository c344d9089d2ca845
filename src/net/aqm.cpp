#include "net/aqm.hpp"

#include <stdexcept>

namespace powertcp::net {

AqmVerdict StepRedAqm::on_enqueue(std::int64_t queue_bytes, bool ecn_capable,
                                  sim::TimePs /*now*/) {
  AqmVerdict v;
  if (!ecn_.enabled || !ecn_capable) return v;
  if (queue_bytes <= ecn_.kmin_bytes) return v;
  if (queue_bytes >= ecn_.kmax_bytes) {
    v.mark = true;
    return v;
  }
  const double span = static_cast<double>(ecn_.kmax_bytes - ecn_.kmin_bytes);
  const double p =
      ecn_.pmax * static_cast<double>(queue_bytes - ecn_.kmin_bytes) / span;
  if (rng_.uniform() < p) v.mark = true;
  return v;
}

PiDelayController::PiDelayController(const AqmSpec& spec,
                                     sim::Bandwidth line_rate)
    : target_s_(spec.target_us * 1e-6),
      alpha_(spec.alpha),
      beta_(spec.beta),
      tupdate_(sim::from_seconds(spec.tupdate_us * 1e-6)),
      bytes_per_sec_(line_rate.bps() / 8.0) {
  if (!(target_s_ > 0) || tupdate_ <= 0) {
    throw std::invalid_argument(
        "PiDelayController: target_us and tupdate_us must be > 0");
  }
  if (!(bytes_per_sec_ > 0)) {
    throw std::invalid_argument("PiDelayController: line rate must be > 0");
  }
}

double PiDelayController::update(std::int64_t queue_bytes, sim::TimePs now) {
  std::int64_t steps = 0;
  if (now > last_update_) {
    steps = (now - last_update_) / tupdate_;
  }
  if (steps > kMaxCatchUpSteps) {
    // Forfeit intervals past the bound but keep the phase: the clock
    // below still advances by whole tupdates from the original origin.
    last_update_ += (steps - kMaxCatchUpSteps) * tupdate_;
    steps = kMaxCatchUpSteps;
  }
  const double qdelay_s = static_cast<double>(queue_bytes) / bytes_per_sec_;
  for (std::int64_t i = 0; i < steps; ++i) {
    last_update_ += tupdate_;
    p_ += alpha_ * (qdelay_s - target_s_) / target_s_ +
          beta_ * (qdelay_s - qdelay_old_s_) / target_s_;
    if (p_ < 0.0) p_ = 0.0;
    if (p_ > 1.0) p_ = 1.0;
    qdelay_old_s_ = qdelay_s;
  }
  return p_;
}

PieAqm::PieAqm(const AqmSpec& spec, sim::Bandwidth line_rate,
               std::uint64_t seed)
    : pi_(spec, line_rate), ecn_threshold_(spec.ecn_threshold), rng_(seed) {}

AqmVerdict PieAqm::on_enqueue(std::int64_t queue_bytes, bool ecn_capable,
                              sim::TimePs now) {
  AqmVerdict v;
  const double p = pi_.update(queue_bytes, now);
  if (p <= 0.0) return v;
  if (rng_.uniform() < p) {
    if (ecn_capable && p <= ecn_threshold_) {
      v.mark = true;
    } else {
      v.drop = true;
    }
  }
  return v;
}

AqmRegistry::AqmRegistry() {
  entries_.push_back(
      {"red",
       "step/RED ECN marking between kmin/kmax (DCQCN profile; kmin == "
       "kmax is DCTCP's step) — the default, never drops",
       [](const AqmSpec&, const EcnConfig& ecn, sim::Bandwidth,
          std::uint64_t seed) -> std::unique_ptr<Aqm> {
         return std::make_unique<StepRedAqm>(ecn, seed);
       }});
  entries_.push_back(
      {"pie",
       "RFC 8033-style PI controller on queue delay; marks ECT at or "
       "below ecn_threshold, drops otherwise",
       [](const AqmSpec& spec, const EcnConfig&, sim::Bandwidth line_rate,
          std::uint64_t seed) -> std::unique_ptr<Aqm> {
         return std::make_unique<PieAqm>(spec, line_rate, seed);
       }});
}

const AqmRegistry& AqmRegistry::instance() {
  static const AqmRegistry registry;
  return registry;
}

const AqmRegistry::Entry* AqmRegistry::find(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const AqmRegistry::Entry& AqmRegistry::at(const std::string& name) const {
  const Entry* e = find(name);
  if (e == nullptr) {
    throw std::invalid_argument("unknown AQM '" + name +
                                "'; known: " + joined_names());
  }
  return *e;
}

std::vector<std::string> AqmRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.name);
  return out;
}

std::string AqmRegistry::joined_names() const {
  std::string out;
  for (const auto& e : entries_) {
    if (!out.empty()) out += ", ";
    out += e.name;
  }
  return out;
}

}  // namespace powertcp::net
