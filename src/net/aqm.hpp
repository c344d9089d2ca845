#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"

/// \file aqm.hpp
/// Active queue management as a pluggable egress-port policy.
///
/// Every EgressPort may carry one Aqm; the port consults it once per
/// enqueue attempt (after shared-buffer admission, before the packet
/// joins the backlog) and the verdict either CE-marks the packet or
/// drops it. Two variants ship in the registry:
///
///   red  — the historical step/RED profile (DCQCN-compatible; with
///          kmin == kmax it degenerates to DCTCP's step marking). This
///          is the default and is byte-identical to the pre-AQM-layer
///          marking fused into EgressPort (pinned by golden tests).
///   pie  — RFC 8033-style PI controller on queue *delay*: a drop/mark
///          probability integrates the delay error every tupdate; ECT
///          packets are marked instead of dropped while the
///          probability is at or below `ecn_threshold`.
///
/// PIE's controller is updated *lazily at enqueue time* (whole elapsed
/// tupdate intervals are replayed against the current backlog, with a
/// bounded catch-up), so behaviour is a pure function of the packet
/// event sequence — no timer events, byte-identical across thread
/// counts and event-queue backends.

namespace powertcp::net {

/// RED-style ECN marking profile (DCQCN-compatible). With
/// kmin == kmax the profile degenerates to DCTCP's step marking.
struct EcnConfig {
  bool enabled = false;
  std::int64_t kmin_bytes = 0;
  std::int64_t kmax_bytes = 0;
  double pmax = 1.0;
};

/// Tunables for the probabilistic AQM variants, carried by
/// net::SwitchConfig and the harness `[aqm]` config section. The
/// step/RED thresholds live in EcnConfig, not here: "red" reuses the
/// per-scheme ECN profile machinery unchanged.
struct AqmSpec {
  /// AqmRegistry entry name: "red" (default) or "pie".
  std::string kind = "red";
  /// PIE's target queue delay and PI controller update period.
  double target_us = 20.0;
  double tupdate_us = 20.0;
  /// Dimensionless PI gains; the delay error is normalized by the
  /// target, so the same gains work at datacenter microsecond scales:
  ///   p += alpha·(qdelay − target)/target + beta·(qdelay − qdelay_old)/target
  double alpha = 0.125;
  double beta = 1.25;
  /// PIE only: ECT packets are marked instead of dropped while the
  /// drop probability is at or below this threshold (RFC 8033 §5.1).
  double ecn_threshold = 0.1;
};

/// What the AQM decided for one packet at enqueue time. `drop` wins
/// over `mark` (a dropped packet never reaches the queue).
struct AqmVerdict {
  bool mark = false;
  bool drop = false;
};

/// One port's queue-management policy. Implementations own whatever
/// state they need (thresholds, RNG, controller state); a port calls
/// on_enqueue exactly once per admission-passed packet.
class Aqm {
 public:
  virtual ~Aqm() = default;

  /// `queue_bytes` is the backlog *before* this packet joins it (the
  /// same quantity the historical marking read); `ecn_capable` is the
  /// packet's ECT codepoint; `now` the simulation clock.
  virtual AqmVerdict on_enqueue(std::int64_t queue_bytes, bool ecn_capable,
                                sim::TimePs now) = 0;

  /// Registry name of the variant ("red", "pie").
  virtual const char* kind() const = 0;
};

/// The historical step/RED profile, extracted verbatim from
/// EgressPort::maybe_mark_ecn: below kmin no marks, above kmax every
/// ECT packet is marked, in between a mark is drawn with probability
/// pmax·(q − kmin)/(kmax − kmin). Never drops. The RNG draw happens
/// only on the probabilistic branch — the exact draw order of the
/// pre-refactor code, so default experiments are byte-identical.
class StepRedAqm final : public Aqm {
 public:
  StepRedAqm(const EcnConfig& cfg, std::uint64_t seed)
      : ecn_(cfg), rng_(seed) {}

  AqmVerdict on_enqueue(std::int64_t queue_bytes, bool ecn_capable,
                        sim::TimePs now) override;
  const char* kind() const override { return "red"; }

  const EcnConfig& config() const { return ecn_; }

 private:
  EcnConfig ecn_;
  sim::Rng rng_;
};

/// PIE's PI controller core: a probability integrating the queue-delay
/// error against the target, stepped once per elapsed tupdate interval
/// (lazily, at enqueue). Queue delay is estimated as backlog / line
/// rate, the standard PIE departure-rate shortcut for a fixed-rate
/// port.
class PiDelayController {
 public:
  PiDelayController(const AqmSpec& spec, sim::Bandwidth line_rate);

  /// Replays every whole tupdate interval between the last update and
  /// `now` against the current backlog (bounded at kMaxCatchUpSteps;
  /// older intervals are forfeited, which only matters after idle gaps
  /// where the controller would have decayed to zero anyway). Returns
  /// the post-update probability in [0, 1].
  double update(std::int64_t queue_bytes, sim::TimePs now);

  double probability() const { return p_; }

  /// Catch-up bound per enqueue; at the default gains a saturated
  /// controller fully decays over an idle gap well inside the bound
  /// (1/alpha = 8 steps), so forfeiting older intervals is lossless.
  static constexpr int kMaxCatchUpSteps = 25;

 private:
  double target_s_;
  double alpha_;
  double beta_;
  sim::TimePs tupdate_;
  double bytes_per_sec_;
  double p_ = 0.0;
  double qdelay_old_s_ = 0.0;
  sim::TimePs last_update_ = 0;
};

/// RFC 8033-style PIE: on_enqueue draws against the PI probability;
/// ECT packets are marked instead of dropped while p < ecn_threshold.
class PieAqm final : public Aqm {
 public:
  PieAqm(const AqmSpec& spec, sim::Bandwidth line_rate, std::uint64_t seed);

  AqmVerdict on_enqueue(std::int64_t queue_bytes, bool ecn_capable,
                        sim::TimePs now) override;
  const char* kind() const override { return "pie"; }

 private:
  PiDelayController pi_;
  double ecn_threshold_;
  sim::Rng rng_;
};

/// The registry of AQM variants, mirroring cc::Registry: switches
/// build each port's policy through the named entry, and the harness
/// validates `[aqm] kind = ...` against the table.
class AqmRegistry {
 public:
  struct Entry {
    std::string name;     ///< `[aqm] kind = <name>`
    std::string summary;  ///< one line for docs/CLI listings
    /// Builds one port's policy. `ecn` carries the step/RED profile
    /// (already scaled to absolute bytes for the port); `line_rate`
    /// the port bandwidth the delay-based controllers divide by;
    /// `seed` the port's deterministic draw seed.
    std::function<std::unique_ptr<Aqm>(const AqmSpec&, const EcnConfig& ecn,
                                       sim::Bandwidth line_rate,
                                       std::uint64_t seed)>
        make;
  };

  /// The process-wide table, built once (thread-safe magic static).
  static const AqmRegistry& instance();

  /// nullptr when `name` is not registered.
  const Entry* find(const std::string& name) const;
  /// Throws std::invalid_argument listing the known names.
  const Entry& at(const std::string& name) const;

  const std::vector<Entry>& entries() const { return entries_; }
  std::vector<std::string> names() const;
  /// "red, pie" — for error messages and docs.
  std::string joined_names() const;

 private:
  AqmRegistry();
  std::vector<Entry> entries_;
};

}  // namespace powertcp::net
