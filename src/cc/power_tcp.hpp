#pragma once

#include <vector>

#include "cc/cc_algorithm.hpp"
#include "cc/params.hpp"

/// \file power_tcp.hpp
/// PowerTCP (paper §3.3, Algorithm 1): window control driven by network
/// *power* — the product of current λ = q̇ + µ and voltage ν = q + b·τ —
/// measured per hop from INT and normalized by the base power e = b²·τ.
///
///   w ← γ · ( w(t−θ) / Γ_norm + β ) + (1−γ) · w
///
/// Reacting to the product of the absolute queue state and its rate of
/// change gives both the unique low-queue equilibrium of voltage-based
/// CC and the reaction speed of current-based CC (Theorems 1–3).

namespace powertcp::cc {

struct PowerTcpConfig {
  /// EWMA weight γ for window updates; the paper recommends 0.9.
  double gamma = 0.9;
  /// Additive increase β in bytes; < 0 derives HostBw·τ/N from FlowParams.
  double beta_bytes = -1.0;
  /// Update the window once per RTT instead of per ack (used for the
  /// RDCN case study's fair comparison with reTCP, §5).
  bool per_rtt_update = false;
  /// Window clamp as a multiple of HostBw·τ. The NIC cannot put more
  /// than one line-rate BDP in flight usefully; 1.0 matches cwnd_init.
  double max_cwnd_bdp = 1.0;
};

/// Declared tunables for the "powertcp" registry entry and the
/// `key=value` parser building a config from overrides; unknown keys
/// or unparseable values throw std::invalid_argument naming the scheme.
const std::vector<ParamSpec>& power_tcp_param_specs();
PowerTcpConfig power_tcp_config_from_params(const ParamMap& overrides);

class PowerTcp final : public CcAlgorithm {
 public:
  PowerTcp(const FlowParams& params, const PowerTcpConfig& cfg = {});

  CcDecision initial() const override { return line_rate_start(params_); }
  CcDecision on_ack(const AckContext& ctx) override;
  void on_timeout() override;
  std::string_view name() const override { return "PowerTCP"; }

  /// Normalized, smoothed power from the latest feedback (diagnostics).
  double smoothed_power() const { return smoothed_power_; }
  double cwnd() const { return cwnd_; }

 private:
  /// Algorithm 1, NORMPOWER: per-hop Γ′/e, maximum over hops, smoothed
  /// over the base RTT with the observation interval Δt as weight.
  double norm_power(const net::IntHeader& hdr);
  void update_window(double norm_power);
  CcDecision decision() const;

  FlowParams params_;
  PowerTcpConfig cfg_;
  double beta_;       ///< additive increase (bytes)
  double tau_sec_;    ///< base RTT in seconds
  double max_cwnd_;   ///< clamp (bytes)

  double cwnd_;
  double cwnd_old_;   ///< window remembered once per RTT (GETCWND)
  double smoothed_power_ = 1.0;
  net::IntHeader prev_int_;
  bool have_prev_ = false;
  std::int64_t last_update_seq_ = 0;  ///< per-RTT boundary for UPDATEOLD
  std::int64_t last_window_seq_ = 0;  ///< per-RTT boundary for updates
};

}  // namespace powertcp::cc
