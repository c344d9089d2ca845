#include "cc/power_tcp.hpp"

#include <algorithm>

namespace powertcp::cc {

namespace {
/// Guards the division in the control law when feedback reports an
/// (almost) idle network.
constexpr double kMinNormPower = 1e-6;
}  // namespace

const std::vector<ParamSpec>& power_tcp_param_specs() {
  static const std::vector<ParamSpec> kSpecs = {
      {"gamma", "0.9", "EWMA weight of window updates"},
      {"beta_bytes", "-1", "additive increase; <0 derives HostBw*tau/N"},
      {"per_rtt_update", "false", "update once per RTT instead of per ack"},
      {"max_cwnd_bdp", "1.0", "window clamp as a multiple of HostBw*tau"},
  };
  return kSpecs;
}

PowerTcpConfig power_tcp_config_from_params(const ParamMap& overrides) {
  const ParamReader r("powertcp", overrides, power_tcp_param_specs());
  PowerTcpConfig cfg;
  cfg.gamma = r.get_double("gamma", cfg.gamma);
  cfg.beta_bytes = r.get_double("beta_bytes", cfg.beta_bytes);
  cfg.per_rtt_update = r.get_bool("per_rtt_update", cfg.per_rtt_update);
  cfg.max_cwnd_bdp = r.get_double("max_cwnd_bdp", cfg.max_cwnd_bdp);
  return cfg;
}

PowerTcp::PowerTcp(const FlowParams& params, const PowerTcpConfig& cfg)
    : params_(params),
      cfg_(cfg),
      tau_sec_(sim::to_seconds(params.base_rtt)) {
  const double bdp = params_.bdp_bytes();
  beta_ = cfg_.beta_bytes >= 0.0
              ? cfg_.beta_bytes
              : bdp / static_cast<double>(params_.expected_flows);
  max_cwnd_ = cfg_.max_cwnd_bdp * bdp;
  cwnd_ = std::max<double>(params_.mss, bdp);
  cwnd_old_ = cwnd_;
}

double PowerTcp::norm_power(const net::IntHeader& hdr) {
  double max_norm = 0.0;
  sim::TimePs dt_of_max = 0;
  for (int i = 0; i < hdr.size() && i < prev_int_.size(); ++i) {
    const net::IntHopRecord& cur = hdr.hop(i);
    const net::IntHopRecord& prev = prev_int_.hop(i);
    const sim::TimePs dt = cur.ts - prev.ts;
    if (dt <= 0) continue;  // same dequeue instant; no new information
    const double dt_sec = sim::to_seconds(dt);
    const double q_dot =
        static_cast<double>(cur.qlen_bytes - prev.qlen_bytes) / dt_sec;
    const double mu =
        static_cast<double>(cur.tx_bytes - prev.tx_bytes) / dt_sec;
    const double lambda = q_dot + mu;              // current (bytes/s)
    const double b_bytes = cur.bandwidth_bps / 8.0;
    const double bdp = b_bytes * tau_sec_;
    const double nu = static_cast<double>(cur.qlen_bytes) + bdp;  // voltage
    const double power = lambda * nu;              // Γ′ (bytes²/s)
    const double base_power = b_bytes * b_bytes * tau_sec_;       // e
    const double norm = power / base_power;
    if (norm > max_norm) {
      max_norm = norm;
      dt_of_max = dt;
    }
  }
  if (dt_of_max <= 0) return smoothed_power_;
  // Γ_smooth = (Γ_smooth·(τ−Δt) + Γ_norm·Δt) / τ, with Δt capped at τ.
  const sim::TimePs dt = std::min(dt_of_max, params_.base_rtt);
  const double w = static_cast<double>(dt) /
                   static_cast<double>(params_.base_rtt);
  smoothed_power_ = smoothed_power_ * (1.0 - w) + max_norm * w;
  return smoothed_power_;
}

void PowerTcp::update_window(double norm_power) {
  const double p = std::max(norm_power, kMinNormPower);
  cwnd_ = cfg_.gamma * (cwnd_old_ / p + beta_) + (1.0 - cfg_.gamma) * cwnd_;
  cwnd_ = std::clamp(cwnd_, 1.0, max_cwnd_);
}

CcDecision PowerTcp::decision() const {
  // Pacing spreads the window over one base RTT (Alg. 1 line 6).
  return CcDecision{cwnd_, cwnd_ / tau_sec_ * 8.0};
}

CcDecision PowerTcp::on_ack(const AckContext& ctx) {
  if (ctx.int_hdr == nullptr || ctx.int_hdr->empty()) return decision();
  if (!have_prev_ || prev_int_.size() != ctx.int_hdr->size()) {
    prev_int_ = *ctx.int_hdr;
    have_prev_ = true;
    return decision();
  }
  const double power = norm_power(*ctx.int_hdr);
  const bool may_update =
      !cfg_.per_rtt_update || ctx.ack_seq > last_window_seq_;
  if (may_update) {
    update_window(power);
    if (cfg_.per_rtt_update) last_window_seq_ = ctx.snd_nxt;
  }
  prev_int_ = *ctx.int_hdr;
  // UPDATEOLD: remember the current window once per RTT, keyed on acks
  // crossing the previous boundary.
  if (ctx.ack_seq > last_update_seq_) {
    cwnd_old_ = cwnd_;
    last_update_seq_ = ctx.snd_nxt;
  }
  return decision();
}

void PowerTcp::on_timeout() {
  cwnd_ = std::max<double>(params_.mss, cwnd_ / 2.0);
  cwnd_old_ = cwnd_;
}

}  // namespace powertcp::cc
