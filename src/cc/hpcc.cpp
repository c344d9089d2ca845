#include "cc/hpcc.hpp"

#include <algorithm>

namespace powertcp::cc {

const std::vector<ParamSpec>& hpcc_param_specs() {
  static const std::vector<ParamSpec> kSpecs = {
      {"eta", "0.95", "target utilization"},
      {"max_stage", "5", "max consecutive additive-increase rounds"},
      {"wai_bytes", "-1",
       "additive increase; <0 derives HostBw*tau*(1-eta)/N"},
      {"max_cwnd_bdp", "1.0", "window clamp as a multiple of HostBw*tau"},
      {"per_rtt_update", "false", "update once per RTT instead of per ack"},
  };
  return kSpecs;
}

HpccConfig hpcc_config_from_params(const ParamMap& overrides) {
  const ParamReader r("hpcc", overrides, hpcc_param_specs());
  HpccConfig cfg;
  cfg.eta = r.get_double("eta", cfg.eta);
  cfg.max_stage = r.get_int<int>("max_stage", cfg.max_stage);
  cfg.wai_bytes = r.get_double("wai_bytes", cfg.wai_bytes);
  cfg.max_cwnd_bdp = r.get_double("max_cwnd_bdp", cfg.max_cwnd_bdp);
  cfg.per_rtt_update = r.get_bool("per_rtt_update", cfg.per_rtt_update);
  return cfg;
}

Hpcc::Hpcc(const FlowParams& params, const HpccConfig& cfg)
    : params_(params),
      cfg_(cfg),
      tau_sec_(sim::to_seconds(params.base_rtt)) {
  const double bdp = params_.bdp_bytes();
  wai_ = cfg_.wai_bytes >= 0.0
             ? cfg_.wai_bytes
             : bdp * (1.0 - cfg_.eta) /
                   static_cast<double>(params_.expected_flows);
  max_cwnd_ = cfg_.max_cwnd_bdp * bdp;
  cwnd_ = std::max<double>(params_.mss, bdp);
  wc_ = cwnd_;
}

double Hpcc::measure_inflight(const net::IntHeader& hdr) {
  double u_max = 0.0;
  sim::TimePs tau_obs = 0;
  for (int i = 0; i < hdr.size() && i < prev_int_.size(); ++i) {
    const net::IntHopRecord& cur = hdr.hop(i);
    const net::IntHopRecord& prev = prev_int_.hop(i);
    const sim::TimePs dt = cur.ts - prev.ts;
    if (dt <= 0) continue;
    const double dt_sec = sim::to_seconds(dt);
    const double tx_rate =
        static_cast<double>(cur.tx_bytes - prev.tx_bytes) / dt_sec;
    const double b_bytes = cur.bandwidth_bps / 8.0;
    // HPCC uses the smaller of the two queue samples to avoid counting
    // a queue that drained within the observation window.
    const double qlen = static_cast<double>(
        std::min(cur.qlen_bytes, prev.qlen_bytes));
    const double u = qlen / (b_bytes * tau_sec_) + tx_rate / b_bytes;
    if (u > u_max) {
      u_max = u;
      tau_obs = dt;
    }
  }
  if (tau_obs <= 0) return u_;
  const sim::TimePs dt = std::min(tau_obs, params_.base_rtt);
  const double w =
      static_cast<double>(dt) / static_cast<double>(params_.base_rtt);
  u_ = u_ * (1.0 - w) + u_max * w;
  return u_;
}

void Hpcc::compute_wind(double u, bool update_wc) {
  if (u >= cfg_.eta || inc_stage_ >= cfg_.max_stage) {
    cwnd_ = wc_ / (u / cfg_.eta) + wai_;
    if (update_wc) {
      inc_stage_ = 0;
      wc_ = std::clamp(cwnd_, wai_, max_cwnd_);
    }
  } else {
    cwnd_ = wc_ + wai_;
    if (update_wc) {
      ++inc_stage_;
      wc_ = std::clamp(cwnd_, wai_, max_cwnd_);
    }
  }
  cwnd_ = std::clamp(cwnd_, wai_, max_cwnd_);
}

CcDecision Hpcc::decision() const {
  return CcDecision{cwnd_, cwnd_ / tau_sec_ * 8.0};
}

CcDecision Hpcc::on_ack(const AckContext& ctx) {
  if (ctx.int_hdr == nullptr || ctx.int_hdr->empty()) return decision();
  if (!have_prev_ || prev_int_.size() != ctx.int_hdr->size()) {
    prev_int_ = *ctx.int_hdr;
    have_prev_ = true;
    return decision();
  }
  const double u = measure_inflight(*ctx.int_hdr);
  const bool rtt_boundary = ctx.ack_seq > last_update_seq_;
  if (rtt_boundary) {
    compute_wind(u, /*update_wc=*/true);
    last_update_seq_ = ctx.snd_nxt;
  } else if (!cfg_.per_rtt_update) {
    compute_wind(u, /*update_wc=*/false);
  }
  prev_int_ = *ctx.int_hdr;
  return decision();
}

void Hpcc::on_timeout() {
  cwnd_ = std::max<double>(params_.mss, cwnd_ / 2.0);
  wc_ = cwnd_;
}

}  // namespace powertcp::cc
