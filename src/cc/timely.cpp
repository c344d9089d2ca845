#include "cc/timely.hpp"

#include <algorithm>

namespace powertcp::cc {

const std::vector<ParamSpec>& timely_param_specs() {
  static const std::vector<ParamSpec> kSpecs = {
      {"alpha", "0.875", "EWMA weight of the RTT-difference filter"},
      {"beta", "0.8", "multiplicative decrease factor"},
      {"delta_bps", "-1", "additive step; <0 derives HostBw/100"},
      {"t_low_us", "-1", "pure-AI threshold; <0 derives 1.5*tau"},
      {"t_high_us", "-1", "forced-decrease threshold; <0 derives 5*tau"},
      {"hai_threshold", "5", "negative-gradient streak enabling HAI"},
      {"min_rate_fraction", "0.001", "rate floor as a fraction of HostBw"},
  };
  return kSpecs;
}

TimelyConfig timely_config_from_params(const ParamMap& overrides) {
  const ParamReader r("timely", overrides, timely_param_specs());
  TimelyConfig cfg;
  cfg.alpha = r.get_double("alpha", cfg.alpha);
  cfg.beta = r.get_double("beta", cfg.beta);
  cfg.delta_bps = r.get_double("delta_bps", cfg.delta_bps);
  cfg.t_low = r.get_microseconds("t_low_us", cfg.t_low);
  cfg.t_high = r.get_microseconds("t_high_us", cfg.t_high);
  cfg.hai_threshold = r.get_int<int>("hai_threshold", cfg.hai_threshold);
  cfg.min_rate_fraction =
      r.get_double("min_rate_fraction", cfg.min_rate_fraction);
  return cfg;
}

Timely::Timely(const FlowParams& params, const TimelyConfig& cfg)
    : params_(params), cfg_(cfg) {
  t_low_ = cfg_.t_low >= 0 ? cfg_.t_low : params_.base_rtt * 3 / 2;
  t_high_ = cfg_.t_high >= 0 ? cfg_.t_high : params_.base_rtt * 5;
  delta_ = cfg_.delta_bps >= 0 ? cfg_.delta_bps : params_.host_bw.bps() / 100.0;
  min_rate_ = params_.host_bw.bps() * cfg_.min_rate_fraction;
  rate_bps_ = params_.host_bw.bps();
}

CcDecision Timely::decision() const {
  // Rate-governed: window is a generous cap of four rate·τ products so
  // pacing, not the window, shapes transmission.
  const double cwnd = std::max<double>(
      params_.mss, rate_bps_ / 8.0 * sim::to_seconds(params_.base_rtt) * 4.0);
  return CcDecision{cwnd, rate_bps_};
}

CcDecision Timely::on_ack(const AckContext& ctx) {
  if (ctx.rtt <= 0) return decision();
  if (!have_prev_) {
    prev_rtt_ = ctx.rtt;
    have_prev_ = true;
    return decision();
  }
  const double new_diff_sec = sim::to_seconds(ctx.rtt - prev_rtt_);
  prev_rtt_ = ctx.rtt;
  rtt_diff_ = (1.0 - cfg_.alpha) * rtt_diff_ + cfg_.alpha * new_diff_sec;
  const double normalized_gradient =
      rtt_diff_ / sim::to_seconds(params_.base_rtt);

  if (ctx.rtt < t_low_) {
    rate_bps_ += delta_;
    negative_gradient_streak_ = 0;
  } else if (ctx.rtt > t_high_) {
    // Proportional decrease toward the high threshold; gradient ignored
    // (the "oblivious to absolute queue" patch the paper discusses).
    rate_bps_ *= 1.0 - cfg_.beta * (1.0 - sim::to_seconds(t_high_) /
                                              sim::to_seconds(ctx.rtt));
    negative_gradient_streak_ = 0;
  } else if (normalized_gradient <= 0.0) {
    ++negative_gradient_streak_;
    const int n =
        negative_gradient_streak_ >= cfg_.hai_threshold ? 5 : 1;
    rate_bps_ += static_cast<double>(n) * delta_;
  } else {
    negative_gradient_streak_ = 0;
    rate_bps_ *= 1.0 - cfg_.beta * normalized_gradient;
  }
  rate_bps_ = std::clamp(rate_bps_, min_rate_, params_.host_bw.bps());
  return decision();
}

void Timely::on_timeout() {
  rate_bps_ = std::max(min_rate_, rate_bps_ / 2.0);
}

}  // namespace powertcp::cc
