#include "cc/dcqcn.hpp"

#include <algorithm>

namespace powertcp::cc {

const std::vector<ParamSpec>& dcqcn_param_specs() {
  static const std::vector<ParamSpec> kSpecs = {
      {"g", "0.00390625", "alpha EWMA gain"},
      {"cnp_interval_us", "50", "min spacing of congestion notifications"},
      {"alpha_timer_us", "55", "alpha decay period"},
      {"increase_timer_us", "55", "rate-increase timer period"},
      {"increase_bytes", "10000000", "byte counter per increase stage"},
      {"fast_recovery_stages", "5", "stages before additive increase"},
      {"rate_ai_bps", "-1", "additive increase; <0 derives HostBw/640"},
      {"rate_hai_bps", "-1", "hyper increase; <0 derives HostBw/64"},
      {"min_rate_fraction", "0.001", "rate floor as a fraction of HostBw"},
  };
  return kSpecs;
}

DcqcnConfig dcqcn_config_from_params(const ParamMap& overrides) {
  const ParamReader r("dcqcn", overrides, dcqcn_param_specs());
  DcqcnConfig cfg;
  cfg.g = r.get_double("g", cfg.g);
  cfg.cnp_interval = r.get_microseconds("cnp_interval_us", cfg.cnp_interval);
  cfg.alpha_timer = r.get_microseconds("alpha_timer_us", cfg.alpha_timer);
  cfg.increase_timer =
      r.get_microseconds("increase_timer_us", cfg.increase_timer);
  cfg.increase_bytes =
      r.get_int<std::int64_t>("increase_bytes", cfg.increase_bytes);
  cfg.fast_recovery_stages =
      r.get_int<int>("fast_recovery_stages", cfg.fast_recovery_stages);
  cfg.rate_ai_bps = r.get_double("rate_ai_bps", cfg.rate_ai_bps);
  cfg.rate_hai_bps = r.get_double("rate_hai_bps", cfg.rate_hai_bps);
  cfg.min_rate_fraction =
      r.get_double("min_rate_fraction", cfg.min_rate_fraction);
  return cfg;
}

Dcqcn::Dcqcn(const FlowParams& params, const DcqcnConfig& cfg)
    : params_(params), cfg_(cfg) {
  rate_ai_ =
      cfg_.rate_ai_bps >= 0 ? cfg_.rate_ai_bps : params_.host_bw.bps() / 640.0;
  rate_hai_ =
      cfg_.rate_hai_bps >= 0 ? cfg_.rate_hai_bps : params_.host_bw.bps() / 64.0;
  min_rate_ = params_.host_bw.bps() * cfg_.min_rate_fraction;
  rate_bps_ = params_.host_bw.bps();
  target_rate_bps_ = rate_bps_;
}

CcDecision Dcqcn::decision() const {
  const double cwnd = std::max<double>(
      params_.mss, rate_bps_ / 8.0 * sim::to_seconds(params_.base_rtt) * 4.0);
  return CcDecision{cwnd, rate_bps_};
}

void Dcqcn::on_cnp(sim::TimePs now) {
  // Rate cut per the DCQCN reaction point.
  target_rate_bps_ = rate_bps_;
  alpha_ = (1.0 - cfg_.g) * alpha_ + cfg_.g;
  rate_bps_ = std::max(min_rate_, rate_bps_ * (1.0 - alpha_ / 2.0));
  last_alpha_update_ = now;
  last_increase_ = now;
  timer_stage_ = 0;
  byte_stage_ = 0;
  bytes_since_increase_ = 0;
}

void Dcqcn::increase_event() {
  const int stage = std::max(timer_stage_, byte_stage_);
  if (stage < cfg_.fast_recovery_stages) {
    // Fast recovery: halve the distance to the target rate.
  } else if (stage == cfg_.fast_recovery_stages) {
    target_rate_bps_ += rate_ai_;  // additive increase
  } else {
    target_rate_bps_ += rate_hai_;  // hyper increase
  }
  target_rate_bps_ = std::min(target_rate_bps_, params_.host_bw.bps());
  rate_bps_ = (target_rate_bps_ + rate_bps_) / 2.0;
}

void Dcqcn::run_timers(sim::TimePs now) {
  // α decays toward 0 while no CNPs arrive.
  while (now - last_alpha_update_ >= cfg_.alpha_timer) {
    alpha_ *= (1.0 - cfg_.g);
    last_alpha_update_ += cfg_.alpha_timer;
  }
  // Timer-driven increase events.
  while (now - last_increase_ >= cfg_.increase_timer) {
    ++timer_stage_;
    last_increase_ += cfg_.increase_timer;
    increase_event();
  }
  // Byte-counter-driven increase events.
  while (bytes_since_increase_ >= cfg_.increase_bytes) {
    ++byte_stage_;
    bytes_since_increase_ -= cfg_.increase_bytes;
    increase_event();
  }
}

CcDecision Dcqcn::on_ack(const AckContext& ctx) {
  bytes_since_increase_ += ctx.acked_bytes;
  if (ctx.ecn_echo &&
      (last_cnp_ < 0 || ctx.now - last_cnp_ >= cfg_.cnp_interval)) {
    last_cnp_ = ctx.now;
    on_cnp(ctx.now);
  } else {
    run_timers(ctx.now);
  }
  rate_bps_ = std::clamp(rate_bps_, min_rate_, params_.host_bw.bps());
  return decision();
}

void Dcqcn::on_timeout() {
  rate_bps_ = std::max(min_rate_, rate_bps_ / 2.0);
  target_rate_bps_ = rate_bps_;
}

}  // namespace powertcp::cc
