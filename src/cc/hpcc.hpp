#pragma once

#include <vector>

#include "cc/cc_algorithm.hpp"
#include "cc/params.hpp"

/// \file hpcc.hpp
/// HPCC (Li et al., SIGCOMM 2019) — the paper's strongest baseline and
/// the scheme PowerTCP shares its INT feedback with. Implements the
/// published Algorithm 1: per-hop normalized inflight
///
///   u_j = min(qlen, qlen_prev) / (B_j · T) + txRate_j / B_j
///
/// maximum over hops, EWMA-smoothed into U, then multiplicative
/// adjustment against the target utilization η with an additive term
/// W_AI, reference window W_c updated once per RTT and at most
/// `max_stage` consecutive additive-increase rounds.

namespace powertcp::cc {

struct HpccConfig {
  double eta = 0.95;
  int max_stage = 5;
  /// Additive increase in bytes; < 0 derives HostBw·τ·(1−η)/N.
  double wai_bytes = -1.0;
  double max_cwnd_bdp = 1.0;
  /// Update once per RTT only (RDCN case study mode, §5).
  bool per_rtt_update = false;
};

/// Registry param table and `key=value` parser (see power_tcp.hpp).
const std::vector<ParamSpec>& hpcc_param_specs();
HpccConfig hpcc_config_from_params(const ParamMap& overrides);

class Hpcc final : public CcAlgorithm {
 public:
  Hpcc(const FlowParams& params, const HpccConfig& cfg = {});

  CcDecision initial() const override { return line_rate_start(params_); }
  CcDecision on_ack(const AckContext& ctx) override;
  void on_timeout() override;
  std::string_view name() const override { return "HPCC"; }

  double utilization() const { return u_; }
  double cwnd() const { return cwnd_; }

 private:
  double measure_inflight(const net::IntHeader& hdr);
  void compute_wind(double u, bool update_wc);
  CcDecision decision() const;

  FlowParams params_;
  HpccConfig cfg_;
  double wai_;
  double tau_sec_;
  double max_cwnd_;

  double cwnd_;
  double wc_;          ///< reference window
  double u_ = 1.0;     ///< smoothed utilization estimate
  int inc_stage_ = 0;
  net::IntHeader prev_int_;
  bool have_prev_ = false;
  std::int64_t last_update_seq_ = 0;
};

}  // namespace powertcp::cc
