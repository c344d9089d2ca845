#include "cc/registry.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "cc/dcqcn.hpp"
#include "cc/dctcp.hpp"
#include "cc/hpcc.hpp"
#include "cc/power_tcp.hpp"
#include "cc/retcp.hpp"
#include "cc/theta_power_tcp.hpp"
#include "cc/timely.hpp"
// The registry is the one place allowed to look up the stack at the
// receiver-driven transport: homa's tunables are declared in src/host
// (the layer that owns the transport) and surfaced here so harnesses
// can treat every scheme uniformly.
#include "host/homa.hpp"

namespace powertcp::cc {

namespace {

/// Round-trippable rendering for derived defaults injected as strings
/// (17 significant digits reproduce the exact double through strtod).
std::string render_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The beta the workhorse experiment matches to HPCC's W_AI =
/// BDP·(1−η)/N so the β-driven standing queue (Σβ, Appendix A) is
/// comparable across the INT-based schemes — the paper derives β
/// "reflecting the intuition for additive increase in prior work
/// [HPCC]".
void hpcc_matched_beta(const FlowParams& p, ParamMap& overrides) {
  overrides.emplace(
      "beta_bytes",
      render_double(p.bdp_bytes() * 0.05 /
                    static_cast<double>(p.expected_flows)));
}

template <typename Config, typename Algo>
FlowCcFactory plain_factory(Config cfg) {
  return [cfg](const FlowParams& p, const FlowEndpoints&) {
    return std::make_unique<Algo>(p, cfg);
  };
}

net::EcnConfig dcqcn_ecn() {
  net::EcnConfig ecn;
  ecn.enabled = true;
  ecn.kmin_bytes = 1'000;  // per Gbps: 100 KB at 100 G (HPCC's setup)
  ecn.kmax_bytes = 4'000;
  ecn.pmax = 0.2;
  return ecn;
}

net::EcnConfig dctcp_ecn() {
  net::EcnConfig ecn;
  ecn.enabled = true;
  ecn.kmin_bytes = 700;  // per Gbps: step marking ~ BDP/7
  ecn.kmax_bytes = 700;
  ecn.pmax = 1.0;
  return ecn;
}

}  // namespace

Registry::Registry() {
  const auto add = [this](Scheme s) { schemes_.push_back(std::move(s)); };

  {
    Scheme s;
    s.name = "powertcp";
    s.summary = "PowerTCP (paper Alg. 1): INT-driven power control";
    s.params = power_tcp_param_specs();
    s.make = [](const ParamMap& o, const SchemeTopology&) {
      return plain_factory<PowerTcpConfig, PowerTcp>(
          power_tcp_config_from_params(o));
    };
    s.check = [](const ParamMap& o) { (void)power_tcp_config_from_params(o); };
    s.experiment_defaults = hpcc_matched_beta;
    add(std::move(s));
  }
  {
    Scheme s;
    s.name = "theta-powertcp";
    s.summary = "theta-PowerTCP (paper Alg. 2): RTT-only power control";
    s.params = theta_power_tcp_param_specs();
    s.make = [](const ParamMap& o, const SchemeTopology&) {
      return plain_factory<ThetaPowerTcpConfig, ThetaPowerTcp>(
          theta_power_tcp_config_from_params(o));
    };
    s.check = [](const ParamMap& o) {
      (void)theta_power_tcp_config_from_params(o);
    };
    s.experiment_defaults = hpcc_matched_beta;
    add(std::move(s));
  }
  {
    Scheme s;
    s.name = "hpcc";
    s.summary = "HPCC (SIGCOMM 2019): INT-driven inflight control";
    s.params = hpcc_param_specs();
    s.make = [](const ParamMap& o, const SchemeTopology&) {
      return plain_factory<HpccConfig, Hpcc>(hpcc_config_from_params(o));
    };
    s.check = [](const ParamMap& o) { (void)hpcc_config_from_params(o); };
    add(std::move(s));
  }
  {
    Scheme s;
    s.name = "dcqcn";
    s.summary = "DCQCN (SIGCOMM 2015): ECN-driven RDMA rate control";
    s.params = dcqcn_param_specs();
    s.needs.ecn = dcqcn_ecn();
    s.make = [](const ParamMap& o, const SchemeTopology&) {
      return plain_factory<DcqcnConfig, Dcqcn>(dcqcn_config_from_params(o));
    };
    s.check = [](const ParamMap& o) { (void)dcqcn_config_from_params(o); };
    add(std::move(s));
  }
  {
    Scheme s;
    s.name = "timely";
    s.summary = "TIMELY (SIGCOMM 2015): RTT-gradient rate control";
    s.params = timely_param_specs();
    s.make = [](const ParamMap& o, const SchemeTopology&) {
      return plain_factory<TimelyConfig, Timely>(timely_config_from_params(o));
    };
    s.check = [](const ParamMap& o) { (void)timely_config_from_params(o); };
    add(std::move(s));
  }
  {
    Scheme s;
    s.name = "dctcp";
    s.summary = "DCTCP (SIGCOMM 2010): ECN-fraction window control";
    s.params = dctcp_param_specs();
    s.needs.ecn = dctcp_ecn();
    s.make = [](const ParamMap& o, const SchemeTopology&) {
      return plain_factory<DctcpConfig, Dctcp>(dctcp_config_from_params(o));
    };
    s.check = [](const ParamMap& o) { (void)dctcp_config_from_params(o); };
    add(std::move(s));
  }
  {
    Scheme s;
    s.name = "retcp";
    s.summary = "reTCP (NSDI 2020): circuit-aware prebuffering window";
    s.params = re_tcp_param_specs();
    s.needs.circuit_schedule = true;
    s.make = [](const ParamMap& o, const SchemeTopology& topo) {
      if (topo.circuit == nullptr) {
        throw std::invalid_argument(
            "scheme 'retcp' needs a CircuitSchedule: run it on a "
            "circuit/RDCN topology (the registry's SchemeTopology "
            "carries the schedule)");
      }
      ReTcpConfig cfg = re_tcp_config_from_params(o);
      cfg.circuit_bw_bps = topo.circuit_bw_bps;
      cfg.packet_bw_bps = topo.packet_bw_bps;
      const net::CircuitSchedule* schedule = topo.circuit;
      return FlowCcFactory(
          [cfg, schedule](const FlowParams& p, const FlowEndpoints& e) {
            return std::make_unique<ReTcp>(p, schedule, e.src_tor, e.dst_tor,
                                           cfg);
          });
    };
    s.check = [](const ParamMap& o) { (void)re_tcp_config_from_params(o); };
    add(std::move(s));
  }
  {
    Scheme s;
    s.name = "homa";
    s.summary =
        "HOMA-style receiver-driven message transport (SIGCOMM 2018)";
    s.params = host::homa_param_specs();
    s.needs.priority_bands = 8;
    s.message_transport = true;
    s.check = [](const ParamMap& o) {
      (void)host::homa_config_from_params(o, FlowParams{});
    };
    add(std::move(s));
  }
}

const Registry& Registry::instance() {
  static const Registry kRegistry;
  return kRegistry;
}

const Scheme* Registry::find(const std::string& name) const {
  for (const auto& s : schemes_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const Scheme& Registry::at(const std::string& name) const {
  const Scheme* s = find(name);
  if (s == nullptr) {
    std::string known;
    for (const auto& scheme : schemes_) {
      if (!known.empty()) known += ", ";
      known += scheme.name;
    }
    throw std::invalid_argument("unknown scheme '" + name +
                                "'; registered: " + known);
  }
  return *s;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(schemes_.size());
  for (const auto& s : schemes_) out.push_back(s.name);
  return out;
}

CcFactory make_factory(const std::string& name) {
  const Scheme& scheme = Registry::instance().at(name);
  if (scheme.message_transport) {
    throw std::invalid_argument(
        "make_factory: '" + name +
        "' is a receiver-driven message transport, not a sender CC "
        "algorithm — enable it via host::Host::enable_homa");
  }
  // Default parameters and an empty topology; schemes with topology
  // needs (reTCP) throw here with a pointer at the registry.
  FlowCcFactory factory = scheme.make(ParamMap{}, SchemeTopology{});
  return [factory](const FlowParams& p) { return factory(p, FlowEndpoints{}); };
}

const std::vector<std::string>& sender_cc_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const Scheme& s : Registry::instance().schemes()) {
      if (s.message_transport || s.needs.circuit_schedule) {
        continue;
      }
      names.push_back(s.name);
    }
    return names;
  }();
  return kNames;
}

}  // namespace powertcp::cc
