/// Scheme registry coverage: the name table, unknown-scheme and
/// unknown-key rejection, `key=value` round-trips into every CC's
/// config struct, and the topology-needs wiring (reTCP gets a
/// CircuitSchedule, HOMA declares its 8 priority bands).

#include <gtest/gtest.h>

#include <stdexcept>

#include "cc/classic.hpp"
#include "cc/dcqcn.hpp"
#include "cc/dctcp.hpp"
#include "cc/hpcc.hpp"
#include "cc/power_tcp.hpp"
#include "cc/registry.hpp"
#include "cc/retcp.hpp"
#include "cc/swift.hpp"
#include "cc/theta_power_tcp.hpp"
#include "cc/timely.hpp"
#include "host/homa.hpp"
#include "net/circuit.hpp"

namespace powertcp::cc {
namespace {

FlowParams params25g() {
  FlowParams p;
  p.host_bw = sim::Bandwidth::gbps(25);
  p.base_rtt = sim::microseconds(10);
  p.expected_flows = 10;
  return p;
}

TEST(Registry, ListsEverySchemeOnce) {
  const auto names = Registry::instance().names();
  const std::vector<std::string> expected = {
      "powertcp", "powertcp-rtt", "theta-powertcp", "hpcc", "hpcc-rtt",
      "dcqcn",    "timely",       "dctcp",          "swift", "newreno",
      "cubic",    "retcp",        "homa"};
  EXPECT_EQ(names, expected);
}

TEST(Registry, UnknownSchemeThrowsListingKnownNames) {
  EXPECT_EQ(Registry::instance().find("warp-speed"), nullptr);
  try {
    Registry::instance().at("warp-speed");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("powertcp"), std::string::npos);
  }
}

TEST(Registry, UnknownParamKeyThrowsForEverySchemeWithAFactory) {
  net::CircuitSchedule sched(4, sim::microseconds(225),
                             sim::microseconds(20));
  SchemeTopology topo;
  topo.circuit = &sched;
  topo.circuit_bw_bps = 100e9;
  topo.packet_bw_bps = 25e9;
  const ParamMap bogus = {{"definitely_not_a_param", "1"}};
  for (const Scheme& s : Registry::instance().schemes()) {
    if (s.message_transport) continue;
    EXPECT_THROW(s.make(bogus, topo), std::invalid_argument) << s.name;
    EXPECT_NO_THROW(s.make(ParamMap{}, topo)) << s.name;
  }
  EXPECT_THROW(host::homa_config_from_params(bogus, params25g()),
               std::invalid_argument);
}

TEST(Registry, UnparseableValuesThrow) {
  EXPECT_THROW(power_tcp_config_from_params({{"gamma", "fast"}}),
               std::invalid_argument);
  EXPECT_THROW(power_tcp_config_from_params({{"per_rtt_update", "maybe"}}),
               std::invalid_argument);
  EXPECT_THROW(hpcc_config_from_params({{"max_stage", "5.5"}}),
               std::invalid_argument);
}

TEST(Registry, ParamsRoundTripIntoEveryConfigStruct) {
  const auto pt = power_tcp_config_from_params({{"gamma", "0.7"},
                                                {"beta_bytes", "5000"},
                                                {"per_rtt_update", "true"},
                                                {"max_cwnd_bdp", "2.5"}});
  EXPECT_DOUBLE_EQ(pt.gamma, 0.7);
  EXPECT_DOUBLE_EQ(pt.beta_bytes, 5000);
  EXPECT_TRUE(pt.per_rtt_update);
  EXPECT_DOUBLE_EQ(pt.max_cwnd_bdp, 2.5);

  const auto th = theta_power_tcp_config_from_params(
      {{"gamma", "0.8"}, {"beta_bytes", "123"}, {"max_cwnd_bdp", "3"}});
  EXPECT_DOUBLE_EQ(th.gamma, 0.8);
  EXPECT_DOUBLE_EQ(th.beta_bytes, 123);
  EXPECT_DOUBLE_EQ(th.max_cwnd_bdp, 3);

  const auto hp = hpcc_config_from_params({{"eta", "0.9"},
                                           {"max_stage", "7"},
                                           {"wai_bytes", "400"},
                                           {"per_rtt_update", "on"}});
  EXPECT_DOUBLE_EQ(hp.eta, 0.9);
  EXPECT_EQ(hp.max_stage, 7);
  EXPECT_DOUBLE_EQ(hp.wai_bytes, 400);
  EXPECT_TRUE(hp.per_rtt_update);

  const auto dq = dcqcn_config_from_params({{"g", "0.5"},
                                            {"cnp_interval_us", "100"},
                                            {"increase_bytes", "777"},
                                            {"fast_recovery_stages", "3"}});
  EXPECT_DOUBLE_EQ(dq.g, 0.5);
  EXPECT_EQ(dq.cnp_interval, sim::microseconds(100));
  EXPECT_EQ(dq.increase_bytes, 777);
  EXPECT_EQ(dq.fast_recovery_stages, 3);

  const auto tm = timely_config_from_params(
      {{"alpha", "0.5"}, {"t_low_us", "20"}, {"hai_threshold", "2"}});
  EXPECT_DOUBLE_EQ(tm.alpha, 0.5);
  EXPECT_EQ(tm.t_low, sim::microseconds(20));
  EXPECT_EQ(tm.hai_threshold, 2);

  const auto dc = dctcp_config_from_params({{"g", "0.25"}});
  EXPECT_DOUBLE_EQ(dc.g, 0.25);

  const auto sw = swift_config_from_params(
      {{"target_rtt_factor", "2"}, {"min_cwnd_bytes", "250"}});
  EXPECT_DOUBLE_EQ(sw.target_rtt_factor, 2);
  EXPECT_DOUBLE_EQ(sw.min_cwnd_bytes, 250);

  const auto nr = new_reno_config_from_params(
      {{"dupack_threshold", "5"}, {"ssthresh_factor", "0.75"}});
  EXPECT_EQ(nr.dupack_threshold, 5);
  EXPECT_DOUBLE_EQ(nr.ssthresh_factor, 0.75);

  const auto cu =
      cubic_config_from_params({{"c", "0.6"}, {"beta", "0.5"}});
  EXPECT_DOUBLE_EQ(cu.c, 0.6);
  EXPECT_DOUBLE_EQ(cu.beta, 0.5);

  const auto rt = re_tcp_config_from_params(
      {{"prebuffering_us", "1800"}, {"ramp_reference_us", "900"}});
  EXPECT_EQ(rt.prebuffering, sim::microseconds(1800));
  EXPECT_EQ(rt.ramp_reference, sim::microseconds(900));

  const auto hc = host::homa_config_from_params(
      {{"rtt_bytes", "40000"}, {"overcommit", "4"}}, params25g());
  EXPECT_EQ(hc.rtt_bytes, 40000);
  EXPECT_EQ(hc.overcommit, 4);
}

TEST(Registry, HomaDerivesRttBytesFromFlowParams) {
  const auto p = params25g();
  const auto hc = host::homa_config_from_params({}, p);
  EXPECT_EQ(hc.rtt_bytes, static_cast<std::int64_t>(p.bdp_bytes()));
  EXPECT_EQ(hc.overcommit, 1);
}

TEST(Registry, HomaIsAMessageTransportNeedingEightBands) {
  const Scheme& homa = Registry::instance().at("homa");
  EXPECT_TRUE(homa.message_transport);
  EXPECT_EQ(homa.needs.priority_bands, 8);
  EXPECT_EQ(homa.make, nullptr);
  EXPECT_THROW(make_factory("homa"), std::invalid_argument);
}

TEST(Registry, ReTcpRequiresAndReceivesACircuitSchedule) {
  const Scheme& retcp = Registry::instance().at("retcp");
  EXPECT_TRUE(retcp.needs.circuit_schedule);
  EXPECT_THROW(retcp.make(ParamMap{}, SchemeTopology{}),
               std::invalid_argument);
  EXPECT_THROW(make_factory("retcp"), std::invalid_argument);

  net::CircuitSchedule sched(4, sim::microseconds(225),
                             sim::microseconds(20));
  SchemeTopology topo;
  topo.circuit = &sched;
  topo.circuit_bw_bps = 100e9;
  topo.packet_bw_bps = 25e9;
  const FlowCcFactory factory = retcp.make(ParamMap{}, topo);
  const auto algo = factory(params25g(), FlowEndpoints{0, 1});
  ASSERT_NE(algo, nullptr);
  EXPECT_EQ(algo->name(), "reTCP");
  // The derived scale is the circuit/packet bandwidth ratio the
  // SchemeTopology carried.
  const auto* rt = dynamic_cast<const ReTcp*>(algo.get());
  ASSERT_NE(rt, nullptr);
  const sim::TimePs day0 = sched.next_connection(0, 1, 0);
  EXPECT_NEAR(rt->scale_at(day0), 4.0, 1e-9);
}

TEST(Registry, RttVariantsForceThePerRttMode) {
  // Not directly observable through CcAlgorithm, so pin the param
  // plumbing instead: the merged map must parse cleanly and a user
  // override must not be shadowed by the preset.
  const Scheme& v = Registry::instance().at("powertcp-rtt");
  EXPECT_TRUE(v.rtt_variant);
  EXPECT_NO_THROW(v.make(ParamMap{}, SchemeTopology{}));
  EXPECT_NO_THROW(v.make({{"gamma", "0.8"}}, SchemeTopology{}));
}

TEST(Registry, ExperimentDefaultsInjectHpccMatchedBeta) {
  const Scheme& pt = Registry::instance().at("powertcp");
  ASSERT_TRUE(pt.experiment_defaults != nullptr);
  const FlowParams p = params25g();
  ParamMap m;
  pt.experiment_defaults(p, m);
  ASSERT_EQ(m.count("beta_bytes"), 1u);
  const double beta = std::stod(m.at("beta_bytes"));
  EXPECT_NEAR(beta, p.bdp_bytes() * 0.05 / p.expected_flows, 1e-9);

  // A pinned key must survive the defaults pass.
  ParamMap pinned = {{"beta_bytes", "42"}};
  pt.experiment_defaults(p, pinned);
  EXPECT_EQ(pinned.at("beta_bytes"), "42");

  // Baselines tune their own constants; no defaults hook.
  EXPECT_EQ(Registry::instance().at("hpcc").experiment_defaults, nullptr);
}

TEST(Registry, SenderCcNamesDerivesFromRegistry) {
  const std::vector<std::string> expected = {
      "powertcp", "theta-powertcp", "hpcc",    "dcqcn", "timely",
      "dctcp",    "swift",          "newreno", "cubic"};
  EXPECT_EQ(sender_cc_names(), expected);
}

}  // namespace
}  // namespace powertcp::cc
