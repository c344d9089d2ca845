/// Unit tests for the remaining baseline control laws: DCQCN, TIMELY,
/// DCTCP, reTCP, plus the name-based factory.

#include <gtest/gtest.h>

#include "cc/dcqcn.hpp"
#include "cc/dctcp.hpp"
#include "cc/registry.hpp"
#include "cc/retcp.hpp"
#include "cc/timely.hpp"

namespace powertcp::cc {
namespace {

FlowParams params25g() {
  FlowParams p;
  p.host_bw = sim::Bandwidth::gbps(25);
  p.base_rtt = sim::microseconds(20);
  p.expected_flows = 10;
  return p;
}

AckContext ack_at(sim::TimePs now, sim::TimePs rtt, bool ecn = false,
                  std::int64_t acked = 1000, std::int64_t ack_seq = 0,
                  std::int64_t snd_nxt = 0) {
  AckContext c;
  c.now = now;
  c.rtt = rtt;
  c.acked_bytes = acked;
  c.ecn_echo = ecn;
  c.ack_seq = ack_seq;
  c.snd_nxt = snd_nxt;
  return c;
}

// ---------------------------------------------------------------- DCQCN

TEST(Dcqcn, FirstCnpHalvesRate) {
  Dcqcn algo(params25g());
  // alpha starts at 1; on CNP: alpha -> (1-g)+g = 1, cut = alpha/2.
  algo.on_ack(ack_at(sim::microseconds(10), sim::microseconds(20), true));
  EXPECT_NEAR(algo.rate_bps(), 12.5e9, 1e6);
}

TEST(Dcqcn, CnpsArePacedAtFiftyMicros) {
  Dcqcn algo(params25g());
  algo.on_ack(ack_at(sim::microseconds(10), sim::microseconds(20), true));
  const double after_first = algo.rate_bps();
  // A second marked ack 20us later is within the CNP interval: no cut.
  algo.on_ack(ack_at(sim::microseconds(30), sim::microseconds(20), true));
  EXPECT_GE(algo.rate_bps(), after_first * 0.99);
  // 50us after the first CNP a new cut lands.
  algo.on_ack(ack_at(sim::microseconds(61), sim::microseconds(20), true));
  EXPECT_LT(algo.rate_bps(), after_first * 0.7);
}

TEST(Dcqcn, AlphaDecaysWithoutCongestion) {
  Dcqcn algo(params25g());
  algo.on_ack(ack_at(sim::microseconds(10), sim::microseconds(20), true));
  const double alpha_after_cnp = algo.alpha();
  algo.on_ack(ack_at(sim::milliseconds(2), sim::microseconds(20), false));
  EXPECT_LT(algo.alpha(), alpha_after_cnp * 0.95);
}

TEST(Dcqcn, FastRecoveryClimbsBackTowardTarget) {
  Dcqcn algo(params25g());
  algo.on_ack(ack_at(sim::microseconds(10), sim::microseconds(20), true));
  const double cut_rate = algo.rate_bps();
  // Several increase-timer periods later the rate recovers toward the
  // pre-cut target (25G): each stage halves the distance.
  algo.on_ack(ack_at(sim::microseconds(10 + 3 * 55),
                     sim::microseconds(20), false));
  EXPECT_GT(algo.rate_bps(), cut_rate * 1.5);
  EXPECT_LE(algo.rate_bps(), 25e9);
}

TEST(Dcqcn, RateNeverExceedsLineRate) {
  Dcqcn algo(params25g());
  for (int i = 0; i < 100; ++i) {
    algo.on_ack(ack_at(sim::microseconds(100) * i, sim::microseconds(20)));
  }
  EXPECT_LE(algo.rate_bps(), 25e9);
}

TEST(Dcqcn, TimeoutHalvesRate) {
  Dcqcn algo(params25g());
  algo.on_timeout();
  EXPECT_NEAR(algo.rate_bps(), 12.5e9, 1e6);
}

// ---------------------------------------------------------------- TIMELY

TEST(Timely, BelowTlowAlwaysIncreases) {
  Timely algo(params25g());  // t_low = 1.5*tau = 30us
  algo.on_ack(ack_at(0, sim::microseconds(25)));
  const double r0 = algo.rate_bps();
  // RTT *rising* but still under t_low: additive increase regardless.
  algo.on_ack(ack_at(sim::microseconds(10), sim::microseconds(29)));
  EXPECT_GT(algo.rate_bps(), r0 - 1.0);
}

TEST(Timely, AboveThighDecreasesProportionally) {
  Timely algo(params25g());  // t_high = 5*tau = 100us
  algo.on_ack(ack_at(0, sim::microseconds(20)));
  const double before = algo.rate_bps();
  algo.on_ack(ack_at(sim::microseconds(10), sim::microseconds(200)));
  // rate *= 1 - beta*(1 - 100/200) = 1 - 0.8*0.5 = 0.6.
  EXPECT_NEAR(algo.rate_bps(), before * 0.6, before * 0.01);
}

TEST(Timely, PositiveGradientInBandDecreases) {
  Timely algo(params25g());
  algo.on_ack(ack_at(0, sim::microseconds(40)));
  const double before = algo.rate_bps();
  // 40 -> 60us within [t_low, t_high]: positive gradient -> decrease.
  algo.on_ack(ack_at(sim::microseconds(10), sim::microseconds(60)));
  EXPECT_LT(algo.rate_bps(), before);
}

TEST(Timely, NegativeGradientInBandIncreases) {
  TimelyConfig cfg;
  cfg.t_low = sim::microseconds(10);  // keep the band wide
  cfg.t_high = sim::microseconds(500);
  Timely algo(params25g(), cfg);
  // Pull the rate off the line-rate clamp with one rising-RTT update.
  algo.on_ack(ack_at(0, sim::microseconds(100)));
  algo.on_ack(ack_at(sim::microseconds(5), sim::microseconds(400)));
  ASSERT_LT(algo.rate_bps(), 25e9);
  // Let the filtered gradient turn negative (falling RTTs), then check
  // the rate climbs.
  algo.on_ack(ack_at(sim::microseconds(10), sim::microseconds(200)));
  algo.on_ack(ack_at(sim::microseconds(15), sim::microseconds(150)));
  const double r1 = algo.rate_bps();
  algo.on_ack(ack_at(sim::microseconds(20), sim::microseconds(120)));
  EXPECT_GT(algo.rate_bps(), r1);
}

TEST(Timely, HaiModeKicksInAfterStreak) {
  TimelyConfig cfg;
  cfg.t_low = sim::microseconds(10);
  cfg.t_high = sim::microseconds(500);
  cfg.delta_bps = 1e8;
  Timely algo(params25g(), cfg);
  // Rate starts at line rate; cut it down first with one huge RTT.
  algo.on_ack(ack_at(0, sim::microseconds(100)));
  algo.on_ack(ack_at(sim::microseconds(5), sim::microseconds(499)));
  double prev = algo.rate_bps();
  double last_step = 0;
  for (int i = 0; i < 8; ++i) {
    algo.on_ack(ack_at(sim::microseconds(10 + 10 * i),
                       sim::microseconds(480 - 20 * i)));
    last_step = algo.rate_bps() - prev;
    prev = algo.rate_bps();
  }
  // By the end of the streak, increases are 5x delta.
  EXPECT_NEAR(last_step, 5e8, 1e7);
}

// ---------------------------------------------------------------- DCTCP

TEST(Dctcp, NoMarksGrowsOneMssPerRtt) {
  Dctcp algo(params25g());
  algo.on_timeout();  // start below the clamp (31250)
  const double before = 31'250.0;
  algo.on_ack(ack_at(0, sim::microseconds(20), false, 1000, 1000, 5000));
  // Crossing the first window boundary (ack_seq > 0): +1 MSS.
  EXPECT_NEAR(algo.cwnd(), before + 1000, 1e-9);
}

TEST(Dctcp, FullMarkingConvergesAlphaToOneAndHalves) {
  Dctcp algo(params25g());
  const double prev = algo.cwnd();
  for (int i = 1; i <= 5; ++i) {
    // Each ack crosses the previous window boundary (snd_nxt only a bit
    // ahead), so every round applies a cut.
    algo.on_ack(ack_at(sim::microseconds(20) * i, sim::microseconds(20),
                       true, 1000, i * 1000, i * 1000 + 500));
  }
  // Every round marked: alpha stays near 1, cwnd roughly halves per
  // round: after 5 rounds cwnd << initial.
  EXPECT_LT(algo.cwnd(), prev / 8);
  EXPECT_GT(algo.alpha(), 0.9);
}

TEST(Dctcp, FractionalMarkingScalesCut) {
  DctcpConfig cfg;
  cfg.g = 1.0;  // alpha = F exactly, for a crisp check
  Dctcp algo(params25g(), cfg);
  // Two acks in one observation window, half the bytes marked. The
  // first stays below the (initial zero) boundary; the second crosses
  // it: alpha = 0.5, cut = 1 - 0.25.
  algo.on_ack(ack_at(0, sim::microseconds(20), true, 1000, 0, 3000));
  algo.on_ack(
      ack_at(sim::microseconds(5), sim::microseconds(20), false, 1000,
             500, 6000));
  EXPECT_NEAR(algo.alpha(), 0.5, 1e-9);
  EXPECT_NEAR(algo.cwnd(), 62'500.0 * 0.75, 1.0);
}

// ---------------------------------------------------------------- reTCP

TEST(ReTcp, ScalesInsidePrebufferAndDayOnly) {
  const net::CircuitSchedule sched(4, sim::microseconds(100),
                                   sim::microseconds(10));
  ReTcpConfig cfg;
  cfg.prebuffering = sim::microseconds(50);
  cfg.scale = 4.0;
  // src 0 -> dst 2 connects in slot 1: day [110us, 210us).
  ReTcp algo(params25g(), &sched, 0, 2, cfg);
  EXPECT_FALSE(algo.scaled_at(sim::microseconds(30)));
  EXPECT_TRUE(algo.scaled_at(sim::microseconds(65)));   // prebuffering
  EXPECT_TRUE(algo.scaled_at(sim::microseconds(150)));  // day
  EXPECT_FALSE(algo.scaled_at(sim::microseconds(215))); // next night
}

TEST(ReTcp, RampReachesFullScaleAtReferencePrebuffer) {
  const net::CircuitSchedule sched(4, sim::microseconds(100),
                                   sim::microseconds(10));
  ReTcpConfig cfg;
  cfg.prebuffering = sim::microseconds(50);
  cfg.ramp_reference = sim::microseconds(50);
  cfg.scale = 4.0;
  ReTcp algo(params25g(), &sched, 0, 2, cfg);
  // Day starts at 110us; halfway through prebuffer the scale is 2.5x.
  EXPECT_NEAR(algo.scale_at(sim::microseconds(85)), 2.5, 1e-9);
  EXPECT_NEAR(algo.scale_at(sim::microseconds(110)), 4.0, 1e-9);
  // During the day the window holds at its day-start value.
  EXPECT_NEAR(algo.scale_at(sim::microseconds(200)), 4.0, 1e-9);
}

TEST(ReTcp, LongerPrebufferOvershootsScale) {
  const net::CircuitSchedule sched(4, sim::microseconds(100),
                                   sim::microseconds(10));
  ReTcpConfig cfg;
  cfg.prebuffering = sim::microseconds(150);  // 3x the reference
  cfg.ramp_reference = sim::microseconds(50);
  cfg.scale = 4.0;
  ReTcp algo(params25g(), &sched, 0, 2, cfg);
  EXPECT_NEAR(algo.scale_at(sim::microseconds(110)), 10.0, 1e-9);
}

TEST(ReTcp, DerivesScaleFromBandwidthRatio) {
  const net::CircuitSchedule sched(4, sim::microseconds(100),
                                   sim::microseconds(10));
  ReTcpConfig cfg;
  cfg.circuit_bw_bps = 100e9;
  cfg.packet_bw_bps = 25e9;
  ReTcp algo(params25g(), &sched, 0, 1, cfg);
  // Day for 0->1 is slot 0, [0, 100us): t=0 is the day start, and with
  // elapsed = prebuffering the ramp is complete.
  EXPECT_NEAR(algo.scale_at(sim::microseconds(50)), 4.0, 1e-9);
}

TEST(ReTcp, RequiresSchedule) {
  EXPECT_THROW(ReTcp(params25g(), nullptr, 0, 1), std::invalid_argument);
}

// ---------------------------------------------------------------- factory

TEST(Factory, BuildsEveryAdvertisedAlgorithm) {
  for (const auto& name : sender_cc_names()) {
    const CcFactory f = make_factory(name);
    const auto algo = f(params25g());
    ASSERT_NE(algo, nullptr) << name;
    EXPECT_GT(algo->initial().cwnd_bytes, 0) << name;
  }
}

TEST(Factory, UnknownNameThrows) {
  EXPECT_THROW(make_factory("warp-speed"), std::invalid_argument);
}

}  // namespace
}  // namespace powertcp::cc
