/// AQM layer unit coverage: the step/RED verdict reproduces the
/// historical marking math draw-for-draw, the PI delay controller
/// integrates the normalized error with a bounded lazy catch-up, the
/// PIE mark-vs-drop rule follows RFC 8033, and the registry resolves
/// and rejects kinds.

#include "net/aqm.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace powertcp::net {
namespace {

EcnConfig dcqcn_profile() {
  EcnConfig ecn;
  ecn.enabled = true;
  ecn.kmin_bytes = 25'000;
  ecn.kmax_bytes = 100'000;
  ecn.pmax = 0.2;
  return ecn;
}

TEST(Aqm, StepRedMatchesHistoricalMarkingMath) {
  // Twin-RNG check of the pre-refactor EgressPort marking: no draw
  // below kmin or at/above kmax, one draw per packet in the band.
  const std::uint64_t seed = 0xfeed;
  const EcnConfig ecn = dcqcn_profile();
  StepRedAqm aqm(ecn, seed);
  sim::Rng ref(seed);
  for (std::int64_t q = 0; q <= 120'000; q += 500) {
    const AqmVerdict v = aqm.on_enqueue(q, /*ecn_capable=*/true, 0);
    EXPECT_FALSE(v.drop);
    bool want = false;
    if (q >= ecn.kmax_bytes) {
      want = true;
    } else if (q > ecn.kmin_bytes) {
      const double span =
          static_cast<double>(ecn.kmax_bytes - ecn.kmin_bytes);
      const double p =
          ecn.pmax * static_cast<double>(q - ecn.kmin_bytes) / span;
      want = ref.uniform() < p;
    }
    EXPECT_EQ(v.mark, want) << "queue_bytes=" << q;
  }
}

TEST(Aqm, StepRedIgnoresNonEctAndDisabledProfiles) {
  StepRedAqm aqm(dcqcn_profile(), 1);
  const AqmVerdict not_ect = aqm.on_enqueue(1'000'000, false, 0);
  EXPECT_FALSE(not_ect.mark);
  EXPECT_FALSE(not_ect.drop);
  StepRedAqm off(EcnConfig{}, 1);
  EXPECT_FALSE(off.on_enqueue(1'000'000, true, 0).mark);
}

TEST(Aqm, PiControllerIntegratesTheNormalizedDelayError) {
  // 8 Gbps -> 1e9 bytes/s, so queue bytes read directly as ns of
  // delay; gains chosen so two hand-computed steps stay unclamped.
  AqmSpec spec;
  spec.target_us = 100.0;
  spec.tupdate_us = 10.0;
  spec.alpha = 0.1;
  spec.beta = 0.01;
  PiDelayController pi(spec, sim::Bandwidth::gbps(8));
  const std::int64_t q = 150'000;  // 150 us of delay at 1e9 B/s

  // No whole tupdate elapsed yet: no step.
  EXPECT_DOUBLE_EQ(pi.update(q, sim::microseconds(5)), 0.0);
  // Step 1: 0.1*(150-100)/100 + 0.01*(150-0)/100 = 0.065.
  EXPECT_NEAR(pi.update(q, sim::microseconds(10)), 0.065, 1e-12);
  // Step 2: + 0.1*0.5 + 0.01*0 = 0.115.
  EXPECT_NEAR(pi.update(q, sim::microseconds(20)), 0.115, 1e-12);

  // Two elapsed intervals replayed in one lazy call land on the same
  // probability as stepping through them individually.
  PiDelayController lazy(spec, sim::Bandwidth::gbps(8));
  EXPECT_NEAR(lazy.update(q, sim::microseconds(20)), 0.115, 1e-12);
}

TEST(Aqm, PiControllerCatchUpIsBounded) {
  // Tiny gains: if the controller replayed a full 1 ms idle gap
  // (100 intervals) the saturated probability would decay to zero;
  // the kMaxCatchUpSteps bound keeps the decay small.
  AqmSpec spec;
  spec.target_us = 10.0;
  spec.tupdate_us = 10.0;
  spec.alpha = 0.001;
  spec.beta = 0.001;
  PiDelayController pi(spec, sim::Bandwidth::gbps(8));
  // Saturate with a huge standing queue (40 us delay vs 10 us target).
  sim::TimePs now = 0;
  for (int i = 0; i < 2000; ++i) {
    now += sim::microseconds(10);
    pi.update(40'000, now);
  }
  ASSERT_DOUBLE_EQ(pi.probability(), 1.0);
  // One update after a 1 ms idle gap with an empty queue.
  pi.update(0, now + sim::milliseconds(1));
  EXPECT_GT(pi.probability(), 0.9);
  EXPECT_LT(pi.probability(), 1.0);
}

TEST(Aqm, PieMarksEctBelowThresholdAndDropsAboveIt) {
  // Saturate the controller to p == 1 so every draw fires. With the
  // default ecn_threshold (0.1 < 1): ECT packets are dropped, since
  // p >= threshold; with threshold 1.0 they are marked instead.
  const auto saturate = [](PieAqm& aqm) {
    sim::TimePs now = 0;
    for (int i = 0; i < 2000; ++i) {
      now += sim::microseconds(20);
      aqm.on_enqueue(10'000'000, false, now);
    }
    return now;
  };
  AqmSpec spec;
  PieAqm drop_mode(spec, sim::Bandwidth::gbps(25), 7);
  sim::TimePs now = saturate(drop_mode);
  AqmVerdict v = drop_mode.on_enqueue(10'000'000, true, now);
  EXPECT_TRUE(v.drop);
  EXPECT_FALSE(v.mark);

  spec.ecn_threshold = 1.0;
  PieAqm mark_mode(spec, sim::Bandwidth::gbps(25), 7);
  now = saturate(mark_mode);
  v = mark_mode.on_enqueue(10'000'000, true, now);
  EXPECT_TRUE(v.mark);
  EXPECT_FALSE(v.drop);
  // Not-ECT traffic is dropped regardless of the threshold.
  v = mark_mode.on_enqueue(10'000'000, false, now);
  EXPECT_TRUE(v.drop);
  EXPECT_FALSE(v.mark);
}

TEST(Aqm, RegistryBuildsEveryVariantAndRejectsUnknownKinds) {
  const AqmRegistry& reg = AqmRegistry::instance();
  EXPECT_EQ(reg.joined_names(), "red, pie");
  for (const auto& name : reg.names()) {
    const auto aqm = reg.at(name).make(AqmSpec{}, dcqcn_profile(),
                                       sim::Bandwidth::gbps(25), 3);
    ASSERT_NE(aqm, nullptr);
    EXPECT_EQ(aqm->kind(), name);
  }
  EXPECT_EQ(reg.find("fq_codel"), nullptr);
  EXPECT_THROW(reg.at("fq_codel"), std::invalid_argument);
}

}  // namespace
}  // namespace powertcp::net
