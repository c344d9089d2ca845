#include "sim/time.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

namespace powertcp::sim {
namespace {

TEST(TimeHelpers, UnitConversionsAreExact) {
  EXPECT_EQ(nanoseconds(1), 1'000);
  EXPECT_EQ(microseconds(1), 1'000'000);
  EXPECT_EQ(milliseconds(1), 1'000'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000'000);
  EXPECT_EQ(from_seconds(1e-6), microseconds(1));
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2)), 2.0);
  EXPECT_DOUBLE_EQ(to_microseconds(microseconds(3)), 3.0);
}

TEST(TimeHelpers, FormatPicksUnits) {
  EXPECT_EQ(format_time(picoseconds(500)), "500ps");
  EXPECT_EQ(format_time(microseconds(12) + nanoseconds(500)), "12.500us");
  EXPECT_EQ(format_time(milliseconds(3)), "3.000ms");
  EXPECT_EQ(format_time(kTimeInfinity), "inf");
}

TEST(Bandwidth, TxTimeIsExactAtCommonRates) {
  // 1 byte at 100 Gbps = 80 ps; a 1048-byte frame = 83.84 ns.
  EXPECT_EQ(Bandwidth::gbps(100).tx_time(1), 80);
  EXPECT_EQ(Bandwidth::gbps(100).tx_time(1048), 83'840);
  // 25 Gbps: 320 ps per byte.
  EXPECT_EQ(Bandwidth::gbps(25).tx_time(1000), 320'000);
}

TEST(Bandwidth, BdpMatchesHandComputation) {
  // 25 Gbps x 20 us = 62.5 KB.
  EXPECT_EQ(Bandwidth::gbps(25).bdp_bytes(microseconds(20)), 62'500);
}

TEST(Bandwidth, BytesInWindow) {
  EXPECT_EQ(Bandwidth::gbps(8).bytes_in(microseconds(1)), 1'000);
}

::testing::AssertionResult same_as_llround(double x) {
  const std::int64_t got = fast_llround(x);
  const long long want = std::llround(x);
  if (got == want) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << std::hexfloat << x << ": fast_llround " << got << ", llround "
         << want;
}

TEST(FastLlround, MatchesLlroundOnASeededSweep) {
  // Random mantissas over every binary magnitude from 2^-8 to 2^63, so
  // the sweep crosses the 2^52 (no fraction left) and 2^62 (fallback)
  // boundaries as well as the small values serialization times take.
  std::mt19937_64 gen(20211229);
  std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-8, 63);
  for (int i = 0; i < 200'000; ++i) {
    ASSERT_TRUE(same_as_llround(std::ldexp(mantissa(gen), exponent(gen))));
  }
}

TEST(FastLlround, RoundsExactHalvesAwayFromZero) {
  EXPECT_EQ(fast_llround(0.5), 1);
  EXPECT_EQ(fast_llround(-0.5), -1);
  EXPECT_EQ(fast_llround(2.5), 3);
  EXPECT_EQ(fast_llround(-2.5), -3);
  for (std::int64_t k = -100'000; k <= 100'000; ++k) {
    const double half = static_cast<double>(k) + 0.5;
    ASSERT_TRUE(same_as_llround(half));
    // The neighbours of a half must not round with it.
    ASSERT_TRUE(same_as_llround(std::nextafter(half, -INFINITY)));
    ASSERT_TRUE(same_as_llround(std::nextafter(half, INFINITY)));
  }
  // Halves are representable up to 2^52.
  for (double k : {0x1p30, 0x1p40, 0x1p51, 0x1p52 - 1}) {
    ASSERT_TRUE(same_as_llround(k + 0.5));
    ASSERT_TRUE(same_as_llround(-k - 0.5));
  }
}

TEST(FastLlround, MatchesLlroundOnNegativesAndSignedZero) {
  for (double x : {-0.0, -1e-300, -0.49999999999999994, -0.5, -1.0, -1.5,
                   -335359.5, -1e12, -123456789.987654321}) {
    EXPECT_TRUE(same_as_llround(x));
  }
}

TEST(FastLlround, MatchesLlroundNear2To52And2To62) {
  for (double base : {0x1p52, 0x1p53, 0x1p62}) {
    double up = base;
    double down = base;
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(same_as_llround(up));
      ASSERT_TRUE(same_as_llround(-up));
      ASSERT_TRUE(same_as_llround(down));
      ASSERT_TRUE(same_as_llround(-down));
      up = std::nextafter(up, INFINITY);
      down = std::nextafter(down, 0.0);
    }
  }
}

TEST(FastLlround, OutOfRangeInputsTakeTheLlroundFallback) {
  // Past 2^62 and for NaN/infinity the result is std::llround's own;
  // the fast path never casts such a value, so no conversion overflows.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double x : {0x1p62, 0x1p63, -0x1p63, 0x1p64, 1e300, -1e300, kInf,
                   -kInf, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(fast_llround(x), std::llround(x)) << x;
  }
}

TEST(Bandwidth, TxTimeAtEveryBuiltLinkSpeed) {
  // The topologies build 25, 50 (fig8's second packet_gbps point) and
  // 100 Gbps links, and tests use 10 Gbps. Header-only (48 B) and
  // full-MSS (1048 B) packets take exact picosecond counts.
  struct Case {
    double gbps;
    std::int64_t bytes;
    TimePs ps;
  };
  for (const Case& c :
       {Case{10, 48, 38'400}, Case{10, 1048, 838'400}, Case{25, 48, 15'360},
        Case{25, 1048, 335'360}, Case{50, 48, 7'680}, Case{50, 1048, 167'680},
        Case{100, 48, 3'840}, Case{100, 1048, 83'840}}) {
    const Bandwidth bw = Bandwidth::gbps(c.gbps);
    EXPECT_EQ(bw.tx_time(c.bytes), c.ps) << c.gbps << " Gbps, " << c.bytes;
    const double exact = static_cast<double>(c.bytes) * 8.0 *
                         static_cast<double>(kPsPerSec) / bw.bps();
    EXPECT_EQ(bw.tx_time(c.bytes), std::llround(exact));
  }
  // A pacing gap goes through from_seconds the same way.
  EXPECT_EQ(from_seconds(1048 * 8.0 / 25e9), 335'360);
  EXPECT_EQ(from_seconds(-2.5e-12), -3);
}

}  // namespace
}  // namespace powertcp::sim
