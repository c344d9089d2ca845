#pragma once

#include <cmath>
#include <cstdint>
#include <string>

/// \file time.hpp
/// Simulation time and bandwidth types.
///
/// Time is an integer count of picoseconds. One bit at 100 Gbps lasts
/// exactly 10 ps, so serialization delays of whole packets are exact and
/// event ordering never depends on floating-point rounding. An int64
/// picosecond clock covers ~106 days, far beyond any simulation horizon
/// used here.

namespace powertcp::sim {

/// Simulation time in picoseconds since the start of the run.
using TimePs = std::int64_t;

inline constexpr TimePs kPsPerNs = 1'000;
inline constexpr TimePs kPsPerUs = 1'000'000;
inline constexpr TimePs kPsPerMs = 1'000'000'000;
inline constexpr TimePs kPsPerSec = 1'000'000'000'000;

/// Sentinel "never" timestamp (also used for "no deadline").
inline constexpr TimePs kTimeInfinity = INT64_MAX;

constexpr TimePs picoseconds(std::int64_t v) { return v; }
constexpr TimePs nanoseconds(std::int64_t v) { return v * kPsPerNs; }
constexpr TimePs microseconds(std::int64_t v) { return v * kPsPerUs; }
constexpr TimePs milliseconds(std::int64_t v) { return v * kPsPerMs; }
constexpr TimePs seconds(std::int64_t v) { return v * kPsPerSec; }

/// std::llround (nearest, halves away from zero) without the libm call
/// the packet path would otherwise pay per serialization and per paced
/// send. For finite |x| < 2^62 the fraction `x - trunc(x)` is exact, so
/// adjusting the truncation by it is exactly llround; every other input
/// (NaN, infinities, |x| >= 2^62) goes to std::llround itself. The
/// result is bit-identical over the whole domain.
inline std::int64_t fast_llround(double x) {
  if (!(std::fabs(x) < 0x1p62)) return std::llround(x);
  const auto t = static_cast<std::int64_t>(x);
  const double frac = x - static_cast<double>(t);
  if (frac >= 0.5) return t + 1;
  if (frac <= -0.5) return t - 1;
  return t;
}

/// Converts a (possibly fractional) duration in seconds to picoseconds.
inline TimePs from_seconds(double s) {
  return static_cast<TimePs>(fast_llround(s * static_cast<double>(kPsPerSec)));
}

constexpr double to_seconds(TimePs t) {
  return static_cast<double>(t) / static_cast<double>(kPsPerSec);
}
constexpr double to_microseconds(TimePs t) {
  return static_cast<double>(t) / static_cast<double>(kPsPerUs);
}
constexpr double to_milliseconds(TimePs t) {
  return static_cast<double>(t) / static_cast<double>(kPsPerMs);
}

/// Human-readable rendering with an auto-selected unit, e.g. "12.500us".
std::string format_time(TimePs t);

/// Link or NIC bandwidth. Stored in bits per second; converts between
/// byte counts and wire time.
class Bandwidth {
 public:
  constexpr Bandwidth() = default;
  constexpr explicit Bandwidth(double bits_per_sec)
      : bits_per_sec_(bits_per_sec) {}

  static constexpr Bandwidth gbps(double v) { return Bandwidth(v * 1e9); }
  static constexpr Bandwidth mbps(double v) { return Bandwidth(v * 1e6); }

  constexpr double bps() const { return bits_per_sec_; }
  constexpr double gbps_value() const { return bits_per_sec_ / 1e9; }
  constexpr double bytes_per_sec() const { return bits_per_sec_ / 8.0; }

  /// Wire time of `bytes` at this rate, rounded to the nearest picosecond.
  TimePs tx_time(std::int64_t bytes) const {
    return static_cast<TimePs>(fast_llround(
        static_cast<double>(bytes) * 8.0 * static_cast<double>(kPsPerSec) /
        bits_per_sec_));
  }

  /// Bytes transferred in `t` at this rate (floor).
  std::int64_t bytes_in(TimePs t) const {
    return static_cast<std::int64_t>(to_seconds(t) * bytes_per_sec());
  }

  /// Bandwidth-delay product in bytes for base RTT `rtt`.
  std::int64_t bdp_bytes(TimePs rtt) const {
    return static_cast<std::int64_t>(
        fast_llround(to_seconds(rtt) * bytes_per_sec()));
  }

  constexpr bool operator==(const Bandwidth&) const = default;

 private:
  double bits_per_sec_ = 0.0;
};

}  // namespace powertcp::sim
