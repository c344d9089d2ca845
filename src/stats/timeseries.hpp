#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

/// \file timeseries.hpp
/// Windowed counters for the paper's time-series plots: throughput
/// (Figs. 4, 5, 8a) and queue length (Figs. 4, 8a).

namespace powertcp::stats {

/// Accumulates byte arrivals into fixed-width time bins and reports the
/// per-bin rate in Gbps. Bin 0 starts at `origin`.
class ThroughputSeries {
 public:
  ThroughputSeries(sim::TimePs origin, sim::TimePs bin_width)
      : origin_(origin), bin_width_(bin_width) {}

  void add_bytes(sim::TimePs when, std::int64_t bytes);

  std::size_t bin_count() const { return bins_.size(); }
  sim::TimePs bin_start(std::size_t i) const {
    return origin_ + static_cast<sim::TimePs>(i) * bin_width_;
  }

  /// Rate over bin i in Gbps.
  double gbps(std::size_t i) const;

  /// Mean rate over [from_bin, to_bin) in Gbps.
  double mean_gbps(std::size_t from_bin, std::size_t to_bin) const;

 private:
  sim::TimePs origin_;
  sim::TimePs bin_width_;
  std::vector<std::int64_t> bins_;
};

/// Point-in-time samples of a queue length (bytes). The monitored queue
/// calls `sample` on every enqueue/dequeue or on a periodic timer.
class QueueSeries {
 public:
  struct Point {
    sim::TimePs t;
    std::int64_t bytes;
  };

  void sample(sim::TimePs t, std::int64_t bytes) {
    points_.push_back({t, bytes});
    if (bytes > max_bytes_) max_bytes_ = bytes;
  }

  const std::vector<Point>& points() const { return points_; }
  std::int64_t max_bytes() const { return max_bytes_; }

  /// Value at time t (last sample at or before t; 0 before first sample).
  std::int64_t at(sim::TimePs t) const;

  /// Time-weighted average over [from, to].
  double time_weighted_mean(sim::TimePs from, sim::TimePs to) const;

 private:
  std::vector<Point> points_;
  std::int64_t max_bytes_ = 0;
};

}  // namespace powertcp::stats
