#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

/// \file flight_recorder.hpp
/// Bounded in-flight time-series capture (the "flight recorder").
///
/// The paper's argument is about fine-grained in-network state over
/// time — queue depth and its derivative, not end-of-run aggregates —
/// so the harness needs per-run time series. stats::QueueSeries grows
/// one sample per event and is fine for short scenario runs; at
/// paper scale (minutes of simulated time, millions of events) an
/// unbounded series would dominate memory and break the event
/// engine's zero-allocation steady state. The FlightRecorder instead
/// samples named probe channels on a periodic self-rescheduling sim
/// event into storage that is fixed at setup:
///
///   * every channel added via add_channel() shares one timestamp
///     column (all probes read at the same tick);
///   * when the buffer fills, it is compacted in place 2:1 (keeping
///     every other stored sample) and the sampling stride doubles, so
///     a run of ANY length fits `capacity` samples while keeping a
///     uniform effective period — the classic bounded-trace
///     decimation scheme;
///   * the first offered sample is always retained, and finalize()
///     appends the most recent offered sample, so a series always
///     spans [first tick, last tick] with monotone timestamps;
///   * after setup (add_channel/arm), tick() performs ZERO heap
///     allocations: probes are invoked (calling a std::function never
///     allocates), values land in reserved vectors, compaction is in
///     place, and the re-scheduled event captures 8 bytes (inline in
///     sim::Callback). A test pins this.
///
/// This mirrors the ns-3 `CheckQueueSize` idiom — a periodic event
/// that samples and re-schedules itself — made allocation-free and
/// bounded.

namespace powertcp::sim {

class FlightRecorder {
 public:
  /// A probe reads one instantaneous value (queue bytes, cwnd, a
  /// cumulative counter...). Invoked on every tick; must not allocate
  /// or mutate simulation state.
  using Probe = std::function<double()>;

  /// `capacity` bounds the stored samples per channel (rounded up to
  /// even so 2:1 compaction keeps stored ticks aligned to the stride).
  /// Throws std::invalid_argument when capacity < 2.
  explicit FlightRecorder(std::size_t capacity);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Setup phase only (may allocate). Returns the channel index.
  std::size_t add_channel(const std::string& name, Probe probe);

  /// Offers one sample at time `t` (must be >= the previous tick's
  /// time): reads every probe, stores the row when the current
  /// decimation stride selects it, and always remembers it as the
  /// "latest" row for finalize(). Allocation-free.
  void tick(TimePs t);

  /// Schedules tick(now) every `period` on `sim`, starting at sim.now()
  /// and stopping after `until` (no tick is scheduled past it). The
  /// pending event is cancelled by the destructor, so an armed
  /// recorder must not outlive its simulator (the usual
  /// declared-after, destroyed-before ordering).
  void arm(Simulator& sim, TimePs period, TimePs until);

  /// Appends the latest offered sample when the stride skipped it, so
  /// the stored series ends at the final observation. Idempotent;
  /// tick() must not be called afterwards (checked by assert).
  void finalize();

  std::size_t channel_count() const { return probes_.size(); }

  /// Stored samples (<= capacity() + 1 after finalize()).
  std::size_t size() const { return times_.size(); }
  TimePs time(std::size_t i) const { return times_[i]; }
  double value(std::size_t channel, std::size_t i) const {
    return values_[channel][i];
  }

  std::size_t capacity() const { return capacity_; }
  /// Total ticks offered (stored or decimated away).
  std::uint64_t offered() const { return offered_; }
  /// Current decimation stride: every stride-th offered tick is stored.
  std::uint64_t stride() const { return stride_; }

 private:
  void compact();

  std::size_t capacity_;
  std::vector<Probe> probes_;
  std::vector<TimePs> times_;
  std::vector<std::vector<double>> values_;  ///< [channel][stored index]

  TimePs latest_t_ = 0;
  std::vector<double> latest_;  ///< last offered row, stored or not
  bool have_latest_ = false;
  bool finalized_ = false;

  std::uint64_t offered_ = 0;
  std::uint64_t stride_ = 1;

  Simulator* sim_ = nullptr;  ///< set by arm(); used to cancel on destroy
  TimePs period_ = 0;
  TimePs until_ = 0;
  EventId timer_{};  ///< pending tick; cancelled on destruction

  void on_timer();
};

}  // namespace powertcp::sim
