#include "sim/flight_recorder.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace powertcp::sim {

FlightRecorder::FlightRecorder(std::size_t capacity) {
  if (capacity < 2) {
    throw std::invalid_argument(
        "FlightRecorder: capacity must be at least 2 samples");
  }
  // Even capacity keeps every stored tick a multiple of the stride
  // across compactions: keeping even indices of `0, s, 2s, ...,
  // (cap-1)s` yields exactly the multiples of 2s, and the tick that
  // triggered the compaction (cap*s) is one too.
  capacity_ = capacity + (capacity % 2);
  times_.reserve(capacity_ + 1);  // +1 for the finalize() append
}

FlightRecorder::~FlightRecorder() {
  if (sim_ != nullptr) sim_->cancel(timer_);
}

std::size_t FlightRecorder::add_channel(const std::string& name, Probe probe) {
  if (!probe) {
    throw std::invalid_argument("FlightRecorder: channel '" + name +
                                "' needs a probe");
  }
  if (offered_ != 0) {
    throw std::logic_error(
        "FlightRecorder: add_channel after the first tick");
  }
  probes_.push_back(std::move(probe));
  values_.emplace_back().reserve(capacity_ + 1);
  latest_.push_back(0.0);
  return probes_.size() - 1;
}

void FlightRecorder::tick(TimePs t) {
  assert(!finalized_ && "FlightRecorder: tick after finalize");
  assert((!have_latest_ || t >= latest_t_) &&
         "FlightRecorder: ticks must be offered in time order");
  for (std::size_t c = 0; c < probes_.size(); ++c) latest_[c] = probes_[c]();
  latest_t_ = t;
  have_latest_ = true;
  if (offered_++ % stride_ == 0) {
    if (times_.size() == capacity_) compact();
    times_.push_back(t);
    for (std::size_t c = 0; c < probes_.size(); ++c) {
      values_[c].push_back(latest_[c]);
    }
  }
}

void FlightRecorder::compact() {
  // Keep even stored indices: halves the count, doubles the effective
  // period. In place — no allocation.
  std::size_t out = 0;
  for (std::size_t i = 0; i < times_.size(); i += 2, ++out) {
    times_[out] = times_[i];
    for (auto& column : values_) column[out] = column[i];
  }
  times_.resize(out);
  for (auto& column : values_) column.resize(out);
  stride_ *= 2;
}

void FlightRecorder::finalize() {
  if (finalized_) return;
  finalized_ = true;
  if (sim_ != nullptr) {
    sim_->cancel(timer_);
    timer_ = EventId{};
  }
  if (have_latest_ && (times_.empty() || latest_t_ > times_.back())) {
    times_.push_back(latest_t_);
    for (std::size_t c = 0; c < probes_.size(); ++c) {
      values_[c].push_back(latest_[c]);
    }
  }
}

void FlightRecorder::arm(Simulator& sim, TimePs period, TimePs until) {
  if (period <= 0) {
    throw std::invalid_argument("FlightRecorder: period must be positive");
  }
  if (sim_ != nullptr) {
    throw std::logic_error("FlightRecorder: arm called twice");
  }
  sim_ = &sim;
  period_ = period;
  until_ = until;
  timer_ = sim.schedule_in(0, [this] { on_timer(); });
}

void FlightRecorder::on_timer() {
  tick(sim_->now());
  if (sim_->now() + period_ <= until_) {
    timer_ = sim_->schedule_in(period_, [this] { on_timer(); });
  } else {
    timer_ = EventId{};
  }
}

}  // namespace powertcp::sim
