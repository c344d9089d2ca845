#include "sim/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <tuple>

namespace powertcp::sim {

ShardedSimulator::ShardedSimulator(int shards) {
  if (shards < 1) {
    throw std::invalid_argument("ShardedSimulator: shard count must be >= 1");
  }
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  ingest_.resize(static_cast<std::size_t>(shards));
  cut_w_.assign(shards_.size() * shards_.size(), kTimeInfinity);
  bound_ = cut_w_;
}

void ShardedSimulator::set_ingest_hook(int i, std::function<void()> hook) {
  ingest_.at(static_cast<std::size_t>(i)) = std::move(hook);
}

namespace {

/// a + b with kTimeInfinity absorbing (saturating, never overflowing).
TimePs sat_add(TimePs a, TimePs b) {
  if (a == kTimeInfinity || b == kTimeInfinity) return kTimeInfinity;
  return a > kTimeInfinity - b ? kTimeInfinity : a + b;
}

}  // namespace

void ShardedSimulator::add_cut_edge(int src, int dst, TimePs weight) {
  const int n = shard_count();
  if (src < 0 || src >= n || dst < 0 || dst >= n || src == dst) {
    throw std::invalid_argument("ShardedSimulator::add_cut_edge: bad pair");
  }
  if (weight < 1) {
    throw std::invalid_argument(
        "ShardedSimulator::add_cut_edge: weight must be >= 1 ps");
  }
  TimePs& w = cut_w_[static_cast<std::size_t>(src) * static_cast<std::size_t>(n) +
                     static_cast<std::size_t>(dst)];
  w = std::min(w, weight);
  bounds_dirty_ = true;
}

void ShardedSimulator::finalize_bounds() {
  if (!bounds_dirty_) return;
  const std::size_t n = shards_.size();
  // All-pairs shortest paths over the cut graph (Floyd–Warshall; shard
  // counts are tiny, so O(n^3) is free).
  std::vector<TimePs> d = cut_w_;
  for (std::size_t i = 0; i < n; ++i) d[i * n + i] = 0;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const TimePs dik = d[i * n + k];
      if (dik == kTimeInfinity) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const TimePs via = sat_add(dik, d[k * n + j]);
        if (via < d[i * n + j]) d[i * n + j] = via;
      }
    }
  }
  bound_ = d;
  // Self-influence: an event in shard j re-influences j only by leaving
  // through some shard k and coming back, so the bound is the minimum
  // cycle through j — NOT 0. (Without this term a shard whose only
  // peers are idle would run to the horizon and later receive past-time
  // deliveries from its own feedback loop.)
  for (std::size_t j = 0; j < n; ++j) {
    TimePs cycle = kTimeInfinity;
    for (std::size_t k = 0; k < n; ++k) {
      if (k == j) continue;
      cycle = std::min(cycle, sat_add(d[j * n + k], d[k * n + j]));
    }
    bound_[j * n + j] = cycle;
  }
  bounds_dirty_ = false;
}

TimePs ShardedSimulator::influence_bound(int src, int dst) {
  const int n = shard_count();
  if (src < 0 || src >= n || dst < 0 || dst >= n) {
    throw std::invalid_argument("ShardedSimulator::influence_bound: bad pair");
  }
  finalize_bounds();
  return bound_[static_cast<std::size_t>(src) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(dst)];
}

std::uint64_t ShardedSimulator::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->events_executed();
  return total;
}

ShardedSimulator::Ambiguity ShardedSimulator::first_ambiguity() const {
  Ambiguity first;
  bool found = false;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->boundary_ambiguities() == 0) continue;
    const Simulator::Ambiguity& a = shards_[i]->first_ambiguity();
    if (found && std::tie(a.time, a.sched, a.tie) >=
                     std::tie(first.time, first.sched, first.tie)) {
      continue;
    }
    found = true;
    first = {a.time, a.sched, a.tie, {0, 0}};
    for (int k = 0; k < 2; ++k) {
      // Origin 0 is a local event; a foreign one is 1 + source shard.
      first.shards[k] = a.origins[k] == 0 ? static_cast<int>(i)
                                          : static_cast<int>(a.origins[k]) - 1;
    }
  }
  return first;
}

void ShardedSimulator::record_error() {
  const std::lock_guard<std::mutex> lock(error_mu_);
  if (!error_) error_ = std::current_exception();
  abort_ = true;
}

void ShardedSimulator::worker(int idx, TimePs horizon) {
  Simulator& sim = *shards_[static_cast<std::size_t>(idx)];
  const std::size_t i = static_cast<std::size_t>(idx);
  while (true) {
    // Phase 1 (quiescent): pull in cross-shard deliveries buffered
    // during the previous window, then publish the earliest pending
    // time. abort_/done_/ends_ are written strictly before one
    // barrier and read strictly after it, so plain fields suffice.
    if (!abort_) {
      try {
        if (ingest_[i]) ingest_[i]();
        next_times_[i] = sim.next_event_time();
      } catch (...) {
        record_error();
      }
    }
    if (abort_) next_times_[i] = kTimeInfinity;
    barrier_->arrive_and_wait([&] {
      TimePs min_next = kTimeInfinity;
      for (const TimePs t : next_times_) min_next = std::min(min_next, t);
      if (abort_ || min_next > horizon) {
        done_ = true;
        return;
      }
      // Per-shard window ends from the cut graph: shard j may run
      // everything below min_k(next_k + D*[k][j]) — no influence from
      // any shard (including j's own feedback cycle) can land earlier.
      // Idle shards constrain nothing; shards without a finite bound
      // run free to the horizon.
      const std::size_t n = shards_.size();
      for (std::size_t j = 0; j < n; ++j) {
        TimePs end = kTimeInfinity;
        for (std::size_t k = 0; k < n; ++k) {
          end = std::min(end, sat_add(next_times_[k], bound_[k * n + j]));
        }
        ends_[j] = std::min(end, horizon + 1);
      }
      ++windows_;
    });
    if (done_) break;
    // Phase 2 (parallel): run the window. Cross-shard sends land in
    // the channels; the next round's phase 1 drains them.
    try {
      sim.run_events_before(ends_[i]);
    } catch (...) {
      record_error();
    }
    // All sends of this window complete before any shard ingests them.
    barrier_->arrive_and_wait();
  }
  // No events <= horizon remain anywhere; advance the local clock.
  if (!abort_) sim.run_until(horizon);
}

void ShardedSimulator::run_until(TimePs horizon) {
  if (shards_.size() == 1) {
    // The sequential engine, driven verbatim — no threads, no windows.
    shards_[0]->run_until(horizon);
    return;
  }
  done_ = false;
  abort_ = false;
  error_ = nullptr;
  finalize_bounds();
  next_times_.assign(shards_.size(), kTimeInfinity);
  ends_.assign(shards_.size(), 0);
  barrier_ = std::make_unique<Barrier>(static_cast<int>(shards_.size()));
  std::vector<std::thread> pool;
  pool.reserve(shards_.size() - 1);
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    pool.emplace_back([this, i, horizon] {
      worker(static_cast<int>(i), horizon);
    });
  }
  worker(0, horizon);
  for (auto& t : pool) t.join();
  if (error_) std::rethrow_exception(error_);
}

}  // namespace powertcp::sim
