/// Event-engine microbenchmark: the raw cost of the simulator hot path
/// that paper-scale (--full) runs are bound by. Four workloads
/// (schedule+fire churn, a replay of the per-hop pop-one-schedule-one
/// pattern, schedule+cancel churn, and an end-to-end dumbbell packet
/// run) on the Simulator's pending set.
///
/// This bench is the calibrated perf gate: CI compares its JSON against
/// bench/baselines/perf.json via scripts/check_perf_baseline.py. The
/// events and allocs/event columns are deterministic and gated exactly;
/// the Mev/s throughput columns are wall-clock dependent and gated
/// only loosely, with tolerance learned from repeat runs.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "cc/registry.hpp"
#include "harness/bench_opts.hpp"
#include "harness/sweep.hpp"
#include "net/network.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "topo/dumbbell.hpp"

using namespace powertcp;
using harness::Cell;

// Counting replacements for the global allocator (one set per binary),
// the same technique as tests/sim/test_allocations.cpp: every heap
// allocation in the measured workloads shows up in the allocs/event
// columns, which the perf gate then pins exactly.
namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(align, (n + align - 1) / align * align)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Self-scheduling timer wheels: `wheels` concurrent chains each
/// re-arming `spacing` ahead — the shape of pacing/RTO timers at scale.
std::uint64_t run_timer_churn(int wheels, std::uint64_t events) {
  sim::Simulator s;
  std::uint64_t remaining = events;
  std::function<void()> tick = [&] {
    if (remaining == 0) return;
    --remaining;
    s.schedule_in(sim::nanoseconds(100 + remaining % 997), tick);
  };
  for (int w = 0; w < wheels; ++w) {
    s.schedule_at(sim::nanoseconds(w), tick);
  }
  s.run();
  return s.events_executed();
}

/// The per-hop pattern of packet runs: every event pops and schedules
/// exactly one successor at now + δ, δ either a packet's serialization
/// time or a link's propagation delay (a fixed-seed coin picks), so the
/// pending set holds `pending` events throughout. perfbench peaks at
/// ~50 pending on its dumbbell and ~600 on its fat-tree.
std::uint64_t run_hop_replay(int pending, std::uint64_t events) {
  struct Hop {
    sim::Simulator* s;
    sim::Rng* rng;
    std::uint64_t* remaining;
    void operator()() const {
      if (*remaining == 0) return;
      --*remaining;
      const sim::TimePs delta = rng->uniform() < 0.5
                                    ? sim::picoseconds(83'840)
                                    : sim::microseconds(1);
      s->schedule_in(delta, *this);
    }
  };
  sim::Simulator s;
  sim::Rng rng(1);
  std::uint64_t remaining = events;
  for (int i = 0; i < pending; ++i) {
    s.schedule_at(sim::nanoseconds(i), Hop{&s, &rng, &remaining});
  }
  s.run();
  return s.events_executed();
}

/// Schedule-then-cancel churn: the deduplicated-wakeup pattern of
/// egress ports (arm a retry, cancel it when work arrives).
std::uint64_t run_cancel_churn(std::uint64_t rounds) {
  sim::Simulator s;
  std::uint64_t remaining = rounds;
  std::function<void()> tick = [&] {
    if (remaining == 0) return;
    --remaining;
    const sim::EventId doomed =
        s.schedule_in(sim::microseconds(50), [] { std::abort(); });
    s.schedule_in(sim::nanoseconds(200), tick);
    s.cancel(doomed);
  };
  s.schedule_at(0, tick);
  s.run();
  return s.events_executed();
}

/// End-to-end packet events: two long PowerTCP flows over a dumbbell.
std::uint64_t run_packet_sim(sim::TimePs horizon) {
  sim::Simulator simulator;
  net::Network network(simulator);
  topo::DumbbellConfig cfg;
  cfg.n_senders = 2;
  topo::Dumbbell topo(network, cfg);
  cc::FlowParams params;
  params.host_bw = cfg.host_bw;
  params.base_rtt = topo.base_rtt();
  params.expected_flows = 2;
  const cc::CcFactory factory = cc::make_factory("powertcp");
  topo.sender(0).start_flow(1, topo.receiver().id(), 1'000'000'000,
                            factory(params), params, 0);
  topo.sender(1).start_flow(2, topo.receiver().id(), 1'000'000'000,
                            factory(params), params, 0);
  simulator.run_until(horizon);
  return simulator.events_executed();
}

struct Measurement {
  double mops = 0;
  std::uint64_t events = 0;
  double allocs_per_event = 0;
};

template <typename Fn>
Measurement measure(Fn&& fn) {
  const std::uint64_t allocs0 =
      g_allocations.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  Measurement m;
  m.events = fn();
  const double secs = seconds_since(t0);
  const std::uint64_t allocs =
      g_allocations.load(std::memory_order_relaxed) - allocs0;
  m.mops = secs > 0 ? static_cast<double>(m.events) / secs / 1e6 : 0;
  // Setup allocations (topology, vector growth) amortize to 0.00 at
  // precision 2; a real per-event allocation reads >= 1.00.
  m.allocs_per_event = m.events > 0 ? static_cast<double>(allocs) /
                                          static_cast<double>(m.events)
                                    : 0;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = harness::BenchOptions::parse(argc, argv);
  if (opts.help) {
    std::fputs(harness::BenchOptions::usage("bench_event_engine").c_str(),
               stdout);
    return 0;
  }
  if (!opts.ok) return 2;

  // The packet horizon runs about `scale` events (~24k per ms), so
  // every row is long enough to time; both flows finish at ~640 ms.
  std::uint64_t scale = 2'000'000;
  sim::TimePs horizon = sim::milliseconds(80);
  if (opts.fast) {
    scale = 200'000;
    horizon = sim::milliseconds(8);
  }
  if (opts.full) {
    scale = 20'000'000;
    horizon = sim::milliseconds(600);
  }

  std::printf("event-engine microbenchmark (%llu timer events, %s packet "
              "horizon)\n\n",
              static_cast<unsigned long long>(scale),
              sim::format_time(horizon).c_str());

  harness::BenchReporter reporter("bench_event_engine", opts);

  harness::ResultTable t;
  t.title = "event engine throughput (Mev/s gated loosely vs "
            "bench/baselines/perf.json; events and allocs/ev exactly)";
  t.slug = "event_engine";
  t.key_columns = {"workload"};
  t.value_columns = {"Mev/s", "events", "allocs/ev"};

  const auto add_row = [&t](const char* name, const Measurement& m) {
    harness::ResultTable::Row row;
    row.keys = {Cell(std::string(name))};
    row.values = {Cell(m.mops, 2),
                  Cell::integer(static_cast<std::int64_t>(m.events)),
                  Cell(m.allocs_per_event, 2)};
    t.rows.push_back(std::move(row));
  };
  add_row("timer-churn x64",
          measure([&] { return run_timer_churn(64, scale); }));
  add_row("timer-churn x4096",
          measure([&] { return run_timer_churn(4096, scale); }));
  add_row("hop replay x50",
          measure([&] { return run_hop_replay(50, scale); }));
  add_row("hop replay x600",
          measure([&] { return run_hop_replay(600, scale); }));
  add_row("schedule+cancel",
          measure([&] { return run_cancel_churn(scale / 2); }));
  add_row("dumbbell packet sim",
          measure([&] { return run_packet_sim(horizon); }));
  reporter.add(std::move(t));

  return reporter.finish();
}
