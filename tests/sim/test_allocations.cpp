/// Allocation-count regression tests for the event engine's hot path.
///
/// This TU replaces the global operator new/delete pair with counting
/// forwards to malloc/free (legal: one replacement per program;
/// affects the whole powertcp_tests binary, which is why the counters
/// are sampled only across tightly scoped regions). The headline test
/// pins the paper-scale property the event-engine rewrite bought:
/// once warmed up, a steady-state data-packet event — tx completion,
/// propagation, receive, ack, cc update, timer re-arm — performs ZERO
/// heap allocations.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "cc/registry.hpp"
#include "harness/telemetry.hpp"
#include "host/host.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "topo/dumbbell.hpp"

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

namespace powertcp {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(Allocations, SchedulingRecycledSlotsIsAllocationFree) {
  sim::Simulator s;
  // Warm the slot table, free list, and queue storage.
  for (int i = 0; i < 64; ++i) s.schedule_in(i, [] {});
  s.run();
  const std::uint64_t before = allocations();
  for (int round = 0; round < 1000; ++round) {
    const sim::EventId keep = s.schedule_in(1, [] {});
    const sim::EventId drop = s.schedule_in(2, [] {});
    s.cancel(drop);
    (void)keep;
    s.run();
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "schedule/cancel/fire churn must recycle slots, not allocate";
}

TEST(Allocations, InlineCallbackNeverAllocates) {
  sim::Simulator s;
  s.schedule_in(1, [] {});  // warm one slot
  s.run();
  const std::uint64_t before = allocations();
  // A closure this size (40 bytes with the reference below) heap-
  // allocates inside std::function (16-byte SBO on libstdc++); the
  // engine's inline Callback must not.
  struct Big {
    void* a;
    void* b;
    std::uint64_t c[2];
  };
  Big big{nullptr, nullptr, {1, 2}};
  int fired = 0;
  s.schedule_in(1, [big, &fired] {
    fired += static_cast<int>(big.c[0]);
  });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(allocations() - before, 0u);
}

TEST(Allocations, SteadyStatePacketEventsAreAllocationFree) {
  // One long PowerTCP flow over the dumbbell: after warmup every
  // per-packet event chain (tx completion at two ports, propagation,
  // switch forward, receiver ack, sender cc update + RTO re-arm, INT
  // stamping) must run without touching the heap. This is the hot path
  // that dominates paper-scale (--full) wall clock.
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

  // Warm up: rings, slot table, pools, and maps reach their high-water
  // marks well within a millisecond of simulated traffic.
  simulator.run_until(sim::milliseconds(2));
  const std::uint64_t events_before = simulator.events_executed();
  const std::uint64_t before = allocations();
  simulator.run_until(sim::milliseconds(4));
  const std::uint64_t allocs = allocations() - before;
  const std::uint64_t events = simulator.events_executed() - events_before;
  EXPECT_GT(events, 20'000u) << "expected a busy steady state";
  EXPECT_EQ(allocs, 0u) << "heap allocations per steady-state event: "
                        << static_cast<double>(allocs) /
                               static_cast<double>(events);
}

TEST(Allocations, FlightRecorderSamplingIsAllocationFree) {
  // The telemetry pledge: an armed FlightTap adds ZERO heap
  // allocations per sample to the steady-state packet path — all its
  // storage is acquired at construction. The measurement window spans
  // many samples AND at least one ring wrap (capacity 64 at 1us
  // period inside a 2ms window), so the 2:1 downsampling compaction
  // is pinned allocation-free too.
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

  harness::TelemetryConfig tcfg;
  tcfg.enabled = true;
  tcfg.capacity = 64;
  tcfg.sample_every = sim::microseconds(1);
  harness::FlightTap tap(tcfg, simulator, topo.bottleneck_port(),
                         &topo.sender(0), 1, topo.base_rtt(),
                         sim::milliseconds(4));

  simulator.run_until(sim::milliseconds(2));  // warm up, wrap the ring
  const std::uint64_t before = allocations();
  simulator.run_until(sim::milliseconds(4));
  EXPECT_EQ(allocations() - before, 0u)
      << "flight-recorder sampling must not touch the heap";

  const harness::TelemetrySeries series = tap.series();
  EXPECT_FALSE(series.empty());
  EXPECT_GE(series.time.size(), 32u);
  ASSERT_EQ(series.channels.size(), 5u);
}

}  // namespace
}  // namespace powertcp
