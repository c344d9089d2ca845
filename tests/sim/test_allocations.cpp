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
#include "net/queue.hpp"
#include "net/switch_node.hpp"
#include "sim/simulator.hpp"
#include "topo/dumbbell.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
/// The largest request since the last reset (plain operator new only).
std::atomic<std::size_t> g_largest{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n > g_largest.load(std::memory_order_relaxed)) {
    g_largest.store(n, std::memory_order_relaxed);
  }
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

TEST(Allocations, PendingSetAllocatesItsWheelWhenTheEngineRuns) {
  // Scheduling before the first run (a simulation's set-up) makes no
  // request of 1 KiB or more: such a request may pay glibc's fastbin
  // consolidation. The wheel's 64 KiB of buckets come with the first
  // pop.
  sim::Simulator s;
  g_largest.store(0);
  for (int i = 0; i < 4; ++i) s.schedule_in(sim::microseconds(i), [] {});
  EXPECT_LT(g_largest.load(), 1024u);
  s.run();
  EXPECT_GE(g_largest.load(), 64u * 1024u);
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
  // that dominates paper-scale wall clock.
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

  // Warm up: rings, slot table, slab, and maps reach their high-water
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

/// Two flows across a two-switch chain whose switches run `sw_cfg`:
/// every data packet is received, routed and re-queued by two switches
/// (and every ack by both on the way back), so each packet's handle
/// crosses three ports' queues and two shared buffers, whose release
/// heaps take every finish's key, elided or not. Once warm, none of
/// that may touch the heap.
void expect_chain_forwarding_allocation_free(
    const net::SwitchConfig& sw_cfg) {
  sim::Simulator simulator;
  net::Network network(simulator);
  auto* sw1 = network.add_node<net::Switch>("sw1", sw_cfg);
  auto* sw2 = network.add_node<net::Switch>("sw2", sw_cfg);
  auto* snd = network.add_node<host::Host>("snd");
  auto* rcv = network.add_node<host::Host>("rcv");
  const sim::Bandwidth bw = sim::Bandwidth::gbps(25);
  network.connect(*snd, *sw1, bw, sim::microseconds(1));
  const auto mid = network.connect(*sw1, *sw2, bw, sim::microseconds(1));
  network.connect(*sw2, *rcv, sim::Bandwidth::gbps(10),
                  sim::microseconds(1));
  network.compute_routes();

  cc::FlowParams params;
  params.host_bw = bw;
  params.base_rtt = sim::microseconds(12);
  params.expected_flows = 2;
  const cc::CcFactory factory = cc::make_factory("powertcp");
  snd->start_flow(1, rcv->id(), 1'000'000'000, factory(params), params, 0);
  snd->start_flow(2, rcv->id(), 1'000'000'000, factory(params), params, 0);

  simulator.run_until(sim::milliseconds(2));
  const std::uint64_t events_before = simulator.events_executed();
  const std::uint64_t before = allocations();
  simulator.run_until(sim::milliseconds(4));
  const std::uint64_t allocs = allocations() - before;
  const std::uint64_t events = simulator.events_executed() - events_before;
  EXPECT_GT(events, 10'000u) << "expected a busy steady state";
  EXPECT_GT(sw1->port(mid.a_port).tx_packets(), 0u);
  EXPECT_GT(simulator.events_elided(), 0u) << "no finish took the elided path";
  EXPECT_EQ(allocs, 0u) << "heap allocations per steady-state event: "
                        << static_cast<double>(allocs) /
                               static_cast<double>(events);
}

TEST(Allocations, SteadyStateMultiHopForwardingIsAllocationFree) {
  expect_chain_forwarding_allocation_free(net::SwitchConfig{});
}

TEST(Allocations, SteadyStatePriorityForwardingIsAllocationFree) {
  // Strict-priority ports (the HOMA fabric's) queue per band.
  net::SwitchConfig cfg;
  cfg.priority_bands = 8;
  expect_chain_forwarding_allocation_free(cfg);
}

TEST(Allocations, SteadyStateVoqPushPopIsAllocationFree) {
  // An RDCN ToR's VOQs: once each queue has held its backlog high-water
  // mark, pushing and popping handles never allocates.
  net::PacketPool slab;
  net::VoqSet voqs(slab, 4, [](net::NodeId dst) { return dst % 4; });
  const auto cycle = [&] {
    for (net::NodeId dst = 0; dst < 32; ++dst) {
      net::Packet p;
      p.dst = dst;
      p.payload_bytes = 1'000;
      voqs.push(slab.put(std::move(p)));
    }
    for (int voq = 0; voq < 4; ++voq) {
      for (net::PacketPool::Handle h; voqs.pop_from(voq, h);) {
        slab.release(h);
      }
    }
  };
  cycle();  // warm: slab chunk, free list, each VOQ's ring
  const std::uint64_t before = allocations();
  for (int round = 0; round < 1'000; ++round) cycle();
  EXPECT_EQ(allocations() - before, 0u)
      << "VOQ push/pop must recycle storage, not allocate";
  EXPECT_EQ(voqs.total_packets(), 0u);
  EXPECT_EQ(slab.live(), 0u);
}

TEST(Allocations, SharedBufferReleaseHeapIsReservedWhenPortsAttach) {
  // A port has at most one serialization in flight, so attaching it
  // grows the buffer's release heap by one slot: releases never
  // allocate, not even the first ones.
  sim::Simulator simulator;
  net::DtSharedBuffer buf(1'000'000);
  for (int port = 0; port < 8; ++port) buf.attach(simulator);
  const std::uint64_t before = allocations();
  for (int port = 0; port < 8; ++port) {
    buf.on_enqueue(1'000);
    buf.release_at(simulator.reserve_in(sim::nanoseconds(80 * (8 - port))),
                   1'000);
  }
  EXPECT_EQ(allocations() - before, 0u);
  simulator.run_until(sim::nanoseconds(320));
  EXPECT_EQ(buf.used_bytes(), 4'000);
  EXPECT_TRUE(buf.admits(0, 1'000));
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
