/// Microbenchmarks (google-benchmark): per-ack cost of each congestion
/// control law, INT header stamping, and core event-loop operations.
/// The paper's §3.6 argues PowerTCP adds no complexity over HPCC — the
/// per-ack numbers here quantify that claim for this implementation.

#include <benchmark/benchmark.h>

#include <memory>

#include "cc/dcqcn.hpp"
#include "cc/dctcp.hpp"
#include "cc/hpcc.hpp"
#include "cc/power_tcp.hpp"
#include "cc/theta_power_tcp.hpp"
#include "cc/timely.hpp"
#include "sim/simulator.hpp"

using namespace powertcp;

namespace {

cc::FlowParams bench_params() {
  cc::FlowParams p;
  p.host_bw = sim::Bandwidth::gbps(25);
  p.base_rtt = sim::microseconds(20);
  return p;
}

/// Synthesizes a plausible ack stream: 3-hop INT with advancing
/// timestamps and txBytes, mild queue oscillation.
cc::AckContext make_ctx(net::IntHeader& hdr, std::int64_t i) {
  hdr.clear();
  for (int hop = 0; hop < 3; ++hop) {
    net::IntHopRecord rec;
    rec.ts = i * 1'000'000 + hop * 1000;
    rec.tx_bytes = i * 1048 * (hop + 1);
    rec.qlen_bytes = (i % 64) * 500;
    rec.bandwidth_bps = 25e9;
    hdr.push(rec);
  }
  cc::AckContext ctx;
  ctx.now = i * 1'000'000;
  ctx.rtt = sim::microseconds(20) + (i % 16) * 100'000;
  ctx.acked_bytes = 1000;
  ctx.ack_seq = i * 1000;
  ctx.snd_nxt = i * 1000 + 60'000;
  ctx.ecn_echo = (i % 32) == 0;
  ctx.int_hdr = &hdr;
  return ctx;
}

template <typename Algo>
void bench_on_ack(benchmark::State& state) {
  Algo algo(bench_params());
  net::IntHeader hdr;
  std::int64_t i = 1;
  for (auto _ : state) {
    const cc::AckContext ctx = make_ctx(hdr, i++);
    benchmark::DoNotOptimize(algo.on_ack(ctx));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_PowerTcpOnAck(benchmark::State& s) { bench_on_ack<cc::PowerTcp>(s); }
void BM_ThetaPowerTcpOnAck(benchmark::State& s) {
  bench_on_ack<cc::ThetaPowerTcp>(s);
}
void BM_HpccOnAck(benchmark::State& s) { bench_on_ack<cc::Hpcc>(s); }
void BM_DcqcnOnAck(benchmark::State& s) { bench_on_ack<cc::Dcqcn>(s); }
void BM_TimelyOnAck(benchmark::State& s) { bench_on_ack<cc::Timely>(s); }
void BM_DctcpOnAck(benchmark::State& s) { bench_on_ack<cc::Dctcp>(s); }

void BM_IntStamp(benchmark::State& state) {
  // The switch-side work of §3.6's Tofino component: append one hop
  // record to a packet in flight.
  net::Packet pkt;
  pkt.type = net::PacketType::kData;
  std::int64_t i = 0;
  for (auto _ : state) {
    pkt.int_hdr.clear();
    for (int hop = 0; hop < 5; ++hop) {
      net::IntHopRecord rec;
      rec.qlen_bytes = i;
      rec.tx_bytes = i * 2;
      rec.ts = i * 3;
      rec.bandwidth_bps = 1e11;
      pkt.int_hdr.push(rec);
    }
    benchmark::DoNotOptimize(pkt);
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * 5);
}

void BM_EventLoopScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    int fired = 0;
    for (int i = 0; i < 256; ++i) {
      simulator.schedule_at(i * 1000, [&fired] { ++fired; });
    }
    simulator.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}

BENCHMARK(BM_PowerTcpOnAck);
BENCHMARK(BM_ThetaPowerTcpOnAck);
BENCHMARK(BM_HpccOnAck);
BENCHMARK(BM_DcqcnOnAck);
BENCHMARK(BM_TimelyOnAck);
BENCHMARK(BM_DctcpOnAck);
BENCHMARK(BM_IntStamp);
BENCHMARK(BM_EventLoopScheduleRun);

}  // namespace

BENCHMARK_MAIN();
