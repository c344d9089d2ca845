/// Conservation and accounting invariants under randomized traffic:
/// every payload byte a receiver counts was sent exactly once (no
/// duplication of *new* data), switch byte counters balance, and the
/// shared buffer returns to empty when the network drains.

#include <gtest/gtest.h>

#include "cc/registry.hpp"
#include "net/network.hpp"
#include "sim/rng.hpp"
#include "topo/dumbbell.hpp"
#include "topo/fat_tree.hpp"

namespace powertcp {
namespace {

TEST(Conservation, ReceiverCountsExactlyTheFlowBytes) {
  // Random flow sizes, all algorithms mixed on one bottleneck.
  sim::Simulator simulator;
  net::Network network(simulator);
  topo::DumbbellConfig cfg;
  cfg.n_senders = 6;
  topo::Dumbbell topo(network, cfg);
  cc::FlowParams params;
  params.host_bw = cfg.host_bw;
  params.base_rtt = topo.base_rtt();

  sim::Rng rng(99);
  std::unordered_map<net::FlowId, std::int64_t> sent, received;
  for (int i = 0; i < 6; ++i) {
    const auto id = static_cast<net::FlowId>(i + 1);
    const std::int64_t size = rng.uniform_int(1, 300'000);
    sent[id] = size;
    const auto& name =
        cc::sender_cc_names()[i % cc::sender_cc_names().size()];
    topo.sender(i).start_flow(id, topo.receiver().id(), size,
                              cc::make_factory(name)(params), params,
                              sim::microseconds(rng.uniform_int(0, 100)));
  }
  topo.receiver().set_data_callback(
      [&received](net::FlowId f, std::int64_t b, sim::TimePs) {
        received[f] += b;
      });
  simulator.run_until(sim::milliseconds(40));
  for (const auto& [id, size] : sent) {
    EXPECT_EQ(received[id], size) << "flow " << id;
  }
}

TEST(Conservation, SharedBufferDrainsToZero) {
  sim::Simulator simulator;
  net::Network network(simulator);
  topo::FatTreeConfig cfg = topo::FatTreeConfig::quick();
  topo::FatTree fabric(network, cfg);
  cc::FlowParams params;
  params.host_bw = cfg.host_bw;
  params.base_rtt = fabric.max_base_rtt();

  sim::Rng rng(7);
  const auto factory = cc::make_factory("powertcp");
  for (int i = 0; i < 40; ++i) {
    const int src = static_cast<int>(rng.uniform_int(0, 63));
    int dst = static_cast<int>(rng.uniform_int(0, 63));
    if (dst == src) dst = (dst + 1) % 64;
    fabric.host(src).start_flow(
        static_cast<net::FlowId>(i + 1), fabric.host_node(dst),
        rng.uniform_int(1'000, 400'000), factory(params), params,
        sim::microseconds(rng.uniform_int(0, 500)));
  }
  simulator.run_until(sim::milliseconds(40));
  for (int t = 0; t < fabric.tor_count(); ++t) {
    EXPECT_EQ(fabric.tor(t).shared_buffer().used_bytes(), 0)
        << "tor " << t;
  }
  for (int a = 0; a < fabric.agg_count(); ++a) {
    EXPECT_EQ(fabric.agg(a).shared_buffer().used_bytes(), 0);
  }
}

TEST(Conservation, PortTxBytesMatchArrivalsPlusBacklog) {
  // On an uncongested path, the bottleneck's tx counter equals the
  // bytes that reached the receiver (wire bytes).
  sim::Simulator simulator;
  net::Network network(simulator);
  topo::DumbbellConfig cfg;
  cfg.n_senders = 1;
  topo::Dumbbell topo(network, cfg);
  cc::FlowParams params;
  params.host_bw = cfg.host_bw;
  params.base_rtt = topo.base_rtt();

  std::int64_t payload = 0;
  topo.receiver().set_data_callback(
      [&payload](net::FlowId, std::int64_t b, sim::TimePs) {
        payload += b;
      });
  topo.sender(0).start_flow(1, topo.receiver().id(), 500'000,
                            cc::make_factory("powertcp")(params), params,
                            0);
  simulator.run_until(sim::milliseconds(5));
  EXPECT_EQ(payload, 500'000);
  // 500 packets x 1048 B on the wire, no drops, nothing left queued.
  EXPECT_EQ(topo.bottleneck_port().tx_bytes(), 500 * 1048);
  EXPECT_EQ(topo.bottleneck_port().drops(), 0u);
  EXPECT_EQ(topo.bottleneck_port().queue_bytes(), 0);
}

TEST(MultiBottleneck, PowerTcpReactsToTheWorstHop) {
  // Chain: sender - sw1 -(25G)- sw2 -(10G)- receiver. The second hop
  // is the bottleneck; INT must steer the flow to ~10G with a small
  // queue at sw2 and none at sw1 (paper §3.5: INT reacts to the most
  // bottlenecked link).
  sim::Simulator simulator;
  net::Network network(simulator);
  auto* sw1 = network.add_node<net::Switch>("sw1", net::SwitchConfig{});
  auto* sw2 = network.add_node<net::Switch>("sw2", net::SwitchConfig{});
  auto* snd = network.add_node<host::Host>("snd");
  auto* rcv = network.add_node<host::Host>("rcv");
  network.connect(*snd, *sw1, sim::Bandwidth::gbps(25),
                  sim::microseconds(1));
  const auto mid = network.connect(*sw1, *sw2, sim::Bandwidth::gbps(25),
                                   sim::microseconds(1));
  const auto last = network.connect(*sw2, *rcv, sim::Bandwidth::gbps(10),
                                    sim::microseconds(1));
  network.compute_routes();

  cc::FlowParams params;
  params.host_bw = sim::Bandwidth::gbps(25);
  params.base_rtt = sim::microseconds(12);
  std::int64_t received = 0;
  rcv->set_data_callback(
      [&received](net::FlowId, std::int64_t b, sim::TimePs) {
        received += b;
      });
  snd->start_flow(1, rcv->id(), 1'000'000'000,
                  cc::make_factory("powertcp")(params), params, 0);
  simulator.run_until(sim::milliseconds(5));

  const double gbps = static_cast<double>(received) * 8.0 / 5e-3 / 1e9;
  EXPECT_GT(gbps, 0.8 * 9.5);   // fills the 10G bottleneck...
  EXPECT_LT(gbps, 10.0);        // ...but no more
  EXPECT_EQ(sw1->port(mid.a_port).drops(), 0u);
  EXPECT_EQ(sw2->port(last.a_port).drops(), 0u);
  // The first hop never congests.
  EXPECT_LT(sw1->port(mid.a_port).queue_bytes(), 3'000);
}

}  // namespace
}  // namespace powertcp
