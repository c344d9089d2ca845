#include "host/flow.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "cc/registry.hpp"
#include "host/host.hpp"
#include "net/network.hpp"
#include "topo/dumbbell.hpp"

namespace powertcp::host {
namespace {

struct FlowFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator};
  topo::DumbbellConfig cfg;

  std::unique_ptr<topo::Dumbbell> topo;
  cc::FlowParams params;

  void build(int senders = 2) {
    cfg.n_senders = senders;
    topo = std::make_unique<topo::Dumbbell>(network, cfg);
    params.host_bw = cfg.host_bw;
    params.base_rtt = topo->base_rtt();
    params.expected_flows = 4;
  }

  FlowSender& start(int sender, net::FlowId id, std::int64_t size,
                    const std::string& algo = "powertcp",
                    sim::TimePs at = 0,
                    CompletionCallback cb = nullptr) {
    const cc::CcFactory f = cc::make_factory(algo);
    return topo->sender(sender).start_flow(id, topo->receiver().id(), size,
                                           f(params), params, at,
                                           std::move(cb));
  }
};

TEST_F(FlowFixture, SingleFlowCompletesAndReportsFct) {
  build();
  FlowCompletion done{};
  start(0, 1, 100'000, "powertcp", sim::microseconds(5),
        [&done](const FlowCompletion& c) { done = c; });
  simulator.run_until(sim::milliseconds(5));
  EXPECT_EQ(done.flow, 1u);
  EXPECT_EQ(done.size_bytes, 100'000);
  EXPECT_EQ(done.start, sim::microseconds(5));
  // Must take at least the line-rate transfer time plus one RTT.
  const sim::TimePs floor_fct =
      cfg.host_bw.tx_time(100'000) + topo->base_rtt();
  EXPECT_GE(done.finish - done.start, floor_fct);
  // ... and shouldn't take more than 2x that in an idle network.
  EXPECT_LE(done.finish - done.start, 2 * floor_fct);
}

TEST_F(FlowFixture, ReachesLineRateGoodput) {
  build();
  std::int64_t received = 0;
  topo->receiver().set_data_callback(
      [&received](net::FlowId, std::int64_t bytes, sim::TimePs) {
        received += bytes;
      });
  start(0, 1, 10'000'000);
  simulator.run_until(sim::milliseconds(4));
  // 25G * (1000/1048 goodput share) over 4 ms ~ 11.4 MB >= flow size;
  // the flow must be done.
  EXPECT_EQ(received, 10'000'000);
}

TEST_F(FlowFixture, InflightNeverExceedsWindowPlusOnePacket) {
  build();
  start(0, 1, 5'000'000);
  bool violated = false;
  std::function<void()> probe = [&] {
    // Look the sender up each probe: the host sweeps it at completion.
    if (FlowSender* s = topo->sender(0).sender(1);
        s != nullptr && s->started() && !s->complete()) {
      if (static_cast<double>(s->inflight_bytes()) >
          std::max(s->cwnd_bytes(), 1048.0) + 1048.0) {
        violated = true;
      }
    }
    if (simulator.now() < sim::milliseconds(2)) {
      simulator.schedule_in(sim::microseconds(1), probe);
    }
  };
  simulator.schedule_at(0, probe);
  simulator.run_until(sim::milliseconds(2));
  EXPECT_FALSE(violated);
}

TEST_F(FlowFixture, CompletionCallbackFiresExactlyOnce) {
  build();
  int completions = 0;
  start(0, 1, 50'000, "powertcp", 0,
        [&completions](const FlowCompletion&) { ++completions; });
  simulator.run_until(sim::milliseconds(3));
  EXPECT_EQ(completions, 1);
}

TEST_F(FlowFixture, RecoversFromDropsViaGoBackN) {
  // Shrink the switch buffer so the initial line-rate burst overflows.
  cfg.buffer_bytes = 20'000;
  build(4);
  int completions = 0;
  for (int i = 0; i < 4; ++i) {
    start(i, static_cast<net::FlowId>(i + 1), 200'000, "powertcp", 0,
          [&completions](const FlowCompletion&) { ++completions; });
  }
  simulator.run_until(sim::milliseconds(50));
  EXPECT_GT(topo->bottleneck_switch().total_drops(), 0u);
  EXPECT_EQ(completions, 4) << "all flows must finish despite drops";
}

TEST_F(FlowFixture, TwoFlowsShareFairly) {
  build(2);
  std::array<std::int64_t, 2> got{0, 0};
  topo->receiver().set_data_callback(
      [&got](net::FlowId f, std::int64_t bytes, sim::TimePs) {
        got.at(f - 1) += bytes;
      });
  start(0, 1, 400'000'000);
  start(1, 2, 400'000'000);
  simulator.run_until(sim::milliseconds(8));
  const double ratio = static_cast<double>(got[0]) /
                       static_cast<double>(std::max<std::int64_t>(got[1], 1));
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.4);
}

TEST_F(FlowFixture, DistinctFlowsOnOneHostAreIndependent) {
  build(1);
  int completions = 0;
  start(0, 1, 30'000, "powertcp", 0,
        [&completions](const FlowCompletion&) { ++completions; });
  start(0, 2, 30'000, "powertcp", 0,
        [&completions](const FlowCompletion&) { ++completions; });
  EXPECT_NE(topo->sender(0).sender(1), nullptr);
  EXPECT_NE(topo->sender(0).sender(2), nullptr);
  EXPECT_EQ(topo->sender(0).sender(3), nullptr);
  simulator.run_until(sim::milliseconds(3));
  EXPECT_EQ(completions, 2);
}

TEST_F(FlowFixture, DuplicateFlowIdThrows) {
  build(1);
  start(0, 1, 1000);
  EXPECT_THROW(start(0, 1, 1000), std::invalid_argument);
}

TEST_F(FlowFixture, EveryAlgorithmCompletesASmallFlow) {
  build(1);
  int completions = 0;
  net::FlowId id = 1;
  for (const auto& name : cc::sender_cc_names()) {
    start(0, id++, 20'000, name, 0,
          [&completions](const FlowCompletion&) { ++completions; });
  }
  simulator.run_until(sim::milliseconds(20));
  EXPECT_EQ(completions, static_cast<int>(cc::sender_cc_names().size()));
}

TEST_F(FlowFixture, SubMssFlowCompletes) {
  build(1);
  int completions = 0;
  start(0, 1, 1, "powertcp", 0,
        [&completions](const FlowCompletion&) { ++completions; });
  simulator.run_until(sim::milliseconds(1));
  EXPECT_EQ(completions, 1);
}

TEST_F(FlowFixture, DataPacketAndItsAckShareOneSlabSlot) {
  // The receiver turns the data packet's slot into its ACK, so a
  // one-packet flow never holds more than one slab slot.
  build(1);
  net::PacketPool& slab = network.slab();
  std::size_t peak_live = 0;
  topo->receiver().set_data_callback(
      [&](net::FlowId, std::int64_t, sim::TimePs) {
        peak_live = std::max(peak_live, slab.live());
      });
  std::function<void()> probe = [&] {
    peak_live = std::max(peak_live, slab.live());
    if (simulator.now() < sim::microseconds(50)) {
      simulator.schedule_in(sim::nanoseconds(10), probe);
    }
  };
  simulator.schedule_at(0, probe);
  int completions = 0;
  start(0, 1, 500, "powertcp", 0,
        [&completions](const FlowCompletion&) { ++completions; });
  simulator.run_until(sim::milliseconds(1));
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(peak_live, 1u);
  EXPECT_EQ(slab.capacity(), 1u);
  EXPECT_EQ(slab.live(), 0u);
}

/// Keeps a copy of every packet it receives, with its slab slot.
class CaptureNode : public net::Node {
 public:
  CaptureNode(sim::Simulator&, net::PacketPool& slab, net::NodeId id)
      : Node(slab, id, "capture") {}

  void receive(net::PacketPool::Handle h, int /*in_port*/) override {
    slots.push_back(h.index);
    packets.push_back(slab().get(h));
    slab().release(h);
  }

  std::vector<std::uint32_t> slots;
  std::vector<net::Packet> packets;
};

TEST_F(FlowFixture, SendOneResetsARecycledAckSlot) {
  // The sender's first packet reuses the slot a 5-hop ECN-echo ACK
  // just left: every field send_one does not write reads as in a fresh
  // Packet, and the INT stack is empty.
  Host* host = network.add_node<Host>("host");
  auto* sink = network.add_node<CaptureNode>();
  network.connect(*host, *sink, cfg.host_bw, sim::microseconds(1));
  net::PacketPool& slab = network.slab();
  net::Packet stale;
  stale.flow = 99;
  stale.src = 5;
  stale.dst = 6;
  stale.seq = 4000;
  stale.payload_bytes = 1000;
  stale.header_bytes = 77;
  stale.ecn_capable = false;
  stale.ecn_marked = true;
  for (int i = 0; i < 5; ++i) {
    net::IntHopRecord rec;
    rec.qlen_bytes = 1000 * (i + 1);
    stale.int_hdr.push(rec);
  }
  stale.grant_offset = 12;
  stale.message_bytes = 50'000;
  stale.sent_time = sim::microseconds(3);
  stale.enqueue_time = sim::microseconds(4);
  net::turn_into_ack(stale, 5000);
  stale.priority = 4;
  ASSERT_TRUE(stale.ecn_echo);
  const net::PacketPool::Handle old = slab.put(std::move(stale));
  slab.release(old);

  const cc::CcFactory f = cc::make_factory("powertcp");
  params.host_bw = cfg.host_bw;
  params.base_rtt = sim::microseconds(10);
  host->start_flow(1, sink->id(), 3000, f(params), params,
                   sim::microseconds(1));
  simulator.run_until(sim::microseconds(5));
  ASSERT_FALSE(sink->packets.empty());
  EXPECT_EQ(sink->slots.front(), old.index);
  const net::Packet& pkt = sink->packets.front();
  const net::Packet fresh;
  // What the send path writes.
  EXPECT_EQ(pkt.flow, 1u);
  EXPECT_EQ(pkt.src, host->id());
  EXPECT_EQ(pkt.dst, sink->id());
  EXPECT_EQ(pkt.type, net::PacketType::kData);
  EXPECT_EQ(pkt.seq, 0);
  EXPECT_EQ(pkt.payload_bytes, params.mss);
  EXPECT_EQ(pkt.message_bytes, 3000);
  EXPECT_EQ(pkt.ack_seq, 0);
  EXPECT_EQ(pkt.sent_time, sim::microseconds(1));
  EXPECT_EQ(pkt.enqueue_time, sim::microseconds(1));
  // Everything else is a fresh packet's.
  EXPECT_EQ(pkt.header_bytes, fresh.header_bytes);
  EXPECT_EQ(pkt.ecn_capable, fresh.ecn_capable);
  EXPECT_EQ(pkt.ecn_marked, fresh.ecn_marked);
  EXPECT_EQ(pkt.ecn_echo, fresh.ecn_echo);
  EXPECT_EQ(pkt.int_hdr.size(), 0);
  EXPECT_EQ(pkt.priority, fresh.priority);
  EXPECT_EQ(pkt.grant_offset, fresh.grant_offset);
}

TEST_F(FlowFixture, SendWithoutNicFreesItsSlot) {
  // A host whose NIC was never connected cannot send: the ACK a data
  // packet turns into and a sender's first data packet both fail with
  // the NIC error, and neither leaves its slab slot behind.
  Host* lonely = network.add_node<Host>("lonely");
  net::PacketPool& slab = network.slab();
  net::Packet data;
  data.type = net::PacketType::kData;
  data.flow = 9;
  data.payload_bytes = 100;
  data.message_bytes = 100;
  EXPECT_THROW(lonely->receive(slab.put(std::move(data)), 0),
               std::logic_error);
  EXPECT_EQ(slab.live(), 0u);

  const cc::CcFactory f = cc::make_factory("powertcp");
  params.host_bw = cfg.host_bw;
  params.base_rtt = sim::microseconds(10);
  lonely->start_flow(1, 0, 1000, f(params), params, 0);
  EXPECT_THROW(simulator.run_until(sim::microseconds(1)), std::logic_error);
  EXPECT_EQ(slab.live(), 0u);
}

}  // namespace
}  // namespace powertcp::host
