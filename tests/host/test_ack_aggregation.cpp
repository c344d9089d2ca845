/// Receiver-side ack aggregation: in-order progress defers to one
/// cumulative ack per window; anything go-back-N cares about — a
/// non-advancing duplicate (the dup-ack signal), completion, a replay
/// inside the retirement grace window — flushes immediately. ECN marks
/// on deferred packets echo sticky so aggregation never hides a
/// congestion signal.

#include "host/host.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/egress_port.hpp"

namespace powertcp::host {
namespace {

/// Captures every ack the receiver's NIC delivers.
class AckSink final : public net::Node {
 public:
  AckSink(sim::Simulator& simulator, net::NodeId id)
      : net::Node(id, "ack-sink"), sim_(simulator) {}

  void receive(net::Packet&& pkt, int /*in_port*/) override {
    acks.push_back({sim_.now(), std::move(pkt)});
  }

  struct Arrival {
    sim::TimePs t;
    net::Packet pkt;
  };
  std::vector<Arrival> acks;

 private:
  sim::Simulator& sim_;
};

net::Packet data_pkt(net::FlowId flow, std::int64_t seq,
                     std::int64_t message_bytes, std::int64_t ack_echo = 0) {
  net::Packet p;
  p.flow = flow;
  p.type = net::PacketType::kData;
  p.seq = seq;
  p.payload_bytes = 1000;
  p.message_bytes = message_bytes;
  p.ack_seq = ack_echo;
  return p;
}

struct AckAggFixture : ::testing::Test {
  sim::Simulator simulator;
  Host receiver{simulator, 1, "rx"};
  AckSink sink{simulator, 2};

  AckAggFixture() {
    auto port = std::make_unique<net::BasicPort>(
        simulator, sim::Bandwidth::gbps(100), 0,
        std::make_unique<net::FifoQueue>());
    port->set_peer(&sink, 0);
    receiver.attach_port(std::move(port));
  }

  void deliver(net::Packet pkt) { receiver.receive(std::move(pkt), 0); }
};

TEST_F(AckAggFixture, WindowZeroAcksEveryPacket) {
  for (int i = 0; i < 3; ++i) deliver(data_pkt(7, i * 1000, 100'000));
  simulator.run();
  ASSERT_EQ(sink.acks.size(), 3u);
  EXPECT_EQ(sink.acks[2].pkt.ack_seq, 3000);
}

TEST_F(AckAggFixture, InOrderProgressCoalescesToOneCumulativeAck) {
  receiver.set_ack_agg_window(sim::microseconds(10));
  for (int i = 0; i < 4; ++i) deliver(data_pkt(7, i * 1000, 100'000));
  simulator.run_until(sim::microseconds(5));
  EXPECT_EQ(sink.acks.size(), 0u) << "acks deferred inside the window";
  simulator.run();
  ASSERT_EQ(sink.acks.size(), 1u);
  EXPECT_EQ(sink.acks[0].pkt.ack_seq, 4000);
  EXPECT_EQ(sink.acks[0].pkt.type, net::PacketType::kAck);
}

TEST_F(AckAggFixture, DuplicateFlushesImmediatelyForGoBackN) {
  receiver.set_ack_agg_window(sim::microseconds(10));
  deliver(data_pkt(7, 0, 100'000));
  deliver(data_pkt(7, 1000, 100'000));
  // The retransmitted duplicate must produce its dup-ack NOW — go-
  // back-N reads repeated edges as the loss signal — and the deferred
  // cumulative ack is subsumed by it, not sent later.
  deliver(data_pkt(7, 1000, 100'000));
  simulator.run_until(sim::microseconds(1));
  ASSERT_EQ(sink.acks.size(), 1u) << "dup-ack must not wait for the window";
  EXPECT_EQ(sink.acks[0].pkt.ack_seq, 2000);
  simulator.run();
  EXPECT_EQ(sink.acks.size(), 1u) << "deferred ack was subsumed";
}

TEST_F(AckAggFixture, CompletionFlushesImmediately) {
  receiver.set_ack_agg_window(sim::microseconds(10));
  deliver(data_pkt(7, 0, 3000));
  deliver(data_pkt(7, 1000, 3000));
  deliver(data_pkt(7, 2000, 3000));  // completes the 3000-byte flow
  simulator.run_until(sim::microseconds(1));
  ASSERT_EQ(sink.acks.size(), 1u);
  EXPECT_EQ(sink.acks[0].pkt.ack_seq, 3000);
  simulator.run();
  EXPECT_EQ(sink.acks.size(), 1u) << "no stale deferred ack after the flush";
}

TEST_F(AckAggFixture, ReplayInsideGraceWindowGetsImmediateFullAck) {
  // The race the retirement grace period exists for: the sender's RTO
  // replays the tail of a completed flow while the receiver still
  // holds state. The replay is non-advancing AND completing — it must
  // be answered immediately with the full edge, aggregation armed or
  // not, or the sender would stall a whole window on a flow it already
  // finished.
  receiver.set_ack_agg_window(sim::microseconds(10));
  deliver(data_pkt(7, 0, 2000));
  deliver(data_pkt(7, 1000, 2000));  // completes; immediate ack, grace armed
  ASSERT_EQ(receiver.active_receivers(), 1u);
  simulator.run_until(sim::microseconds(500));  // well inside kReceiverGrace
  ASSERT_EQ(sink.acks.size(), 1u);
  deliver(data_pkt(7, 1000, 2000, /*ack_echo=*/1000));  // the RTO replay
  simulator.run_until(sim::microseconds(501));
  ASSERT_EQ(sink.acks.size(), 2u) << "replay answered without deferral";
  EXPECT_EQ(sink.acks[1].pkt.ack_seq, 2000);
  EXPECT_EQ(receiver.active_receivers(), 1u) << "state retained for grace";
  simulator.run();
  EXPECT_EQ(receiver.active_receivers(), 0u) << "state retired after grace";
  EXPECT_EQ(sink.acks.size(), 2u);
}

TEST_F(AckAggFixture, EcnEchoIsStickyAcrossDeferredPackets) {
  receiver.set_ack_agg_window(sim::microseconds(10));
  net::Packet marked = data_pkt(7, 0, 100'000);
  marked.ecn_marked = true;
  deliver(std::move(marked));
  deliver(data_pkt(7, 1000, 100'000));  // unmarked, becomes the template
  simulator.run();
  ASSERT_EQ(sink.acks.size(), 1u);
  EXPECT_TRUE(sink.acks[0].pkt.ecn_echo)
      << "a deferred CE mark must survive into the cumulative ack";
}

TEST_F(AckAggFixture, FlushTimerReArmsForLaterProgress) {
  receiver.set_ack_agg_window(sim::microseconds(10));
  deliver(data_pkt(7, 0, 100'000));
  simulator.run_until(sim::microseconds(50));
  ASSERT_EQ(sink.acks.size(), 1u);
  EXPECT_EQ(sink.acks[0].pkt.ack_seq, 1000);
  // New progress after a quiet gap opens a fresh window.
  deliver(data_pkt(7, 1000, 100'000));
  simulator.run();
  ASSERT_EQ(sink.acks.size(), 2u);
  EXPECT_EQ(sink.acks[1].pkt.ack_seq, 2000);
}

}  // namespace
}  // namespace powertcp::host
