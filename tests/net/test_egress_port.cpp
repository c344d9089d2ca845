#include "net/egress_port.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/node.hpp"

namespace powertcp::net {
namespace {

/// Records every packet it receives with the arrival time.
class SinkNode : public Node {
 public:
  SinkNode(sim::Simulator& simulator, PacketPool& slab, NodeId id)
      : Node(slab, id, "sink"), sim_(simulator) {}

  void receive(PacketPool::Handle h, int in_port) override {
    arrivals.push_back({sim_.now(), slab().get(h), in_port});
    slab().release(h);
  }

  struct Arrival {
    sim::TimePs t;
    Packet pkt;
    int in_port;
  };
  std::vector<Arrival> arrivals;

 private:
  sim::Simulator& sim_;
};

Packet data_pkt(FlowId flow, std::int32_t payload) {
  Packet p;
  p.flow = flow;
  p.type = PacketType::kData;
  p.payload_bytes = payload;
  return p;
}

struct PortFixture : ::testing::Test {
  sim::Simulator simulator;
  PacketPool slab;
  SinkNode sink{simulator, slab, 0};

  std::unique_ptr<FifoPort> make_port(sim::Bandwidth bw, sim::TimePs prop) {
    auto port = std::make_unique<FifoPort>(simulator, slab, bw, prop);
    port->set_peer(&sink, 3);
    return port;
  }
};

TEST_F(PortFixture, DeliversAfterSerializationPlusPropagation) {
  auto port = make_port(sim::Bandwidth::gbps(25), sim::microseconds(1));
  port->enqueue(slab.put(data_pkt(1, 1000)));
  simulator.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  // 1048 B at 25 Gbps = 335.36 ns; + 1 us propagation.
  EXPECT_EQ(sink.arrivals[0].t,
            sim::Bandwidth::gbps(25).tx_time(1048) + sim::microseconds(1));
  EXPECT_EQ(sink.arrivals[0].in_port, 3);
}

TEST_F(PortFixture, BackToBackPacketsSpacedBySerialization) {
  auto port = make_port(sim::Bandwidth::gbps(10), 0);
  port->enqueue(slab.put(data_pkt(1, 952)));  // 1000 B wire = 800 ns at 10G
  port->enqueue(slab.put(data_pkt(2, 952)));
  simulator.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[1].t - sink.arrivals[0].t,
            sim::Bandwidth::gbps(10).tx_time(1000));
}

TEST_F(PortFixture, IntStampedAtDequeueWithBacklogLeftBehind) {
  auto port = make_port(sim::Bandwidth::gbps(10), 0);
  port->set_int_enabled(true);
  // Packet 1 starts serializing immediately; 2 and 3 queue behind it.
  port->enqueue(slab.put(data_pkt(1, 952)));
  port->enqueue(slab.put(data_pkt(2, 952)));
  port->enqueue(slab.put(data_pkt(3, 952)));
  simulator.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  const IntHeader& h1 = sink.arrivals[0].pkt.int_hdr;
  const IntHeader& h2 = sink.arrivals[1].pkt.int_hdr;
  const IntHeader& h3 = sink.arrivals[2].pkt.int_hdr;
  ASSERT_EQ(h1.size(), 1);
  // Packet 1 dequeued with an empty backlog (2 and 3 arrived after its
  // transmission began); packet 2 left packet 3 behind; packet 3 none.
  EXPECT_EQ(h1.hop(0).qlen_bytes, 0);
  EXPECT_EQ(h2.hop(0).qlen_bytes, 1000);
  EXPECT_EQ(h3.hop(0).qlen_bytes, 0);
  // txBytes counts bytes before each packet.
  EXPECT_EQ(h1.hop(0).tx_bytes, 0);
  EXPECT_EQ(h2.hop(0).tx_bytes, 1000);
  EXPECT_EQ(h3.hop(0).tx_bytes, 2000);
  EXPECT_EQ(h1.hop(0).bandwidth_bps, 10e9);
  // Timestamps are the dequeue instants, one serialization apart.
  EXPECT_EQ(h2.hop(0).ts - h1.hop(0).ts,
            sim::Bandwidth::gbps(10).tx_time(1000));
}

TEST_F(PortFixture, AcksAreNeverIntStamped) {
  auto port = make_port(sim::Bandwidth::gbps(10), 0);
  port->set_int_enabled(true);
  Packet ack;
  ack.type = PacketType::kAck;
  IntHopRecord echo;
  echo.qlen_bytes = 42;
  ack.int_hdr.push(echo);  // pretend echo from the data path
  port->enqueue(slab.put(std::move(ack)));
  simulator.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  // The echoed record must pass through untouched.
  ASSERT_EQ(sink.arrivals[0].pkt.int_hdr.size(), 1);
  EXPECT_EQ(sink.arrivals[0].pkt.int_hdr.hop(0).qlen_bytes, 42);
}

TEST_F(PortFixture, IntDisabledStampsNothing) {
  auto port = make_port(sim::Bandwidth::gbps(10), 0);
  port->enqueue(slab.put(data_pkt(1, 1000)));
  simulator.run();
  EXPECT_TRUE(sink.arrivals[0].pkt.int_hdr.empty());
}

TEST_F(PortFixture, SharedBufferDropsWhenFull) {
  auto port = make_port(sim::Bandwidth::mbps(1), 0);  // slow drain
  DtSharedBuffer buf(3'000, 10.0);
  port->set_shared_buffer(&buf);
  int admitted = 0;
  for (int i = 0; i < 5; ++i) {
    if (port->enqueue(slab.put(data_pkt(static_cast<FlowId>(i), 952)))) {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, 3);  // 3 x 1000 B fit, rest dropped
  EXPECT_EQ(port->drops(), 2u);
  simulator.run();
  EXPECT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(buf.used_bytes(), 0);  // all released after transmission
}

TEST_F(PortFixture, EcnStepMarkingAboveThreshold) {
  auto port = make_port(sim::Bandwidth::mbps(1), 0);
  EcnConfig ecn;
  ecn.enabled = true;
  ecn.kmin_bytes = 1'500;  // step profile
  ecn.kmax_bytes = 1'500;
  port->set_ecn(ecn, 1);
  for (int i = 0; i < 5; ++i) {
    port->enqueue(slab.put(data_pkt(static_cast<FlowId>(i), 952)));
  }
  simulator.run();
  ASSERT_EQ(sink.arrivals.size(), 5u);
  // Packet 0 went straight into service; packets 1,2 arrived to
  // backlogs of 0 and 1000 bytes (<= 1500): unmarked.
  EXPECT_FALSE(sink.arrivals[0].pkt.ecn_marked);
  EXPECT_FALSE(sink.arrivals[1].pkt.ecn_marked);
  EXPECT_FALSE(sink.arrivals[2].pkt.ecn_marked);
  // Packets 3,4 arrived to 2000, 3000 (> 1500): marked.
  EXPECT_TRUE(sink.arrivals[3].pkt.ecn_marked);
  EXPECT_TRUE(sink.arrivals[4].pkt.ecn_marked);
}

TEST_F(PortFixture, EcnIgnoresNonCapablePackets) {
  auto port = make_port(sim::Bandwidth::mbps(1), 0);
  EcnConfig ecn;
  ecn.enabled = true;
  ecn.kmin_bytes = 0;
  ecn.kmax_bytes = 0;
  port->set_ecn(ecn, 1);
  // Queue 0: at the threshold boundary.
  port->enqueue(slab.put(data_pkt(1, 952)));
  Packet p = data_pkt(2, 952);
  p.ecn_capable = false;
  port->enqueue(slab.put(std::move(p)));
  simulator.run();
  EXPECT_FALSE(sink.arrivals[1].pkt.ecn_marked);
}

TEST_F(PortFixture, SojournCallbackMeasuresWaiting) {
  auto port = make_port(sim::Bandwidth::gbps(10), 0);
  std::vector<sim::TimePs> sojourns;
  port->set_sojourn_callback(
      [&sojourns](sim::TimePs d) { sojourns.push_back(d); });
  port->enqueue(slab.put(data_pkt(1, 952)));
  port->enqueue(slab.put(data_pkt(2, 952)));
  simulator.run();
  ASSERT_EQ(sojourns.size(), 2u);
  EXPECT_EQ(sojourns[0], 0);  // started immediately
  EXPECT_EQ(sojourns[1], sim::Bandwidth::gbps(10).tx_time(1000));
}

TEST_F(PortFixture, QueueMonitorSeesPeaks) {
  auto port = make_port(sim::Bandwidth::mbps(1), 0);
  stats::QueueSeries series;
  port->set_queue_monitor(&series);
  for (int i = 0; i < 3; ++i) {
    port->enqueue(slab.put(data_pkt(static_cast<FlowId>(i), 952)));
  }
  simulator.run();
  EXPECT_EQ(series.max_bytes(), 2000);  // two packets behind the in-flight one
}

TEST_F(PortFixture, TxCountersAccumulate) {
  auto port = make_port(sim::Bandwidth::gbps(10), 0);
  port->enqueue(slab.put(data_pkt(1, 952)));
  port->enqueue(slab.put(data_pkt(2, 452)));
  simulator.run();
  EXPECT_EQ(port->tx_packets(), 2u);
  EXPECT_EQ(port->tx_bytes(), 1000 + 500);
}

// ---------------------------------------------------------------------
// Elided serialization finishes: a finish that would find an empty
// backlog only reserves its key. Every reader of the state it would
// have changed must see that change exactly at the key.
// ---------------------------------------------------------------------

/// Live events in the engine (heap entries other than tombstones).
std::size_t live_events(const sim::Simulator& s) {
  return s.slot_count() - s.free_slot_count();
}

TEST_F(PortFixture, IdlePortLeavesOneEngineEntryPerPacket) {
  auto a = make_port(sim::Bandwidth::gbps(10), sim::microseconds(1));
  auto b = make_port(sim::Bandwidth::gbps(10), sim::microseconds(1));
  a->enqueue(slab.put(data_pkt(1, 952)));
  EXPECT_EQ(live_events(simulator), 1u);  // the delivery; no finish
  b->enqueue(slab.put(data_pkt(2, 952)));
  EXPECT_EQ(live_events(simulator), 2u);
  EXPECT_EQ(simulator.tombstones(), 0u);
  simulator.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  // Two deliveries ran; both finishes were elided but still count.
  EXPECT_EQ(simulator.events_elided(), 2u);
  EXPECT_EQ(simulator.events_executed(), 4u);
  EXPECT_FALSE(a->busy());
  EXPECT_FALSE(b->busy());
}

/// Runs packet 1 onto an idle 10G port at time 0, then packets 2 and 3
/// from one event at packet 1's finish instant, keyed before or after
/// the finish's reserved key. Returns packet 2's INT queue length.
std::int64_t second_packet_backlog(bool before_finish) {
  sim::Simulator simulator;
  PacketPool slab;
  SinkNode sink(simulator, slab, 0);
  FifoPort port(simulator, slab, sim::Bandwidth::gbps(10), 0);
  port.set_peer(&sink, 0);
  port.set_int_enabled(true);
  const sim::TimePs finish = sim::Bandwidth::gbps(10).tx_time(1000);
  const auto burst = [&] {
    port.enqueue(slab.put(data_pkt(2, 952)));
    port.enqueue(slab.put(data_pkt(3, 952)));
  };
  // Same (time, sched): the scheduling order against packet 1's
  // start_tx decides which side of the finish's key the burst lands.
  if (before_finish) simulator.schedule_at(finish, burst);
  port.enqueue(slab.put(data_pkt(1, 952)));
  if (!before_finish) simulator.schedule_at(finish, burst);
  simulator.run();
  EXPECT_EQ(sink.arrivals.size(), 3u);
  // Packet 2 leaves at the finish instant either way.
  EXPECT_EQ(sink.arrivals.at(1).pkt.int_hdr.hop(0).ts, finish);
  // Before its key the finish becomes a real event; after it, elided.
  EXPECT_EQ(simulator.events_elided(), before_finish ? 1u : 2u);
  // The burst, three deliveries and three finishes.
  EXPECT_EQ(simulator.events_executed(), 7u);
  return sink.arrivals.at(1).pkt.int_hdr.hop(0).qlen_bytes;
}

TEST(ElidedFinish, SamePicosecondEnqueuesSortAroundTheReservedKey) {
  // Before the finish: both packets queue, and the finish starts packet
  // 2 with packet 3 behind it. After: the wire is already idle, so
  // packet 2 starts at its own enqueue, before packet 3 arrives.
  EXPECT_EQ(second_packet_backlog(true), 1000);
  EXPECT_EQ(second_packet_backlog(false), 0);
}

/// Fills a 1500-byte shared buffer with packet 1 on port A, then offers
/// a sibling port B a 1000-byte packet at A's finish instant, keyed
/// before or after A's elided finish. Returns whether B admitted it.
bool sibling_admitted(bool before_release) {
  sim::Simulator simulator;
  PacketPool slab;
  SinkNode sink(simulator, slab, 0);
  DtSharedBuffer buf(1'500, 10.0);
  FifoPort a(simulator, slab, sim::Bandwidth::gbps(10), 0);
  FifoPort b(simulator, slab, sim::Bandwidth::gbps(10), 0);
  a.set_peer(&sink, 0);
  b.set_peer(&sink, 1);
  a.set_shared_buffer(&buf);
  b.set_shared_buffer(&buf);
  const sim::TimePs finish = sim::Bandwidth::gbps(10).tx_time(1000);
  bool admitted = false;
  const auto offer = [&] { admitted = b.enqueue(slab.put(data_pkt(2, 952))); };
  if (before_release) simulator.schedule_at(finish, offer);
  EXPECT_TRUE(a.enqueue(slab.put(data_pkt(1, 952))));
  EXPECT_EQ(buf.used_bytes(), 1000);
  if (!before_release) simulator.schedule_at(finish, offer);
  simulator.run();
  EXPECT_EQ(buf.used_bytes(), 0);
  EXPECT_GE(simulator.events_elided(), 1u);  // A's finish never ran
  return admitted;
}

TEST(ElidedFinish, SiblingAdmissionSeesTheReleaseExactlyAtItsKey) {
  EXPECT_FALSE(sibling_admitted(true));  // 500 B free: dropped
  EXPECT_TRUE(sibling_admitted(false));  // released first: admitted
}

TEST_F(PortFixture, BusyFlipsExactlyAtTheReservedKey) {
  auto port = make_port(sim::Bandwidth::gbps(10), sim::microseconds(1));
  const sim::TimePs finish = sim::Bandwidth::gbps(10).tx_time(1000);
  std::vector<bool> seen;
  const auto probe = [&] { seen.push_back(port->busy()); };
  simulator.schedule_at(finish, probe);
  port->enqueue(slab.put(data_pkt(1, 952)));
  simulator.schedule_at(finish, probe);
  EXPECT_TRUE(port->busy());
  simulator.run_until(finish - 1);
  EXPECT_TRUE(port->busy());
  simulator.run_until(finish);
  EXPECT_FALSE(port->busy());
  EXPECT_EQ(seen, (std::vector<bool>{true, false}));
  simulator.run();
  EXPECT_EQ(sink.arrivals.size(), 1u);
}

TEST_F(PortFixture, PortDestroyedMidSerializationLeavesNothingInTheEngine) {
  // Elided finish: the delivery scheduled at start_tx goes with it.
  auto idle = make_port(sim::Bandwidth::gbps(10), sim::microseconds(1));
  idle->enqueue(slab.put(data_pkt(1, 952)));
  // Scheduled finish: a backlog made the finish a real event.
  auto backlogged = make_port(sim::Bandwidth::gbps(10), sim::microseconds(1));
  backlogged->enqueue(slab.put(data_pkt(2, 952)));
  backlogged->enqueue(slab.put(data_pkt(3, 952)));
  EXPECT_EQ(live_events(simulator), 3u);
  idle.reset();
  backlogged.reset();
  EXPECT_FALSE(simulator.pending());
  simulator.run();
  EXPECT_TRUE(sink.arrivals.empty());
  EXPECT_EQ(simulator.events_executed(), 0u);
  EXPECT_EQ(simulator.events_elided(), 0u);
}

}  // namespace
}  // namespace powertcp::net
