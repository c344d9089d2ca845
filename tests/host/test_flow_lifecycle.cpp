/// Per-flow state lifecycle at short-flow churn scale: completed
/// senders are swept from Host::senders_, receiver state retires after
/// the quiet grace period, simulator slots/tombstones recycle, and
/// destructors cancel armed timers so teardown mid-run cannot dangle.

#include <gtest/gtest.h>

#include <memory>

#include "cc/registry.hpp"
#include "host/flow.hpp"
#include "net/aqm.hpp"
#include "host/host.hpp"
#include "net/network.hpp"
#include "topo/dumbbell.hpp"

namespace powertcp::host {
namespace {

/// Wraps a law and records what the sender did with it: acks seen, the
/// last ack that made progress, and when the first timeout fired.
class ProbeCc final : public cc::CcAlgorithm {
 public:
  struct Record {
    std::uint64_t acks = 0;
    sim::TimePs last_progress = -1;
    sim::TimePs first_timeout = -1;
  };
  ProbeCc(std::unique_ptr<cc::CcAlgorithm> inner, const sim::Simulator& sim,
          Record& rec)
      : inner_(std::move(inner)), sim_(sim), rec_(rec) {}

  cc::CcDecision initial() const override { return inner_->initial(); }
  cc::CcDecision on_ack(const cc::AckContext& ctx) override {
    ++rec_.acks;
    if (ctx.acked_bytes > 0) rec_.last_progress = ctx.now;
    return inner_->on_ack(ctx);
  }
  void on_timeout() override {
    if (rec_.first_timeout < 0) rec_.first_timeout = sim_.now();
    inner_->on_timeout();
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<cc::CcAlgorithm> inner_;
  const sim::Simulator& sim_;
  Record& rec_;
};

/// Drops every packet offered to its port: a blackholed link.
class BlackholeAqm final : public net::Aqm {
 public:
  net::AqmVerdict on_enqueue(std::int64_t, bool, sim::TimePs) override {
    return net::AqmVerdict{false, true};
  }
  const char* kind() const override { return "blackhole"; }
};

struct LifecycleFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator};
  topo::DumbbellConfig cfg;
  std::unique_ptr<topo::Dumbbell> topo;
  cc::FlowParams params;
  cc::CcFactory factory = cc::make_factory("powertcp");

  void build(int senders = 2) {
    cfg.n_senders = senders;
    topo = std::make_unique<topo::Dumbbell>(network, cfg);
    params.host_bw = cfg.host_bw;
    params.base_rtt = topo->base_rtt();
    params.expected_flows = 8;
  }
};

TEST_F(LifecycleFixture, CompletedFlowStateReturnsToBaselineAfter10kFlows) {
  build(2);
  // 10 waves x 1000 flows of 5 KB across two senders. Waves are spaced
  // so each drains before the next; the final run extends past the
  // receiver grace period so retirement timers fire.
  constexpr int kWaves = 10;
  constexpr int kFlowsPerWave = 1000;
  constexpr std::int64_t kFlowBytes = 5'000;
  int completions = 0;
  net::FlowId next_id = 1;
  std::size_t slots_after_wave3 = 0;
  for (int wave = 0; wave < kWaves; ++wave) {
    const sim::TimePs wave_start = simulator.now();
    for (int i = 0; i < kFlowsPerWave; ++i) {
      topo->sender(i % 2).start_flow(
          next_id++, topo->receiver().id(), kFlowBytes, factory(params),
          params, wave_start + sim::microseconds(i / 4),
          [&completions](const FlowCompletion&) { ++completions; });
    }
    simulator.run_until(wave_start + sim::milliseconds(5));
    // Senders sweep at completion (no grace): the table must be empty
    // the moment the wave's flows are done.
    EXPECT_EQ(topo->sender(0).active_senders(), 0u) << "wave " << wave;
    EXPECT_EQ(topo->sender(1).active_senders(), 0u) << "wave " << wave;
    if (wave == 3) slots_after_wave3 = simulator.slot_count();
  }
  EXPECT_EQ(completions, kWaves * kFlowsPerWave);

  // Quiet period: receiver retirement fires, every timer drains.
  simulator.run();
  EXPECT_EQ(topo->receiver().active_receivers(), 0u)
      << "receiver state must retire after the grace period";
  EXPECT_EQ(topo->sender(0).active_receivers(), 0u);
  EXPECT_FALSE(simulator.pending());
  EXPECT_EQ(simulator.tombstones(), 0u);
  // Slot table is a high-water structure: identical waves must not grow
  // it after it stabilizes — flat per-flow memory at churn scale.
  ASSERT_GT(slots_after_wave3, 0u);
  EXPECT_LE(simulator.slot_count(), slots_after_wave3 * 2)
      << "slot table kept growing across identical waves (leak)";
  EXPECT_EQ(simulator.free_slot_count(), simulator.slot_count())
      << "every slot must be recycled once the run drains";
}

TEST_F(LifecycleFixture, SenderIsSweptAtCompletionAndIdBecomesReusable) {
  build(1);
  std::int64_t delivered = 0;
  topo->receiver().set_data_callback(
      [&delivered](net::FlowId, std::int64_t bytes, sim::TimePs) {
        delivered += bytes;
      });
  int completions = 0;
  topo->sender(0).start_flow(
      7, topo->receiver().id(), 50'000, factory(params), params, 0,
      [&completions](const FlowCompletion&) { ++completions; });
  EXPECT_NE(topo->sender(0).sender(7), nullptr);
  simulator.run_until(sim::milliseconds(2));
  ASSERT_EQ(completions, 1);
  EXPECT_EQ(delivered, 50'000);
  EXPECT_EQ(topo->sender(0).sender(7), nullptr) << "completed flow swept";
  EXPECT_EQ(topo->sender(0).active_senders(), 0u);
  // The swept id is free for a new flow (previously: permanent
  // duplicate-id error because completed senders were never erased).
  // Reused inside the receiver grace period with a different size: the
  // receiver detects the new incarnation, resets the stale state, and
  // the bytes are genuinely delivered (not phantom-acked off the old
  // cumulative edge).
  topo->sender(0).start_flow(
      7, topo->receiver().id(), 80'000, factory(params), params,
      simulator.now(),
      [&completions](const FlowCompletion&) { ++completions; });
  simulator.run_until(simulator.now() + sim::milliseconds(2));
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(delivered, 130'000) << "reused id must deliver real bytes";
  // Reuse after the grace period (state retired) is clean for any size,
  // including the same size as the original flow.
  simulator.run_until(simulator.now() + 2 * Host::kReceiverGrace);
  ASSERT_EQ(topo->receiver().active_receivers(), 0u);
  topo->sender(0).start_flow(
      7, topo->receiver().id(), 50'000, factory(params), params,
      simulator.now(),
      [&completions](const FlowCompletion&) { ++completions; });
  simulator.run_until(simulator.now() + sim::milliseconds(2));
  EXPECT_EQ(completions, 3);
  EXPECT_EQ(delivered, 180'000);
}

TEST_F(LifecycleFixture, ReceiverStateRetiresAfterGracePeriodOnly) {
  build(1);
  int completions = 0;
  topo->sender(0).start_flow(
      1, topo->receiver().id(), 20'000, factory(params), params, 0,
      [&completions](const FlowCompletion&) { ++completions; });
  simulator.run_until(sim::milliseconds(1));
  ASSERT_EQ(completions, 1);
  // Within the grace window the state is retained (go-back-N replays
  // must see identical acks) ...
  EXPECT_EQ(topo->receiver().active_receivers(), 1u);
  // ... and after a quiet grace period it retires.
  simulator.run_until(simulator.now() + 2 * Host::kReceiverGrace);
  EXPECT_EQ(topo->receiver().active_receivers(), 0u);
}

TEST_F(LifecycleFixture, TeardownBeforeFlowStartCancelsTheStartEvent) {
  // The flow-start event captures the FlowSender. Destroying the
  // topology before the start time must cancel it — running the
  // simulator afterwards executes nothing (and does not crash).
  {
    net::Network net2(simulator);
    topo::Dumbbell t2(net2, cfg);
    cc::FlowParams p;
    p.host_bw = cfg.host_bw;
    p.base_rtt = t2.base_rtt();
    t2.sender(0).start_flow(1, t2.receiver().id(), 10'000,
                            factory(p), p, sim::milliseconds(1));
  }
  simulator.run();
  EXPECT_EQ(simulator.events_executed(), 0u);
}

TEST_F(LifecycleFixture, DestroyingAMidFlowSenderCancelsItsTimers) {
  build(1);
  // Drive a sender outside the host's table so it can be destroyed
  // mid-flow: its armed RTO/pacing timers capture `this` and must be
  // cancelled by the destructor, not left to fire into freed memory.
  auto rogue = std::make_unique<FlowSender>(topo->sender(0), 99,
                                            topo->receiver().id(), 1'000'000,
                                            factory(params), params);
  rogue->start();
  simulator.run_until(sim::microseconds(30));
  EXPECT_TRUE(rogue->started());
  EXPECT_FALSE(rogue->complete());
  rogue.reset();  // cancels RTO (and any pacing) timer
  simulator.run();  // drain in-flight packets; ASan would flag a dangle
  EXPECT_FALSE(simulator.pending());
}

TEST_F(LifecycleFixture, RtoBackoffSaturatesAtTheEndOfTheClock) {
  build(1);
  // A sender outside the host's table never sees its acks, so it backs
  // off timeout after timeout. At x1e6 per timeout the second backoff
  // (~100 s x 1e6) leaves the int64 picosecond range: the RTO saturates
  // and, lying past the end of the clock, is never armed, so the run
  // drains instead of scheduling at an overflowed time.
  FlowSenderConfig sender_cfg;
  sender_cfg.rto_backoff = 1e6;
  auto rogue = std::make_unique<FlowSender>(topo->sender(0), 99,
                                            topo->receiver().id(), 1'000'000,
                                            factory(params), params,
                                            sender_cfg);
  rogue->start();
  simulator.run();
  EXPECT_EQ(rogue->timeouts(), 2u);
  EXPECT_FALSE(rogue->complete());
  EXPECT_GE(simulator.now(), sim::seconds(100));
  EXPECT_FALSE(simulator.pending());
}

TEST_F(LifecycleFixture, LongFlowKeepsAtMostOneRtoEntryInTheHeap) {
  // Every ack that makes progress moves the RTO deadline. It only
  // reserves the new deadline's key; the one armed entry re-arms itself
  // when it comes due, so no ack leaves a cancelled entry behind.
  build(1);
  ProbeCc::Record rec;
  bool done = false;
  topo->sender(0).start_flow(
      1, topo->receiver().id(), 10'000LL * params.mss,
      std::make_unique<ProbeCc>(factory(params), simulator, rec), params, 0,
      [&done](const FlowCompletion&) { done = true; });
  std::size_t worst = 0;
  while (!done) {
    simulator.run_until(simulator.now() + sim::microseconds(1));
    if (!done) worst = std::max(worst, simulator.tombstones());
  }
  EXPECT_GE(rec.acks, 10'000u);
  EXPECT_LE(worst, 1u);
  EXPECT_GT(simulator.wakeups(), 0u) << "the deadline never outran its entry";
  EXPECT_LT(simulator.wakeups(), rec.acks / 10);
}

TEST_F(LifecycleFixture, BlackholedFlowTimesOutAtTheSamePicosecond) {
  // Deferring the RTO re-arm must not move the timeout: it fires one
  // RTO after the last ack that made progress, at the picosecond an
  // engine that re-scheduled the timer on every ack gives.
  build(1);
  ProbeCc::Record rec;
  topo->sender(0).start_flow(
      1, topo->receiver().id(), 1'000'000'000,
      std::make_unique<ProbeCc>(factory(params), simulator, rec), params, 0);
  simulator.run_until(sim::microseconds(200));
  ASSERT_GT(rec.last_progress, 0);
  topo->bottleneck_port().set_aqm(std::make_unique<BlackholeAqm>());
  simulator.run_until(sim::milliseconds(2));
  EXPECT_EQ(rec.first_timeout, 303'168'000);
  EXPECT_GE(rec.first_timeout - rec.last_progress, sim::microseconds(100));
}

}  // namespace
}  // namespace powertcp::host
