#include "sim/shard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"

/// Sequential-vs-sharded equivalence and the same-picosecond boundary
/// rules. The ShardedEngine.* fixtures run real worker threads and are
/// part of the tsan preset's test filter (CMakePresets.json).

namespace powertcp::sim {
namespace {

// ---------------------------------------------------------------------
// Boundary ordering at identical picosecond timestamps. These drive a
// plain Simulator through schedule_from — no threads — because the tie
// rules are a property of the event key, not of the barrier protocol.
// ---------------------------------------------------------------------

TEST(ShardedEngine, IngestedDeliveryPopsAtItsCausalScheduleTime) {
  // A remote delivery sent at t=10 and a local event scheduled at t=40
  // collide at the same picosecond t=50. The sequential engine would
  // have scheduled the remote one first (at 10), so it must pop first —
  // and the causal keys differ, so this tie is NOT ambiguous.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(nanoseconds(40), [&] {
    s.schedule_at(nanoseconds(50), [&] { order.push_back(1); });
  });
  s.schedule_from(nanoseconds(10), nanoseconds(50),
                  [&] { order.push_back(2); }, 2);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(s.boundary_ambiguities(), 0u);
}

TEST(ShardedEngine, EqualKeyMixedOriginTieIsCountedAmbiguous) {
  // Same delivery picosecond AND same causal schedule time, from two
  // different causal domains: no key can order this pair the way the
  // sequential engine would have, so the detector must count it.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(nanoseconds(40), [&] {
    s.schedule_at(nanoseconds(50), [&] { order.push_back(1); });
  });
  s.schedule_from(nanoseconds(40), nanoseconds(50),
                  [&] { order.push_back(2); }, 3);
  s.run();
  // seq decides the pop order (the remote entry was created first
  // here); the point is that the ambiguity is DETECTED, so the harness
  // can fail the point (harness::check_exact).
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(s.boundary_ambiguities(), 1u);
}

TEST(ShardedEngine, EqualKeyLocalTiesAreNotAmbiguous) {
  // Two local events from the same causal moment tie on (time, sched):
  // seq order IS the sequential order, nothing to detect.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(nanoseconds(40), [&] {
    s.schedule_at(nanoseconds(50), [&] { order.push_back(1); });
    s.schedule_at(nanoseconds(50), [&] { order.push_back(2); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.boundary_ambiguities(), 0u);
}

TEST(ShardedEngine, ScheduleFromValidatesOriginAndCausality) {
  Simulator s;
  EXPECT_THROW(s.schedule_from(0, nanoseconds(1), [] {}, 0),
               std::invalid_argument);
  EXPECT_THROW(s.schedule_from(nanoseconds(2), nanoseconds(1), [] {}, 2),
               std::invalid_argument);
  // An ingest time behind this shard's clock would break monotonicity.
  s.run_until(nanoseconds(10));
  EXPECT_THROW(s.schedule_from(0, nanoseconds(9), [] {}, 2),
               std::invalid_argument);
  EXPECT_NO_THROW(s.schedule_from(0, nanoseconds(10), [] {}, 2));
}

TEST(ShardedEngine, StampedAndReservedSchedulingValidateTheirKeys) {
  Simulator s;
  s.run_until(nanoseconds(10));
  // A causal stamp may lie ahead of now(), but never after the event.
  EXPECT_THROW(s.schedule_stamped(nanoseconds(12), nanoseconds(11), 1, [] {}),
               std::invalid_argument);
  EXPECT_THROW(s.schedule_stamped(0, nanoseconds(9), 1, [] {}),
               std::invalid_argument);
  EXPECT_NO_THROW(s.schedule_stamped(nanoseconds(11), nanoseconds(11), 1,
                                     [] {}));
  EXPECT_THROW(s.reserve_in(-1), std::invalid_argument);
  EXPECT_THROW(s.reserve_in(kTimeInfinity), std::invalid_argument);
  EXPECT_THROW(s.schedule_reserved(Reservation{}, [] {}),
               std::invalid_argument);
  // A reservation whose key has passed can no longer run in key order.
  const Reservation r = s.reserve_in(nanoseconds(5));
  s.run_until(nanoseconds(15));
  EXPECT_THROW(s.schedule_reserved(r, [] {}), std::logic_error);
  const Reservation ahead = s.reserve_in(nanoseconds(5));
  EXPECT_NO_THROW(s.schedule_reserved(ahead, [] {}));
}

// ---------------------------------------------------------------------
// Engine-level runs with real worker threads.
// ---------------------------------------------------------------------

TEST(ShardedEngine, SingleShardNeverOpensWindows) {
  ShardedSimulator eng(1);
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < 100) eng.shard(0).schedule_in(nanoseconds(7), tick);
  };
  eng.shard(0).schedule_at(0, tick);
  eng.run_until(microseconds(10));
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(eng.windows(), 0u);
  EXPECT_EQ(eng.events_executed(), 100u);
  EXPECT_EQ(eng.shard(0).now(), microseconds(10));
}

TEST(ShardedEngine, IndependentShardsAdvanceInLockstepWindows) {
  ShardedSimulator eng(4);
  // A complete cut graph: every shard holds every other one back.
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a != b) eng.add_cut_edge(a, b, nanoseconds(100));
    }
  }
  std::array<int, 4> fired{};
  // The chains outlive every queued copy; owning the functions here
  // (rather than a self-captured shared_ptr) keeps LeakSanitizer happy.
  std::array<std::function<void()>, 4> ticks;
  for (int d = 0; d < 4; ++d) {
    ticks[static_cast<std::size_t>(d)] = [&eng, &fired, &ticks, d] {
      if (++fired[static_cast<std::size_t>(d)] < 1000) {
        eng.shard(d).schedule_in(nanoseconds(13 + d),
                                 ticks[static_cast<std::size_t>(d)]);
      }
    };
    eng.shard(d).schedule_at(0, ticks[static_cast<std::size_t>(d)]);
  }
  eng.run_until(microseconds(50));
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ(fired[static_cast<std::size_t>(d)], 1000) << "shard " << d;
    EXPECT_EQ(eng.shard(d).now(), microseconds(50));
  }
  EXPECT_GT(eng.windows(), 100u);
  EXPECT_EQ(eng.events_executed(), 4000u);
  EXPECT_EQ(eng.boundary_ambiguities(), 0u);
}

TEST(ShardedEngine, ShardsWithoutCutEdgesRunToTheHorizonInOneWindow) {
  // No cut edge: no shard can influence another, so the first window
  // reaches the horizon on both.
  ShardedSimulator eng(2);
  std::array<int, 2> fired{};
  std::array<std::function<void()>, 2> ticks;
  for (int d = 0; d < 2; ++d) {
    ticks[static_cast<std::size_t>(d)] = [&eng, &fired, &ticks, d] {
      if (++fired[static_cast<std::size_t>(d)] < 300 + 200 * d) {
        eng.shard(d).schedule_in(nanoseconds(11),
                                 ticks[static_cast<std::size_t>(d)]);
      }
    };
    eng.shard(d).schedule_at(0, ticks[static_cast<std::size_t>(d)]);
  }
  EXPECT_EQ(eng.influence_bound(0, 1), kTimeInfinity);
  eng.run_until(microseconds(10));
  EXPECT_EQ(eng.windows(), 1u);
  EXPECT_EQ(fired[0], 300);
  EXPECT_EQ(fired[1], 500);
  EXPECT_EQ(eng.shard(0).events_executed(), 300u);
  EXPECT_EQ(eng.shard(1).events_executed(), 500u);
  for (int d = 0; d < 2; ++d) {
    EXPECT_EQ(eng.shard(d).now(), microseconds(10)) << "shard " << d;
  }
}

TEST(ShardedEngine, EventExceptionAbortsTheRunAndRethrows) {
  ShardedSimulator eng(2);
  eng.shard(1).schedule_at(nanoseconds(50),
                           [] { throw std::runtime_error("boom"); });
  eng.shard(0).schedule_at(nanoseconds(10), [] {});
  EXPECT_THROW(eng.run_until(microseconds(1)), std::runtime_error);
}

// ---------------------------------------------------------------------
// Randomized sequential-vs-sharded trace equivalence.
//
// Two causal domains exchange timestamped messages: each runs a
// self-rescheduling local chain, occasionally sends to the other
// (propagation >= kDelay, the cut edges' weight), and receptions echo local
// follow-ups and bounded replies. The same seeded process runs once on
// one Simulator (domain sends become schedule_at at the send moment —
// the sequential engine's own chronology) and once on a two-shard
// engine with barrier-drained mailboxes feeding schedule_from. The
// per-domain execution traces must match event for event.
// ---------------------------------------------------------------------

constexpr TimePs kDelay = nanoseconds(500);

struct Mail {
  TimePs sent_at = 0;
  TimePs deliver_at = 0;
  int ttl = 0;
};

struct Domain {
  Rng rng{1};
  int ticks = 0;
  std::vector<std::pair<TimePs, int>> trace;  // (execution time, tag)
};

/// The process logic, shared by both runs. `send(src, mail)` is the
/// only seam: sequential scheduling vs mailbox + ingest.
template <typename SimOf, typename Send>
struct Process {
  std::array<Domain, 2>& doms;
  SimOf sim_of;  // Simulator& (int domain)
  Send send;     // void (int src, Mail)

  void tick(int d) {
    Domain& dom = doms[static_cast<std::size_t>(d)];
    Simulator& s = sim_of(d);
    dom.trace.emplace_back(s.now(), 0);
    if (++dom.ticks < 400) {
      const TimePs delta = 1 + static_cast<TimePs>(dom.rng.next_u64() %
                                                   microseconds(1));
      s.schedule_in(delta, [this, d] { tick(d); });
    }
    if (dom.rng.next_u64() % 10 < 3) {
      const TimePs jitter =
          static_cast<TimePs>(dom.rng.next_u64() % nanoseconds(200));
      send(d, Mail{s.now(), s.now() + kDelay + jitter, 3});
    }
  }

  void receive(int d, int ttl) {
    Domain& dom = doms[static_cast<std::size_t>(d)];
    Simulator& s = sim_of(d);
    dom.trace.emplace_back(s.now(), 100 + ttl);
    const TimePs delta =
        1 + static_cast<TimePs>(dom.rng.next_u64() % nanoseconds(300));
    s.schedule_in(delta, [this, d] {
      doms[static_cast<std::size_t>(d)].trace.emplace_back(sim_of(d).now(),
                                                           1);
    });
    if (ttl > 0 && dom.rng.next_u64() % 2 == 0) {
      const TimePs jitter =
          static_cast<TimePs>(dom.rng.next_u64() % nanoseconds(200));
      send(d, Mail{s.now(), s.now() + kDelay + jitter, ttl - 1});
    }
  }
};

std::array<Domain, 2> run_sequential(std::uint64_t seed, TimePs horizon) {
  std::array<Domain, 2> doms;
  doms[0].rng = Rng(seed);
  doms[1].rng = Rng(seed ^ 0x9E3779B97F4A7C15ull);
  Simulator s;
  auto sim_of = [&](int) -> Simulator& { return s; };
  using ProcessT = Process<decltype(sim_of), std::function<void(int, Mail)>>;
  ProcessT* pp = nullptr;
  std::function<void(int, Mail)> send = [&](int src, Mail m) {
    // The sequential engine schedules the delivery at the send moment,
    // stamping sched = now — exactly what schedule_from reproduces.
    const int dst = 1 - src;
    s.schedule_at(m.deliver_at, [&, dst, ttl = m.ttl] {
      pp->receive(dst, ttl);
    });
  };
  ProcessT p{doms, sim_of, send};
  pp = &p;
  s.schedule_at(0, [&] { p.tick(0); });
  s.schedule_at(0, [&] { p.tick(1); });
  s.run_until(horizon);
  return doms;
}

std::array<Domain, 2> run_sharded(std::uint64_t seed, TimePs horizon,
                                  std::uint64_t* ambiguities) {
  std::array<Domain, 2> doms;
  doms[0].rng = Rng(seed);
  doms[1].rng = Rng(seed ^ 0x9E3779B97F4A7C15ull);
  ShardedSimulator eng(2);
  // Mail takes at least kDelay each way: the cut graph a Network
  // registers for one cross-shard link.
  eng.add_cut_edge(0, 1, kDelay);
  eng.add_cut_edge(1, 0, kDelay);
  // Producer-side mailboxes; pushes happen inside windows, drains at
  // barriers, which order them (as for net::ShardChannel).
  std::array<std::vector<Mail>, 2> outbox;
  auto sim_of = [&](int d) -> Simulator& { return eng.shard(d); };
  using ProcessT = Process<decltype(sim_of), std::function<void(int, Mail)>>;
  ProcessT* pp = nullptr;
  std::function<void(int, Mail)> send = [&](int src, Mail m) {
    outbox[static_cast<std::size_t>(src)].push_back(m);
  };
  ProcessT p{doms, sim_of, send};
  pp = &p;
  for (int d = 0; d < 2; ++d) {
    eng.set_ingest_hook(d, [&, d] {
      auto& box = outbox[static_cast<std::size_t>(1 - d)];
      // Same merge key as net::ShardRouter: (deliver_at, sent_at), with
      // push order (= source execution order) breaking exact ties.
      std::stable_sort(box.begin(), box.end(),
                       [](const Mail& a, const Mail& b) {
                         if (a.deliver_at != b.deliver_at) {
                           return a.deliver_at < b.deliver_at;
                         }
                         return a.sent_at < b.sent_at;
                       });
      for (const Mail& m : box) {
        eng.shard(d).schedule_from(
            m.sent_at, m.deliver_at,
            [pp, d, ttl = m.ttl] { pp->receive(d, ttl); },
            static_cast<std::uint32_t>(2 - d));
      }
      box.clear();
    });
  }
  eng.shard(0).schedule_at(0, [&] { p.tick(0); });
  eng.shard(1).schedule_at(0, [&] { p.tick(1); });
  eng.run_until(horizon);
  *ambiguities = eng.boundary_ambiguities();
  return doms;
}

TEST(ShardedEngine, RandomizedCrossShardTraceMatchesSequential) {
  const TimePs horizon = milliseconds(2);
  for (const std::uint64_t seed : {7ull, 42ull, 1234ull, 0xBEEFull}) {
    const auto seq = run_sequential(seed, horizon);
    std::uint64_t ambiguities = 0;
    const auto shard = run_sharded(seed, horizon, &ambiguities);
    for (int d = 0; d < 2; ++d) {
      ASSERT_GT(seq[static_cast<std::size_t>(d)].trace.size(), 400u)
          << "seed " << seed << " domain " << d;
      EXPECT_EQ(shard[static_cast<std::size_t>(d)].trace,
                seq[static_cast<std::size_t>(d)].trace)
          << "seed " << seed << " domain " << d;
    }
    // The random timestamps keep cross-domain keys distinct, so the
    // detector certifies the equivalence the EXPECTs just checked.
    EXPECT_EQ(ambiguities, 0u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------
// Cut-graph lookahead: registration rules, the Floyd–Warshall influence
// bounds, and the wider windows a sparser graph opens.
// ---------------------------------------------------------------------

TEST(ShardedEngine, CutEdgeRejectsBadPairsAndWeights) {
  ShardedSimulator eng(3);
  EXPECT_THROW(eng.add_cut_edge(-1, 0, nanoseconds(1)),
               std::invalid_argument);
  EXPECT_THROW(eng.add_cut_edge(0, 3, nanoseconds(1)), std::invalid_argument);
  EXPECT_THROW(eng.add_cut_edge(1, 1, nanoseconds(1)), std::invalid_argument);
  EXPECT_THROW(eng.add_cut_edge(0, 1, 0), std::invalid_argument);
  EXPECT_EQ(eng.influence_bound(0, 1), kTimeInfinity);
  eng.add_cut_edge(0, 1, nanoseconds(5));
  EXPECT_EQ(eng.influence_bound(0, 1), nanoseconds(5));
}

TEST(ShardedEngine, InfluenceBoundIsInfiniteWithoutACutGraph) {
  ShardedSimulator eng(2);
  EXPECT_EQ(eng.influence_bound(0, 1), kTimeInfinity);
  EXPECT_THROW(eng.influence_bound(0, 2), std::invalid_argument);
}

TEST(ShardedEngine, InfluenceBoundFollowsRelayPathsAndCycles) {
  // Directed triangle 0 -> 1 -> 2 -> 0: every pair relates only
  // through it, so the bounds are path sums, and self-influence is the
  // full cycle — never zero.
  ShardedSimulator eng(3);
  eng.add_cut_edge(0, 1, nanoseconds(300));
  eng.add_cut_edge(1, 2, nanoseconds(500));
  eng.add_cut_edge(2, 0, nanoseconds(700));
  EXPECT_EQ(eng.influence_bound(0, 1), nanoseconds(300));
  EXPECT_EQ(eng.influence_bound(0, 2), nanoseconds(800));
  EXPECT_EQ(eng.influence_bound(1, 0), nanoseconds(1200));
  EXPECT_EQ(eng.influence_bound(2, 1), nanoseconds(1000));
  EXPECT_EQ(eng.influence_bound(0, 0), nanoseconds(1500));
  EXPECT_EQ(eng.influence_bound(1, 1), nanoseconds(1500));
  // Re-registering a pair keeps the minimum; a genuinely shorter edge
  // tightens every bound routed through it.
  eng.add_cut_edge(1, 2, nanoseconds(900));  // looser: 500 stands
  EXPECT_EQ(eng.influence_bound(1, 2), nanoseconds(500));
  eng.add_cut_edge(2, 1, nanoseconds(100));
  EXPECT_EQ(eng.influence_bound(1, 1), nanoseconds(600));  // 1 -> 2 -> 1
}

TEST(ShardedEngine, UnreachablePairsStayUnconstrained) {
  ShardedSimulator eng(3);
  eng.add_cut_edge(0, 1, nanoseconds(10));
  EXPECT_EQ(eng.influence_bound(1, 0), kTimeInfinity);
  EXPECT_EQ(eng.influence_bound(0, 0), kTimeInfinity);  // no cycle back
  EXPECT_EQ(eng.influence_bound(2, 1), kTimeInfinity);
}

TEST(ShardedEngine, CutGraphBatchesWindowsBeyondTheUniformLookahead) {
  // Two independent tick chains under two cut graphs. Edges both ways
  // hold each shard within w of the other — one barrier round per w of
  // simulated time, the uniform [T, T + w) window. Registering only
  // 0 -> 1 leaves shard 0 unconstrained (its first window reaches the
  // horizon) and releases shard 1 the moment shard 0 idles — a handful
  // of barrier rounds.
  const TimePs horizon = microseconds(100);
  const TimePs w = nanoseconds(200);
  // Chains owned outside the engine (no self-captured shared_ptr — it
  // would cycle and leak under LeakSanitizer).
  const auto drive = [](ShardedSimulator& eng,
                        std::array<std::function<void()>, 2>& ticks) {
    for (int d = 0; d < 2; ++d) {
      Simulator* shard = &eng.shard(d);
      ticks[static_cast<std::size_t>(d)] = [shard, &ticks, d] {
        shard->schedule_in(nanoseconds(17),
                           ticks[static_cast<std::size_t>(d)]);
      };
      shard->schedule_at(0, ticks[static_cast<std::size_t>(d)]);
    }
  };

  ShardedSimulator uniform(2);
  std::array<std::function<void()>, 2> uniform_ticks;
  uniform.add_cut_edge(0, 1, w);
  uniform.add_cut_edge(1, 0, w);
  drive(uniform, uniform_ticks);
  uniform.run_until(horizon);

  ShardedSimulator cut(2);
  std::array<std::function<void()>, 2> cut_ticks;
  cut.add_cut_edge(0, 1, w);
  drive(cut, cut_ticks);
  cut.run_until(horizon);

  EXPECT_EQ(cut.events_executed(), uniform.events_executed());
  EXPECT_GT(uniform.windows(), 100u);
  EXPECT_LT(cut.windows(), 10u);
  EXPECT_EQ(cut.boundary_ambiguities(), 0u);
}

// ---------------------------------------------------------------------
// Randomized relay-cut equivalence: the domains live on shards 0 and 2
// and exchange mail exclusively through a relay hop on shard 1 — the
// shape of the per-pod fat-tree plan, where pods meet only in the core
// shard. The engine sees only the per-hop cut edges; the per-pair
// bounds it derives (2 x kDelay end to end) must keep both domains'
// traces byte-equal to the sequential engine's.
// ---------------------------------------------------------------------

struct RelayMail {
  TimePs sent_at = 0;     ///< domain send moment (hop-1 sched time)
  TimePs relay_at = 0;    ///< relay execution (hop-2 sched time)
  TimePs deliver_at = 0;  ///< final delivery at the peer domain
  int dst = 0;
  int ttl = 0;
};

/// Widens a Process Mail into the two-hop schedule: the Mail's
/// deliver_at becomes the relay arrival and the second hop adds another
/// kDelay plus a jitter drawn HERE, from the sending domain's rng — the
/// seam runs at the same logical point in both engines, so the streams
/// stay aligned.
RelayMail relay_route(std::array<Domain, 2>& doms, int src, const Mail& m) {
  RelayMail rm;
  rm.sent_at = m.sent_at;
  rm.relay_at = m.deliver_at;
  const TimePs jitter = static_cast<TimePs>(
      doms[static_cast<std::size_t>(src)].rng.next_u64() % nanoseconds(200));
  rm.deliver_at = rm.relay_at + kDelay + jitter;
  rm.dst = 1 - src;
  rm.ttl = m.ttl;
  return rm;
}

std::array<Domain, 2> run_sequential_relay(std::uint64_t seed,
                                           TimePs horizon) {
  std::array<Domain, 2> doms;
  doms[0].rng = Rng(seed);
  doms[1].rng = Rng(seed ^ 0x9E3779B97F4A7C15ull);
  Simulator s;
  auto sim_of = [&](int) -> Simulator& { return s; };
  using ProcessT = Process<decltype(sim_of), std::function<void(int, Mail)>>;
  ProcessT* pp = nullptr;
  std::function<void(int, Mail)> send = [&](int src, Mail m) {
    const RelayMail rm = relay_route(doms, src, m);
    s.schedule_at(rm.relay_at, [&, rm] {
      s.schedule_at(rm.deliver_at,
                    [&, rm] { pp->receive(rm.dst, rm.ttl); });
    });
  };
  ProcessT p{doms, sim_of, send};
  pp = &p;
  s.schedule_at(0, [&] { p.tick(0); });
  s.schedule_at(0, [&] { p.tick(1); });
  s.run_until(horizon);
  return doms;
}

std::array<Domain, 2> run_sharded_relay(std::uint64_t seed, TimePs horizon,
                                        std::uint64_t* ambiguities) {
  std::array<Domain, 2> doms;
  doms[0].rng = Rng(seed);
  doms[1].rng = Rng(seed ^ 0x9E3779B97F4A7C15ull);
  ShardedSimulator eng(3);
  eng.add_cut_edge(0, 1, kDelay);
  eng.add_cut_edge(1, 0, kDelay);
  eng.add_cut_edge(1, 2, kDelay);
  eng.add_cut_edge(2, 1, kDelay);
  const auto shard_of = [](int d) { return d == 0 ? 0 : 2; };
  auto sim_of = [&](int d) -> Simulator& { return eng.shard(shard_of(d)); };
  // Single-writer mailboxes, read only at barriers (same discipline as
  // the two-shard fixture above): domains feed the relay, the relay
  // feeds the domains.
  std::array<std::vector<RelayMail>, 2> to_relay;   // by source domain
  std::array<std::vector<RelayMail>, 2> to_domain;  // by dest domain
  using ProcessT = Process<decltype(sim_of), std::function<void(int, Mail)>>;
  ProcessT* pp = nullptr;
  std::function<void(int, Mail)> send = [&](int src, Mail m) {
    to_relay[static_cast<std::size_t>(src)].push_back(
        relay_route(doms, src, m));
  };
  ProcessT p{doms, sim_of, send};
  pp = &p;
  // Relay ingest: merge both domains' hop-1 mail on the usual
  // (deliver, sched) key; the forwarded hop is stamped with the relay's
  // own clock, exactly as the sequential engine's nested schedule_at.
  eng.set_ingest_hook(1, [&] {
    std::vector<RelayMail> batch;
    for (auto& box : to_relay) {
      batch.insert(batch.end(), box.begin(), box.end());
      box.clear();
    }
    std::stable_sort(batch.begin(), batch.end(),
                     [](const RelayMail& a, const RelayMail& b) {
                       if (a.relay_at != b.relay_at) {
                         return a.relay_at < b.relay_at;
                       }
                       return a.sent_at < b.sent_at;
                     });
    for (const RelayMail& m : batch) {
      eng.shard(1).schedule_from(
          m.sent_at, m.relay_at,
          [&eng, &to_domain, m] {
            RelayMail fwd = m;
            fwd.sent_at = eng.shard(1).now();
            to_domain[static_cast<std::size_t>(fwd.dst)].push_back(fwd);
          },
          // Origin token of the SENDING domain's shard (0 -> 1, 2 -> 3).
          static_cast<std::uint32_t>(m.dst == 1 ? 1 : 3));
    }
  });
  for (int d = 0; d < 2; ++d) {
    eng.set_ingest_hook(shard_of(d), [&, d] {
      auto& box = to_domain[static_cast<std::size_t>(d)];
      std::stable_sort(box.begin(), box.end(),
                       [](const RelayMail& a, const RelayMail& b) {
                         if (a.deliver_at != b.deliver_at) {
                           return a.deliver_at < b.deliver_at;
                         }
                         return a.sent_at < b.sent_at;
                       });
      for (const RelayMail& m : box) {
        eng.shard(shard_of(d)).schedule_from(
            m.sent_at, m.deliver_at,
            [pp, d, ttl = m.ttl] { pp->receive(d, ttl); },
            2u);  // origin: the relay shard
      }
      box.clear();
    });
  }
  eng.shard(0).schedule_at(0, [&] { p.tick(0); });
  eng.shard(2).schedule_at(0, [&] { p.tick(1); });
  eng.run_until(horizon);
  *ambiguities = eng.boundary_ambiguities();
  return doms;
}

TEST(ShardedEngine, RandomizedRelayCutTraceMatchesSequential) {
  const TimePs horizon = milliseconds(2);
  for (const std::uint64_t seed : {3ull, 99ull, 0xC0FFEEull}) {
    const auto seq = run_sequential_relay(seed, horizon);
    std::uint64_t ambiguities = 0;
    const auto shard = run_sharded_relay(seed, horizon, &ambiguities);
    for (int d = 0; d < 2; ++d) {
      ASSERT_GT(seq[static_cast<std::size_t>(d)].trace.size(), 400u)
          << "seed " << seed << " domain " << d;
      EXPECT_EQ(shard[static_cast<std::size_t>(d)].trace,
                seq[static_cast<std::size_t>(d)].trace)
          << "seed " << seed << " domain " << d;
    }
    EXPECT_EQ(ambiguities, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace powertcp::sim
