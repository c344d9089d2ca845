/// perfbench_driver: the timed loop behind perfbench/run.py.
///
///   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
///
/// Derives kInputs flow plans from the seed, then runs them round robin,
/// one complete simulation point at a time, until S seconds have passed
/// (and every input has run at least twice). Every point is checked
/// against physical invariants and prints one JSON line; run.py
/// aggregates the lines and compares the digests of repeated inputs
/// (determinism).
///
/// The host this runs on may be shared, and its speed can drift by tens
/// of percent within seconds. So every span is reported in reference
/// seconds (see HostSpeed): a fixed loop, which is the benchmark's own
/// code and no part of the simulator, is timed every ~20 ms of measured
/// work, and each span is scaled by the loop times that bracket it. A
/// change to the simulator moves the spans but not the loop.
///
/// Spans are taken here, around the calls into each module, not inside
/// the simulator: topo (fabric and routes), host+cc (flow installation),
/// sim (the engine run, which drives net, host and cc), stats (FCT
/// summary) and teardown. The engine runs in slices of simulated time
/// so the loop can be timed between them; run_until() leaves no state
/// behind at a slice edge, so the events executed are the same. Planning
/// the flows is input generation and is not timed. With --trace 1 each
/// flow's congestion controller is wrapped so its on_ack calls are
/// counted and timed; --trace 0 runs the unwrapped algorithms.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cc/cc_algorithm.hpp"
#include "cc/registry.hpp"
#include "host/flow.hpp"
#include "host/host.hpp"
#include "net/network.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "stats/fct_recorder.hpp"
#include "topo/dumbbell.hpp"
#include "topo/fat_tree.hpp"
#include "workload/flow_size_dist.hpp"
#include "workload/traffic_gen.hpp"

using namespace powertcp;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Distinct inputs per run, revisited round robin: a run sees each one
/// several times (the determinism check) and its quantiles do not hinge
/// on one input.
constexpr int kInputs = 32;

/// Keeps reference_s()'s loop from being optimized away.
volatile std::uint64_t reference_sink = 0;

/// Host-speed probe: a fixed mix of binary-heap and hash-map work, the
/// operations the event engine and the hosts lean on. Of the probes
/// tried (this one, a larger heap, an 8 MB pointer chase, pure ALU
/// work), its time tracks the simulator's host time most closely.
double reference_s() {
  const auto t0 = Clock::now();
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 64'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push(x);
    if (heap.size() > 1000) {
      acc += heap.top();
      heap.pop();
    }
    table[x & 4095] += acc;
  }
  reference_sink = acc + table.size();
  return seconds_since(t0);
}

/// Converts host seconds into reference seconds: the time a span would
/// have taken had reference_s() read exactly kReferenceS around it.
/// Spans are held until the next probe and then scaled by the mean of
/// the probe before and the probe after them.
class HostSpeed {
 public:
  static constexpr double kReferenceS = 2e-3;
  static constexpr double kProbeEveryS = 20e-3;

  HostSpeed() : last_probe_(reference_s()) {}

  /// Adds `host_s` seconds to `*span` at the next probe; `span` must
  /// live until then.
  void add(double host_s, double* span) {
    pending_.emplace_back(host_s, span);
    pending_s_ += host_s;
  }
  bool probe_due() const { return pending_s_ >= kProbeEveryS; }

  void probe() {
    const double now = reference_s();
    const double scale = kReferenceS / ((last_probe_ + now) / 2);
    for (const auto& [host_s, span] : pending_) *span += host_s * scale;
    pending_.clear();
    pending_s_ = 0;
    last_probe_ = now;
  }

 private:
  double last_probe_;
  double pending_s_ = 0;
  std::vector<std::pair<double, double*>> pending_;
};

using Plan = std::vector<workload::FlowArrival>;

struct CcTally {
  std::uint64_t calls = 0;
  double seconds = 0;
};

/// CC-layer span: forwards to the wrapped algorithm and times on_ack.
class TimedCc final : public cc::CcAlgorithm {
 public:
  TimedCc(std::unique_ptr<cc::CcAlgorithm> inner, CcTally& tally)
      : inner_(std::move(inner)), tally_(tally) {}

  cc::CcDecision initial() const override { return inner_->initial(); }
  cc::CcDecision on_ack(const cc::AckContext& ctx) override {
    const auto t0 = Clock::now();
    const cc::CcDecision d = inner_->on_ack(ctx);
    tally_.seconds += seconds_since(t0);
    ++tally_.calls;
    return d;
  }
  void on_timeout() override { inner_->on_timeout(); }
  std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<cc::CcAlgorithm> inner_;
  CcTally& tally_;
};

/// A built topology seen the same way by every workload: plan host i,
/// its ToR, and the figures flows are parameterized with.
struct Fabric {
  std::unique_ptr<topo::FatTree> fat_tree;
  std::unique_ptr<topo::Dumbbell> dumbbell;
  std::vector<host::Host*> hosts;
  std::vector<int> tor;
  sim::Bandwidth host_bw;
  sim::Bandwidth bottleneck_bw;  ///< dumbbell only
  sim::TimePs base_rtt = 0;
};

struct Workload {
  const char* name;
  const char* scheme;
  int expected_flows;
  sim::TimePs horizon;
  Fabric (*build)(net::Network&, const cc::Scheme&);
  Plan (*plan)(std::uint64_t seed);
};

const topo::FatTreeConfig kFatTree = topo::FatTreeConfig::quick();
const int kFatTreeHosts =
    kFatTree.pods * kFatTree.tors_per_pod * kFatTree.servers_per_tor;
constexpr int kDumbbellSenders = 8;

Fabric build_fat_tree(net::Network& network, const cc::Scheme& scheme) {
  topo::FatTreeConfig cfg = kFatTree;
  cfg.ecn = scheme.needs.ecn;
  cfg.priority_bands = scheme.needs.priority_bands;
  cfg.int_enabled = true;
  Fabric f;
  f.fat_tree = std::make_unique<topo::FatTree>(network, cfg);
  for (int h = 0; h < f.fat_tree->host_count(); ++h) {
    f.hosts.push_back(&f.fat_tree->host(h));
    f.tor.push_back(f.fat_tree->tor_of_host(h));
  }
  f.host_bw = cfg.host_bw;
  f.base_rtt = f.fat_tree->max_base_rtt();
  return f;
}

Fabric build_dumbbell(net::Network& network, const cc::Scheme& scheme) {
  topo::DumbbellConfig cfg;
  cfg.n_senders = kDumbbellSenders;
  cfg.int_enabled = true;
  cfg.priority_bands = scheme.needs.priority_bands;
  Fabric f;
  f.dumbbell = std::make_unique<topo::Dumbbell>(network, cfg);
  for (int s = 0; s < cfg.n_senders; ++s) {
    f.hosts.push_back(&f.dumbbell->sender(s));
  }
  f.hosts.push_back(&f.dumbbell->receiver());
  f.tor.assign(f.hosts.size(), 0);
  f.host_bw = cfg.host_bw;
  f.bottleneck_bw = cfg.bottleneck_bw;
  f.base_rtt = f.dumbbell->base_rtt();
  return f;
}

/// Inverse of the websearch CDF (piecewise linear, sizes scaled by 0.1
/// as in configs/fig6_quick.toml) at quantile u.
std::int64_t websearch_quantile(double u) {
  const workload::FlowSizeDistribution dist =
      workload::FlowSizeDistribution::websearch();
  double lo_cdf = 0;
  auto lo_bytes = static_cast<double>(dist.min_bytes());
  for (const auto& [bytes, cdf] : dist.points()) {
    if (u <= cdf) {
      const double frac = cdf > lo_cdf ? (u - lo_cdf) / (cdf - lo_cdf) : 1.0;
      const double b = lo_bytes + frac * (static_cast<double>(bytes) - lo_bytes);
      return std::max<std::int64_t>(100, static_cast<std::int64_t>(b / 10));
    }
    lo_cdf = cdf;
    lo_bytes = static_cast<double>(bytes);
  }
  return dist.max_bytes() / 10;
}

/// Fig. 6's websearch mix at fixed volume: 192 flows whose sizes are
/// the 192 evenly spaced quantiles of the (scaled) distribution, in a
/// seed-drawn order, between seed-drawn host pairs, starting at
/// seed-drawn times within 1 ms — about 60% ToR-uplink load.
Plan plan_websearch(std::uint64_t seed) {
  constexpr int kFlows = 192;
  sim::Rng rng(seed);
  std::vector<std::int64_t> sizes;
  for (int i = 0; i < kFlows; ++i) {
    sizes.push_back(websearch_quantile((i + 0.5) / kFlows));
  }
  Plan plan;
  for (int i = 0; i < kFlows; ++i) {
    const auto pick =
        static_cast<std::size_t>(rng.uniform_int(i, kFlows - 1));
    std::swap(sizes[static_cast<std::size_t>(i)], sizes[pick]);
    const int src = static_cast<int>(rng.uniform_int(0, kFatTreeHosts - 1));
    int dst = static_cast<int>(rng.uniform_int(0, kFatTreeHosts - 2));
    if (dst >= src) ++dst;
    const auto start = static_cast<sim::TimePs>(
        rng.uniform() * static_cast<double>(sim::milliseconds(1)));
    plan.push_back({src, dst, sizes[static_cast<std::size_t>(i)], start});
  }
  std::sort(plan.begin(), plan.end(), [](const auto& a, const auto& b) {
    return a.start < b.start;
  });
  return plan;
}

/// Fig. 5-style sharing: every sender starts one 2 MB flow to the
/// receiver at a seed-drawn time within the first 100 us.
Plan plan_long_flows(std::uint64_t seed) {
  sim::Rng rng(seed);
  Plan plan;
  for (int s = 0; s < kDumbbellSenders; ++s) {
    const auto start = static_cast<sim::TimePs>(
        rng.uniform() * static_cast<double>(sim::microseconds(100)));
    plan.push_back({s, kDumbbellSenders, 2'000'000, start});
  }
  return plan;
}

/// §4.1's query pattern at fixed volume: four queries 250 us apart,
/// each fanning 2 MB in from 32 responders in other racks to one
/// seed-drawn requester. The requesters sit under distinct ToRs: with
/// two overlapping queries into one ToR, an input's event count rose by
/// up to 50%, and the p90 of a run hinged on whether a seed drew one.
Plan plan_incast(std::uint64_t seed) {
  constexpr int kQueries = 4;
  constexpr int kFanIn = 32;
  constexpr std::int64_t kQueryBytes = 2'000'000;
  const int tors = kFatTreeHosts / kFatTree.servers_per_tor;
  sim::Rng rng(seed);
  std::vector<int> tor(static_cast<std::size_t>(tors));
  for (int t = 0; t < tors; ++t) tor[static_cast<std::size_t>(t)] = t;
  Plan plan;
  for (int q = 0; q < kQueries; ++q) {
    const auto tor_pick =
        static_cast<std::size_t>(rng.uniform_int(q, tors - 1));
    std::swap(tor[static_cast<std::size_t>(q)], tor[tor_pick]);
    const int dst =
        tor[static_cast<std::size_t>(q)] * kFatTree.servers_per_tor +
        static_cast<int>(rng.uniform_int(0, kFatTree.servers_per_tor - 1));
    std::vector<int> remote;
    for (int h = 0; h < kFatTreeHosts; ++h) {
      if (h / kFatTree.servers_per_tor != dst / kFatTree.servers_per_tor) {
        remote.push_back(h);
      }
    }
    for (int k = 0; k < kFanIn; ++k) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(k, static_cast<std::int64_t>(remote.size()) - 1));
      std::swap(remote[static_cast<std::size_t>(k)], remote[pick]);
      plan.push_back({remote[static_cast<std::size_t>(k)], dst,
                      kQueryBytes / kFanIn, q * sim::microseconds(250)});
    }
  }
  return plan;
}

const Workload kWorkloads[] = {
    {"fattree", "powertcp", 64, sim::milliseconds(21), build_fat_tree,
     plan_websearch},
    {"dumbbell", "powertcp", kDumbbellSenders, sim::milliseconds(20),
     build_dumbbell, plan_long_flows},
    {"incast", "dcqcn", 64, sim::milliseconds(20), build_fat_tree,
     plan_incast},
};

/// One point's spans, in reference seconds, and its counts.
struct PointStats {
  double topo_s = 0, install_s = 0;
  double run_s = 0, stats_s = 0, teardown_s = 0;
  double cc_s = 0;
  CcTally cc;  ///< host seconds; folded into cc_s slice by slice
  std::uint64_t events = 0, pending_peak = 0, packets = 0;
  std::uint64_t digest = 0;
  std::string error;  ///< first violated check; empty when correct
};

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xffU)) * 1099511628211ULL;
    }
  }
};

/// Everything one point owns. Destroyed inside the teardown span.
struct Point {
  sim::Simulator sim;
  net::Network network{sim};
  Fabric fabric;
  std::vector<host::FlowCompletion> done;
  std::vector<std::int64_t> delivered;  ///< receiver-side bytes, by flow id
};

/// First violated invariant of a finished point, or "" when it holds:
/// every flow completes with its planned size, no faster than its NIC
/// can serialize it, every byte reaches its receiver exactly once, and
/// the dumbbell's receiver never outruns its bottleneck.
std::string check_point(const Point& p, const Plan& plan) {
  const Fabric& f = p.fabric;
  if (p.done.size() != plan.size()) {
    return std::to_string(plan.size() - p.done.size()) + " of " +
           std::to_string(plan.size()) + " flows unfinished";
  }
  sim::TimePs first_start = sim::kTimeInfinity, last_finish = 0;
  std::int64_t total_bytes = 0;
  for (const auto& c : p.done) {
    const std::string flow = "flow " + std::to_string(c.flow);
    const auto& a = plan[static_cast<std::size_t>(c.flow - 1)];
    if (c.size_bytes != a.size_bytes) return flow + " completed a wrong size";
    if (c.finish - c.start < f.host_bw.tx_time(a.size_bytes)) {
      return flow + " beat its NIC line rate";
    }
    if (p.delivered[static_cast<std::size_t>(c.flow)] != a.size_bytes) {
      return flow + " delivered " +
             std::to_string(p.delivered[static_cast<std::size_t>(c.flow)]) +
             " of " + std::to_string(a.size_bytes) + " bytes";
    }
    first_start = std::min(first_start, c.start);
    last_finish = std::max(last_finish, c.finish);
    total_bytes += a.size_bytes;
  }
  if (f.dumbbell != nullptr &&
      last_finish - first_start < f.bottleneck_bw.tx_time(total_bytes)) {
    return "goodput exceeded the bottleneck";
  }
  return "";
}

/// Simulated time per engine slice; HostSpeed is probed between slices.
constexpr sim::TimePs kSlice = sim::microseconds(10);

PointStats run_point(const Workload& w, const Plan& plan, bool trace,
                     HostSpeed& speed) {
  PointStats ps;
  const cc::Scheme& scheme = cc::Registry::instance().at(w.scheme);
  auto t = Clock::now();
  auto p = std::make_unique<Point>();
  p->fabric = w.build(p->network, scheme);
  speed.add(seconds_since(t), &ps.topo_s);

  t = Clock::now();
  Fabric& f = p->fabric;
  p->delivered.assign(plan.size() + 1, 0);
  for (host::Host* h : f.hosts) {
    h->set_data_callback(
        [d = &p->delivered](net::FlowId flow, std::int64_t bytes, sim::TimePs) {
          (*d)[static_cast<std::size_t>(flow)] += bytes;
        });
  }
  cc::FlowParams params;
  params.host_bw = f.host_bw;
  params.base_rtt = f.base_rtt;
  params.expected_flows = w.expected_flows;
  cc::ParamMap tunables;
  if (scheme.experiment_defaults) scheme.experiment_defaults(params, tunables);
  const cc::FlowCcFactory factory =
      scheme.make(tunables, cc::SchemeTopology{});
  net::FlowId id = 0;
  for (const auto& a : plan) {
    const auto src = static_cast<std::size_t>(a.src_host);
    const auto dst = static_cast<std::size_t>(a.dst_host);
    std::unique_ptr<cc::CcAlgorithm> algo =
        factory(params, cc::FlowEndpoints{f.tor[src], f.tor[dst]});
    if (trace) algo = std::make_unique<TimedCc>(std::move(algo), ps.cc);
    f.hosts[src]->start_flow(
        ++id, f.hosts[dst]->id(), a.size_bytes, std::move(algo), params,
        a.start,
        [d = &p->done](const host::FlowCompletion& c) { d->push_back(c); });
  }
  speed.add(seconds_since(t), &ps.install_s);

  for (sim::TimePs until = 0; until < w.horizon;) {
    until = std::min(w.horizon, until + kSlice);
    const double cc_before = ps.cc.seconds;
    t = Clock::now();
    p->sim.run_until(until);
    speed.add(seconds_since(t), &ps.run_s);
    speed.add(ps.cc.seconds - cc_before, &ps.cc_s);
    if (speed.probe_due()) speed.probe();
  }

  t = Clock::now();
  stats::FctRecorder fct;
  for (const auto& c : p->done) {
    fct.record({c.flow, c.size_bytes, c.start, c.finish,
                f.base_rtt + f.host_bw.tx_time(c.size_bytes)});
  }
  double p99_slowdown = 0;
  if (fct.flow_count() > 0) {
    p99_slowdown = fct.all_slowdowns().percentile(99);
    for (const double v : fct.bucket_percentiles(99)) p99_slowdown += v;
  }
  speed.add(seconds_since(t), &ps.stats_s);

  // Checks and counters, outside every span.
  ps.error = check_point(*p, plan);
  ps.events = p->sim.events_executed();
  ps.pending_peak = p->sim.slot_count();
  Fnv digest;
  digest.add(ps.events);
  digest.add(std::bit_cast<std::uint64_t>(p99_slowdown));
  for (std::size_t n = 0; n < p->network.node_count(); ++n) {
    const net::Node& node = p->network.node(static_cast<net::NodeId>(n));
    for (int i = 0; i < node.port_count(); ++i) {
      ps.packets += node.port(i).tx_packets();
      digest.add(node.port(i).tx_packets());
      digest.add(node.port(i).drops());
      digest.add(node.port(i).ecn_marks());
    }
  }
  for (const auto& c : p->done) {
    digest.add(c.flow);
    digest.add(static_cast<std::uint64_t>(c.finish));
  }
  ps.digest = digest.h;

  t = Clock::now();
  p.reset();
  speed.add(seconds_since(t), &ps.teardown_s);
  speed.probe();  // every span of this point is now scaled
  return ps;
}

void print_point(int input, const PointStats& ps) {
  std::printf(
      "{\"input\": %d, \"error\": \"%s\", \"digest\": \"%016llx\", "
      "\"topo_s\": %.9f, \"install_s\": %.9f, \"run_s\": %.9f, "
      "\"stats_s\": %.9f, \"teardown_s\": %.9f, \"cc_s\": %.9f, "
      "\"cc_calls\": %llu, \"events\": %llu, \"pending_peak\": %llu, "
      "\"packets\": %llu}\n",
      input, ps.error.c_str(), static_cast<unsigned long long>(ps.digest),
      ps.topo_s, ps.install_s, ps.run_s, ps.stats_s, ps.teardown_s, ps.cc_s,
      static_cast<unsigned long long>(ps.cc.calls),
      static_cast<unsigned long long>(ps.events),
      static_cast<unsigned long long>(ps.pending_peak),
      static_cast<unsigned long long>(ps.packets));
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "fattree|dumbbell|incast --seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& k : kWorkloads) {
        if (std::strcmp(k.name, value) == 0) w = &k;
      }
      if (w == nullptr) usage("unknown workload");
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0)) usage("--seconds takes a number > 0");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      trace = value[0] == '1';
    } else {
      usage("unknown flag");
    }
  }
  if (argc % 2 != 1 || w == nullptr || !have_seed || seconds <= 0) {
    usage("--workload, --seed and --seconds are required");
  }

  // Inputs derive from the seed alone; the simulator sees only them.
  std::vector<Plan> inputs;
  sim::Rng rng(seed);
  for (int i = 0; i < kInputs; ++i) inputs.push_back(w->plan(rng.next_u64()));

  try {
    HostSpeed speed;
    run_point(*w, inputs[0], trace, speed);  // warm-up: allocator, registry
    const auto t0 = Clock::now();
    // At least two rounds, so every input is checked for determinism.
    for (int n = 0; seconds_since(t0) < seconds || n < 2 * kInputs; ++n) {
      const int input = n % kInputs;
      print_point(input, run_point(*w, inputs[static_cast<std::size_t>(input)],
                                   trace, speed));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  return 0;
}
