#include "harness/runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>

#include "analysis/control_law.hpp"
#include "analysis/fluid_model.hpp"
#include "analysis/theorems.hpp"
#include "cc/mix.hpp"
#include "cc/registry.hpp"
#include "harness/point.hpp"
#include "net/aqm.hpp"
#include "net/node.hpp"
#include "stats/fct_recorder.hpp"

namespace powertcp::harness {

namespace {

constexpr const char* kExp = "experiment";
constexpr const char* kTopo = "topology";
constexpr const char* kWork = "workload";

/// Euler steps (duration_ms / step_us) and stored samples (duration_ms
/// / sample_us) one fluid_phase trajectory may take: Fig. 3 needs
/// 20,000 and 2,000.
constexpr double kMaxFluidSteps = 1e8;
constexpr double kMaxFluidSamples = 1e6;
/// Rows one single_flow table may have: Fig. 2 needs 9.
constexpr double kMaxReactionRows = 1e4;

/// Resolves one `schemes` label: its optional [cc.<label>] section
/// supplies params and may alias a registered scheme via
/// `scheme = <name>`. Every param key must be declared by the entry.
SchemeRun resolve_scheme(const ConfigFile& file, const std::string& label,
                         const KeyTable& keys, const void* labels_field) {
  SchemeRun run;
  run.label = label;
  run.scheme = label;
  const ConfigFile::Section* sec = file.find("cc." + label);
  const SectionView cc(file, sec);
  if (sec != nullptr) {
    for (const auto& e : sec->entries) {
      if (e.key == "scheme") {
        run.scheme = e.value;
      } else {
        run.params[e.key] = e.value;
      }
    }
  }
  const cc::Scheme* scheme = cc::Registry::instance().find(run.scheme);
  if (scheme == nullptr) {
    std::string why = "names scheme '" + run.scheme + "'" +
                      (run.scheme == label ? "" : " (" + label + ")") +
                      ", which is not registered; known:";
    for (const auto& s : cc::Registry::instance().schemes()) {
      why += " " + s.name;
    }
    if (cc.has("scheme")) cc.reject("scheme", why);
    keys.reject(labels_field, why);
  }
  for (const auto& [key, value] : run.params) {
    (void)value;
    bool declared = false;
    for (const auto& spec : scheme->params) {
      declared = declared || spec.key == key;
    }
    if (!declared) {
      cc.reject(key, "is not a declared parameter of scheme '" + run.scheme +
                         "'");
    }
  }
  return run;
}

/// The fat-tree keys of fat_tree, incast and homa_oc: the [topology]
/// preset, then per-field overrides.
void declare_fat_tree_topology(KeyTable& k, std::string* preset,
                               topo::FatTreeConfig* cfg) {
  k.choice(kTopo, "preset", preset, {"quick", "paper"});
  *cfg = *preset == "paper" ? topo::FatTreeConfig()
                            : topo::FatTreeConfig::quick();
  k.count(kTopo, "pods", &cfg->pods, Bound::at_least(1));
  k.count(kTopo, "tors_per_pod", &cfg->tors_per_pod, Bound::at_least(1));
  k.count(kTopo, "aggs_per_pod", &cfg->aggs_per_pod, Bound::at_least(1));
  k.count(kTopo, "cores", &cfg->cores, Bound::at_least(1));
  k.count(kTopo, "servers_per_tor", &cfg->servers_per_tor,
          Bound::at_least(1));
  k.gbps(kTopo, "host_gbps", &cfg->host_bw);
  k.gbps(kTopo, "fabric_gbps", &cfg->fabric_bw);
  k.count(kTopo, "buffer_bytes_per_gbps", &cfg->buffer_bytes_per_gbps,
          Bound::at_least(1));
  k.real(kTopo, "dt_alpha", &cfg->dt_alpha, Bound::above(0));
}

/// The first of `fields` the file sets, else the first: the key a
/// check that spans several keys blames.
const void* first_given(const KeyTable& k,
                        std::initializer_list<const void*> fields) {
  for (const void* f : fields) {
    if (k.given(f)) return f;
  }
  return *fields.begin();
}

/// The tie-token range (net::Node::attach_port): rejects `n` ports on
/// one `node` past net::kMaxPortsPerNode, blaming the first given of
/// `keys`.
void check_ports(const KeyTable& k, std::int64_t n, const char* node,
                 std::initializer_list<const void*> keys) {
  if (n > net::kMaxPortsPerNode) {
    k.reject(first_given(k, keys),
             "gives each " + std::string(node) + " " + std::to_string(n) +
                 " ports; a node has at most " +
                 std::to_string(net::kMaxPortsPerNode));
  }
}

/// Rejects `n` nodes in one network past net::kMaxNodes (the same
/// range).
void check_nodes(const KeyTable& k, std::int64_t n,
                 std::initializer_list<const void*> keys) {
  if (n > net::kMaxNodes) {
    k.reject(first_given(k, keys),
             "gives " + std::to_string(n) + " nodes; a network has at most " +
                 std::to_string(net::kMaxNodes));
  }
}

/// Rejects a fat-tree outside the tie-token range. The port checks
/// bound every count first, so the 64-bit node total cannot overflow.
void check_fat_tree_size(const KeyTable& k, const topo::FatTreeConfig& c) {
  const std::int64_t pods = c.pods, tors = c.tors_per_pod,
                     aggs = c.aggs_per_pod, cores = c.cores,
                     servers = c.servers_per_tor;
  check_ports(k, servers + aggs, "ToR", {&c.servers_per_tor, &c.aggs_per_pod});
  // Agg a links to every core c with c % aggs_per_pod == a.
  check_ports(k, tors + (cores + aggs - 1) / aggs, "aggregation switch",
              {&c.tors_per_pod, &c.cores});
  check_ports(k, pods, "core", {&c.pods});
  check_nodes(k, cores + pods * (aggs + tors) + pods * tors * servers,
              {&c.pods, &c.tors_per_pod, &c.servers_per_tor});
}

/// Hosts of a (size-checked) fat-tree.
std::int64_t host_count(const topo::FatTreeConfig& c) {
  return std::int64_t{c.pods} * c.tors_per_pod * c.servers_per_tor;
}

/// Rejects a query fan-in on a fat-tree (already size-checked) with no
/// host outside the receiver's rack other than the long sender: the
/// pool the incast scenario draws responders from (incast and
/// homa_oc).
void check_fan_in_hosts(const KeyTable& k, const void* fan_in,
                        const topo::FatTreeConfig& c) {
  if (host_count(c) - c.servers_per_tor - 1 < 1) {
    k.reject(fan_in,
             "needs a host outside the receiver's rack other than the long "
             "sender; grow pods or tors_per_pod");
  }
}

/// Rejects a dumbbell whose bottleneck switch would need more than
/// net::kMaxPortsPerNode ports: one per sender plus the receiver's.
void check_dumbbell_senders(const KeyTable& k, const void* field,
                            std::size_t senders) {
  if (senders + 1 > static_cast<std::size_t>(net::kMaxPortsPerNode)) {
    k.reject(field, "gives " + std::to_string(senders) +
                        " senders; the bottleneck switch has at most " +
                        std::to_string(net::kMaxPortsPerNode) +
                        " ports, one per sender plus the receiver's");
  }
}

/// Rejects, at the `[experiment] schemes` line, the first scheme the
/// kind cannot run: `misfit` returns why ("which ..."), or "" when the
/// scheme fits. The scenario functions keep their own throws for
/// library callers.
void check_schemes(
    const ScenarioContext& ctx, const KeyTable& k,
    const std::function<std::string(const cc::Scheme&)>& misfit) {
  for (const SchemeRun& run : ctx.schemes) {
    const std::string why = misfit(cc::Registry::instance().at(run.scheme));
    if (why.empty()) continue;
    k.reject(&ctx.scheme_labels,
             "names scheme '" + run.scheme + "'" +
                 (run.scheme == run.label ? "" : " (" + run.label + ")") +
                 ", " + why);
  }
}

/// fat_tree, incast and dumbbell build no circuit switch, so a scheme
/// that needs its schedule (reTCP) cannot run there.
void check_no_circuit_schemes(const ScenarioContext& ctx, const KeyTable& k) {
  check_schemes(ctx, k, [](const cc::Scheme& s) -> std::string {
    return s.needs.circuit_schedule
               ? "which needs a circuit schedule; only kind rdcn builds one"
               : "";
  });
}

/// "20000", "1e+08", "0.5": a number in %g form, for error messages
/// and slugs.
std::string g_text(double n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", n);
  return buf;
}

std::string as_is(const std::string& s) { return s; }

/// Rejects list key `field` when two of `entries` render alike in the
/// kind's output (`show`); `why` says what the repeat would write twice.
template <typename T, typename Show>
void check_distinct(const KeyTable& k, const void* field,
                    const std::vector<T>& entries, Show show,
                    const std::string& why) {
  std::set<std::string> seen;
  for (const T& x : entries) {
    if (!seen.insert(show(x)).second) {
      k.reject(field, "lists '" + show(x) + "' twice; " + why);
    }
  }
}

/// What a fat_tree point runs: "80% ToR-uplink load, websearch (x0.10
/// sizes)", plus " + 256/s x 200 KB incast" with the overlay on.
std::string fat_tree_point_text(const FatTreeExperiment& p) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "%.0f%% ToR-uplink load, websearch (x%.2f sizes)",
                p.uplink_load * 100, p.size_scale);
  std::string text = buf;
  if (p.incast) {
    text += " + " + g_text(p.incast_requests_per_sec) + "/s x " +
            g_text(static_cast<double>(p.incast_request_bytes) / 1e3) +
            " KB incast";
  }
  return text;
}

/// One fat_tree point's output: its FCT and occupancy row cells and
/// its flight series.
struct FctPoint {
  std::vector<Cell> values;
  std::vector<Cell> occupancy;
  TelemetrySeries flight;
};

/// A Fig. 6/7 row: tail slowdown per paper size bucket, then
/// allP50/drops/flows/done%.
std::vector<Cell> fct_row(const ExperimentResult& r, double size_scale,
                          double percentile) {
  std::vector<Cell> row;
  // Buckets are defined on unscaled sizes; rescale the edges.
  std::int64_t lo = 0;
  for (const auto& b : stats::paper_size_buckets()) {
    const auto hi = static_cast<std::int64_t>(
        static_cast<double>(b.upper_bytes) * size_scale);
    const auto s = r.fct.slowdowns_in_range(lo, hi);
    row.push_back(s.count() >= 5 ? Cell(s.percentile(percentile), 2)
                                 : Cell());
    lo = hi;
  }
  const auto all = r.fct.all_slowdowns();
  row.push_back(all.empty() ? Cell() : Cell(all.percentile(50), 2));
  row.push_back(Cell::integer(static_cast<std::int64_t>(r.drops)));
  row.push_back(Cell::integer(static_cast<std::int64_t>(r.flows_started)));
  row.push_back(Cell(r.completion_rate() * 100, 1));
  return row;
}

/// A Fig. 7g/7h row: the ToR-uplink occupancy CDF points, in KB.
std::vector<Cell> occupancy_row(const stats::Samples& queue_bytes) {
  std::vector<Cell> row;
  for (const auto& nv : queue_bytes.summary().named_values()) {
    row.push_back(Cell(nv.second / 1e3, 1));
  }
  return row;
}

/// Appends one `<slug>_flight_<scheme>` table per scheme whose result
/// carried a recording; results[at + i] belongs to schemes[i]. `slug`
/// is a copy, so it may name a table in `tables`.
template <typename Result>
void append_flight_tables(std::vector<ResultTable>& tables,
                          const std::vector<Result>& results, std::size_t at,
                          const std::vector<SchemeRun>& schemes,
                          std::string slug, const std::string& tap_desc) {
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const TelemetrySeries& flight = results[at + i].flight;
    if (flight.empty()) continue;
    tables.push_back(flight_table(
        flight, slug + "_flight_" + schemes[i].display(),
        schemes[i].display() + " flight recorder (" + tap_desc + ")"));
  }
}

/// One job per (point, scheme), schemes inner, in one pool call:
/// result p * schemes.size() + i is `run(*points[p], schemes[i])`.
template <typename Kind, typename Run>
auto map_points(const SweepRunner& runner,
                const std::vector<const Kind*>& points,
                const std::vector<SchemeRun>& schemes, const Run& run) {
  std::vector<std::function<decltype(run(*points[0], schemes[0]))()>> jobs;
  for (const Kind* p : points) {
    for (const SchemeRun& s : schemes) {
      jobs.push_back([&run, p, &s] { return run(*p, s); });
    }
  }
  return runner.map(jobs);
}

template <typename Kind>
ScenarioEntry builtin(std::string name, std::string summary) {
  return {std::move(name), std::move(summary),
          [] { return std::make_unique<Kind>(); }};
}

}  // namespace

void declare_shared_keys(KeyTable& k, ScenarioContext* ctx) {
  k.choice(kExp, "kind", &ctx->kind, ScenarioRegistry::instance().names());
  k.text(kExp, "slug", &ctx->slug_prefix);
  k.text(kExp, "schemes", &ctx->scheme_labels);
  k.count(kExp, "seed", &ctx->seed, Bound::at_least(0));
  k.real(kExp, "percentile", &ctx->percentile, Bound::at_least(0).upto(100));

  // Delays in us: positive and well inside the picosecond clock.
  constexpr Bound kAqmUs = Bound::above(0).upto(1e9);
  net::AqmSpec& a = ctx->aqm;
  k.choice("aqm", "kind", &a.kind, net::AqmRegistry::instance().names());
  k.real("aqm", "target_us", &a.target_us, kAqmUs);
  k.real("aqm", "tupdate_us", &a.tupdate_us, kAqmUs);
  k.real("aqm", "alpha", &a.alpha, Bound::above(0));
  k.real("aqm", "beta", &a.beta, Bound::above(0));
  k.real("aqm", "ecn_threshold", &a.ecn_threshold,
         Bound::at_least(0).upto(1));

  declare_telemetry_keys(k, &ctx->telemetry);
}

// ---- per-kind key tables ------------------------------------------
// declare() is each kind's whole [topology]/[workload] schema; bind()
// copies in the shared context and holds the only checks that span
// several keys.

void FatTreeKindConfig::declare(KeyTable& k) {
  declare_fat_tree_topology(k, &preset, &fat_tree.topo);
  k.real(kWork, "load", &fat_tree.uplink_load, Bound::above(0).upto(1));
  k.ms(kWork, "duration_ms", &fat_tree.duration);
  k.real(kWork, "size_scale", &fat_tree.size_scale,
         Bound::above(0).upto(1e3));
  k.count(kWork, "expected_flows", &fat_tree.expected_flows,
          Bound::at_least(1));
  k.flag(kWork, "incast", &fat_tree.incast);
  k.real(kWork, "incast_requests_per_sec", &fat_tree.incast_requests_per_sec,
         Bound::above(0).upto(1e6));
  k.size(kWork, "incast_request_kb", &fat_tree.incast_request_bytes,
         Size::kKB);
  k.count(kWork, "incast_fan_in", &fat_tree.incast_fan_in,
          Bound::at_least(1));
}

void FatTreeKindConfig::bind(const ScenarioContext& ctx, const KeyTable& k) {
  check_no_circuit_schemes(ctx, k);
  const topo::FatTreeConfig& t = fat_tree.topo;
  check_fat_tree_size(k, t);
  const std::int64_t remote = host_count(t) - t.servers_per_tor;
  if (remote < 1) {
    k.reject(first_given(k, {&t.pods, &t.tors_per_pod}),
             "leaves one rack, so no traffic crosses a ToR uplink and no "
             "uplink load can be set; grow pods or tors_per_pod");
  }
  if (fat_tree.incast && fat_tree.incast_fan_in > remote) {
    k.reject(&fat_tree.incast_fan_in,
             "needs that many distinct responders outside the requester's "
             "rack; the fabric has " +
                 std::to_string(remote));
  }
  percentile = ctx.percentile;
  fat_tree.seed = static_cast<std::uint64_t>(ctx.seed);
  fat_tree.telemetry = ctx.telemetry;
  fat_tree.topo.aqm = ctx.aqm;
}

void IncastKindConfig::declare(KeyTable& k) {
  declare_fat_tree_topology(k, &preset, &incast.topo);
  k.size(kWork, "query_kb", &query_bytes, Size::kKB, /*zero_ok=*/true);
  k.count(kWork, "fan_in", &incast.fan_in, Bound::at_least(0));
  k.size(kWork, "long_flow_mb", &incast.long_flow_bytes, Size::kMB);
  k.count(kWork, "long_companions", &incast.long_companions,
          Bound::at_least(0));
  k.us(kWork, "burst_at_us", &incast.burst_at);
  k.ms(kWork, "horizon_ms", &incast.horizon);
  k.us(kWork, "bin_us", &incast.bin, /*positive=*/true);
  k.count(kWork, "expected_flows", &incast.expected_flows,
          Bound::at_least(1));
}

void IncastKindConfig::bind(const ScenarioContext& ctx, const KeyTable& k) {
  check_no_circuit_schemes(ctx, k);
  check_fat_tree_size(k, incast.topo);
  incast.telemetry = ctx.telemetry;
  incast.topo.aqm = ctx.aqm;
  if (query_bytes > 0) {
    if (incast.fan_in < 1) {
      k.reject(&incast.fan_in,
               "must be >= 1 where " + k.name(&query_bytes) +
                   " > 0 (the query is split across the fan-in)");
    }
    check_fan_in_hosts(k, &incast.fan_in, incast.topo);
    // Each responder sends its share, at least 1 KB (~8 KB at the
    // paper's 2MB/255).
    incast.responder_bytes =
        std::max<std::int64_t>(1'000, query_bytes / incast.fan_in);
  }
  // Companion i sends from host servers_per_tor + 1 + i.
  const topo::FatTreeConfig& t = incast.topo;
  const std::int64_t hosts = host_count(t);
  if (incast.long_companions > 0 &&
      t.servers_per_tor + std::int64_t{incast.long_companions} >= hosts) {
    k.reject(first_given(k, {&incast.long_companions, &t.servers_per_tor,
                             &t.pods, &t.tors_per_pod}),
             "puts companion hosts (servers_per_tor + 1 + i) past the "
             "fabric's " +
                 std::to_string(hosts) + " hosts");
  }
}

void RdcnKindConfig::declare(KeyTable& k) {
  k.choice(kTopo, "preset", &preset, {"small", "paper"});
  rdcn.topo =
      preset == "small" ? topo::RdcnConfig::small() : topo::RdcnConfig();
  k.count(kTopo, "n_tors", &rdcn.topo.n_tors, Bound::at_least(2));
  k.count(kTopo, "servers_per_tor", &rdcn.topo.servers_per_tor,
          Bound::at_least(1));
  k.gbps(kTopo, "host_gbps", &rdcn.topo.host_bw);
  k.gbps(kTopo, "circuit_gbps", &rdcn.topo.circuit_bw);
  k.us(kTopo, "day_us", &rdcn.topo.day, /*positive=*/true);
  k.us(kTopo, "night_us", &rdcn.topo.night);
  k.gbps(kWork, "packet_gbps", &rdcn.topo.packet_bw);
  k.size(kWork, "flow_mb", &rdcn.flow_bytes, Size::kMB);
  k.ms(kWork, "horizon_ms", &rdcn.horizon);
  k.us(kWork, "bin_us", &rdcn.bin, /*positive=*/true);
  k.count(kWork, "expected_flows", &rdcn.expected_flows, Bound::at_least(1));
}

void RdcnKindConfig::bind(const ScenarioContext& ctx, const KeyTable& k) {
  check_schemes(ctx, k, [](const cc::Scheme& s) {
    return RdcnPoint::unmet(s.needs);
  });
  const net::AqmSpec& a = ctx.aqm;
  for (const void* f : std::initializer_list<const void*>{
           &a.kind, &a.target_us, &a.tupdate_us, &a.alpha, &a.beta,
           &a.ecn_threshold}) {
    if (k.given(f)) k.reject(f, "has no effect: kind rdcn runs no AQM");
  }
  // As topo/rdcn.cpp wires it: a ToR has a port per server plus its
  // circuit and packet uplinks, the packet core and the circuit switch
  // one per ToR; the network is those two, the ToRs and the hosts.
  const topo::RdcnConfig& t = rdcn.topo;
  const std::int64_t tors = t.n_tors, servers = t.servers_per_tor;
  check_ports(k, servers + 2, "ToR", {&t.servers_per_tor});
  check_ports(k, tors, "packet core and circuit switch", {&t.n_tors});
  check_nodes(k, 2 + tors * (1 + servers), {&t.servers_per_tor, &t.n_tors});
  rdcn.telemetry = ctx.telemetry;
}

void DumbbellKindConfig::declare(KeyTable& k) {
  DumbbellScenario& d = dumbbell;
  k.gbps(kTopo, "host_gbps", &d.topo.host_bw);
  k.gbps(kTopo, "bottleneck_gbps", &d.topo.bottleneck_bw);
  k.us(kTopo, "link_delay_us", &d.topo.link_delay);
  k.real(kTopo, "dt_alpha", &d.topo.dt_alpha, Bound::above(0));
  // 0 keeps the default: a buffer derived from the rates.
  k.size(kTopo, "buffer_kb", &d.topo.buffer_bytes, Size::kKB,
         /*zero_ok=*/true);
  k.size(kWork, "flow_mb", &d.flow_bytes, Size::kMB);
  k.us(kWork, "stagger_us", &d.stagger);
  k.ms(kWork, "horizon_ms", &d.horizon);
  k.us(kWork, "bin_us", &d.bin, /*positive=*/true);
  k.count(kWork, "row_every", &d.row_stride, Bound::at_least(1));
}

void DumbbellKindConfig::bind(const ScenarioContext& ctx, const KeyTable& k) {
  check_no_circuit_schemes(ctx, k);
  check_dumbbell_senders(k, &dumbbell.flow_bytes, dumbbell.flow_bytes.size());
  dumbbell.telemetry = ctx.telemetry;
  dumbbell.topo.aqm = ctx.aqm;
}

void HomaOcKindConfig::declare(KeyTable& k) {
  HomaOcScenario& h = homa_oc;
  declare_fat_tree_topology(k, &preset, &h.incast.topo);
  k.count(kWork, "overcommit", &h.overcommit, Bound::at_least(1));
  k.count(kWork, "fan_in", &h.fan_in, Bound::at_least(1));
  k.size(kWork, "flow_mb", &h.fairness.flow_bytes, Size::kMB);
  k.us(kWork, "stagger_us", &h.fairness.stagger);
  k.ms(kWork, "fairness_horizon_ms", &h.fairness.horizon);
  k.us(kWork, "fairness_bin_us", &h.fairness.bin, /*positive=*/true);
  k.count(kWork, "fairness_row_every", &h.fairness.row_stride,
          Bound::at_least(1));
  k.size(kWork, "long_message_mb", &h.incast.long_flow_bytes, Size::kMB);
  k.size(kWork, "burst_kb", &h.incast.responder_bytes, Size::kKB);
  k.us(kWork, "burst_at_us", &h.incast.burst_at);
  k.ms(kWork, "incast_horizon_ms", &h.incast.horizon);
  k.us(kWork, "incast_bin_us", &h.incast.bin, /*positive=*/true);
}

void HomaOcKindConfig::bind(const ScenarioContext& ctx, const KeyTable& k) {
  check_schemes(ctx, k, [](const cc::Scheme& s) -> std::string {
    return s.message_transport
               ? ""
               : "which is not a receiver-driven message transport; the "
                 "overcommitment sweep (kind homa_oc) drives message "
                 "transports only";
  });
  check_fat_tree_size(k, homa_oc.incast.topo);
  check_fan_in_hosts(k, &homa_oc.fan_in, homa_oc.incast.topo);
  // Each level and fan-in names its tables (<slug>_<scheme>_oc2,
  // <slug>_<scheme>_incast10to1).
  const auto text = [](int x) { return std::to_string(x); };
  check_distinct(k, &homa_oc.overcommit, homa_oc.overcommit, text,
                 "each entry writes its own tables");
  check_distinct(k, &homa_oc.fan_in, homa_oc.fan_in, text,
                 "each entry writes its own table");
  check_dumbbell_senders(k, &homa_oc.fairness.flow_bytes,
                         homa_oc.fairness.flow_bytes.size());
  homa_oc.fairness.telemetry = homa_oc.incast.telemetry = ctx.telemetry;
  homa_oc.incast.topo.aqm = ctx.aqm;
  homa_oc.fairness.topo.aqm = ctx.aqm;
}

void SingleFlowKindConfig::declare(KeyTable& k) {
  k.gbps(kTopo, "bandwidth_gbps", &bandwidth_gbps);
  k.real(kTopo, "bdp_packets", &bdp_packets, Bound::above(0));
  k.real(kTopo, "packet_kb", &packet_kb, Bound::above(0));
  k.real(kWork, "hold_queue_pkts", &hold_queue_pkts, Bound::at_least(0));
  k.real(kWork, "hold_rate_x", &hold_rate_x, Bound::at_least(0));
  k.real(kWork, "rate_max", &rate_max_x, Bound::at_least(0));
  k.real(kWork, "queue_max_pkts", &queue_max_pkts, Bound::at_least(0));
  k.real(kWork, "queue_step_pkts", &queue_step_pkts, Bound::above(0));
}

void SingleFlowKindConfig::bind(const ScenarioContext&, const KeyTable& k) {
  const auto too_many = [&k](const void* field, double rows) {
    if (rows > kMaxReactionRows) {
      k.reject(field, "implies " + g_text(rows) +
                          " table rows; the cap is " +
                          g_text(kMaxReactionRows));
    }
  };
  too_many(&rate_max_x, std::floor(rate_max_x + 0.01) + 1);
  too_many(k.given(&queue_step_pkts) ? &queue_step_pkts : &queue_max_pkts,
           std::floor((queue_max_pkts + 0.01) / queue_step_pkts) + 1);
}

void MixedCcKindConfig::declare(KeyTable& k) {
  MixedCcScenario& m = mixed;
  k.gbps(kTopo, "host_gbps", &m.topo.host_bw);
  k.gbps(kTopo, "bottleneck_gbps", &m.topo.bottleneck_bw);
  k.real(kTopo, "dt_alpha", &m.topo.dt_alpha, Bound::above(0));
  k.text(kWork, "cc_mix", &cc_mix);
  k.choice(kWork, "aqm", &m.aqm_kinds, net::AqmRegistry::instance().names());
  k.real(kWork, "rtt_us", &m.rtt_us, Bound::above(0).upto(1e9));
  // 0 keeps the topology's default (deep) buffer; small values reach
  // the Tiny-Buffer regime.
  k.size(kWork, "buffer_kb", &m.buffer_bytes, Size::kKB, /*zero_ok=*/true);
  k.count(kWork, "senders", &m.senders, Bound::at_least(1));
  k.size(kWork, "flow_mb", &m.flow_bytes, Size::kMB);
  k.ms(kWork, "horizon_ms", &m.horizon);
}

void MixedCcKindConfig::bind(const ScenarioContext& ctx, const KeyTable& k) {
  check_dumbbell_senders(k, &mixed.senders,
                         static_cast<std::size_t>(mixed.senders));
  mixed.seed = static_cast<std::uint64_t>(ctx.seed);
  mixed.aqm = ctx.aqm;
  mixed.telemetry = ctx.telemetry;
  // Each entry (`dctcp:0.5+powertcp:0.5`) is one mix cell; members
  // reference [experiment] scheme labels, so [cc.<label>] params apply
  // per member.
  for (const std::string& spec : cc_mix) {
    const std::string entry = "entry '" + spec + "': ";
    std::vector<cc::MixMember> members;
    try {
      members = cc::parse_cc_mix(spec);
    } catch (const std::exception& e) {
      k.reject(&cc_mix, entry + e.what());
    }
    MixedCcMix mix;
    mix.display = cc::mix_display(members);
    for (const auto& mem : members) {
      const SchemeRun* run = nullptr;
      for (const auto& s : ctx.schemes) {
        if (s.display() == mem.label) {
          run = &s;
          break;
        }
      }
      if (run == nullptr) {
        k.reject(&cc_mix, entry + "member '" + mem.label +
                              "' is not in the [experiment] schemes list");
      }
      const cc::Scheme& scheme = cc::Registry::instance().at(run->scheme);
      if (scheme.message_transport) {
        k.reject(&cc_mix,
                 entry + "member '" + mem.label + "' (scheme " + run->scheme +
                     ") is a receiver-driven message transport; it "
                     "reshapes the fabric and cannot share a bottleneck "
                     "with sender CC algorithms");
      }
      if (scheme.needs.circuit_schedule) {
        k.reject(&cc_mix, entry + "member '" + mem.label + "' (scheme " +
                              run->scheme +
                              ") needs a circuit schedule; the coexistence "
                              "dumbbell has none");
      }
      mix.members.push_back(*run);
      mix.weights.push_back(mem.weight);
    }
    mixed.mixes.push_back(std::move(mix));
  }
  // The cells are the axes' outer product, so two write one row key
  // exactly when an axis lists two entries that render alike.
  const std::string why = "two grid cells would write one row key";
  check_distinct(k, &cc_mix, mixed.mixes,
                 [](const MixedCcMix& m) { return m.display; }, why);
  check_distinct(k, &mixed.aqm_kinds, mixed.aqm_kinds, as_is, why);
  check_distinct(k, &mixed.rtt_us, mixed.rtt_us,
                 [](double r) { return mixed_cc_rtt_key(r).render(); }, why);
  check_distinct(k, &mixed.buffer_bytes, mixed.buffer_bytes,
                 [](std::int64_t b) { return mixed_cc_buffer_key(b).render(); },
                 why);
}

void FluidPhaseKindConfig::declare(KeyTable& k) {
  k.gbps(kTopo, "bandwidth_gbps", &bandwidth_gbps);
  k.real(kTopo, "base_rtt_us", &base_rtt_us, Bound::above(0));
  k.real(kTopo, "gamma", &gamma, Bound::above(0));
  k.real(kTopo, "update_interval_us", &update_interval_us, Bound::above(0));
  k.real(kTopo, "beta_frac", &beta_frac, Bound::above(0));
  k.real(kWork, "duration_ms", &duration_ms, Bound::above(0));
  k.real(kWork, "step_us", &step_us, Bound::above(0));
  k.real(kWork, "sample_us", &sample_us, Bound::above(0));
  k.real(kWork, "grid_w_bdp", &grid_w_bdp, Bound::above(0));
  k.real(kWork, "grid_q_bdp", &grid_q_bdp, Bound::at_least(0));
}

void FluidPhaseKindConfig::bind(const ScenarioContext&, const KeyTable& k) {
  if (grid_w_bdp.size() != grid_q_bdp.size()) {
    k.reject(k.given(&grid_q_bdp) ? &grid_q_bdp : &grid_w_bdp,
             "must pair one to one with " +
                 k.name(k.given(&grid_q_bdp) ? &grid_w_bdp : &grid_q_bdp));
  }
  const auto too_many = [&](const double* per, double cap,
                            const char* what) {
    const double n = duration_ms * 1e3 / *per;
    if (n > cap) {
      k.reject(k.given(per) ? static_cast<const void*>(per) : &duration_ms,
               "implies " + g_text(n) + " " + what +
                   " per trajectory; the cap is " + g_text(cap));
    }
  };
  too_many(&step_us, kMaxFluidSteps, "Euler steps");
  too_many(&sample_us, kMaxFluidSamples, "samples");
}

// ---- the kind table ----------------------------------------------

ScenarioRegistry::ScenarioRegistry() {
  entries_ = {
      builtin<FatTreeKindConfig>(
          "fat_tree",
          "Fig. 6/7 FCT sweep: websearch fat-tree plus an optional incast "
          "overlay, tail slowdown per size bucket and ToR-uplink occupancy per "
          "(load, overlay) point"),
      builtin<IncastKindConfig>(
          "incast",
          "Fig. 4 reaction to incast: long flow + N:1 burst on one downlink, "
          "goodput/queue time series per scheme and a <slug>_summary table "
          "(peak/settle/residual queue, drops, goodput per scheme) per point"),
      builtin<RdcnKindConfig>(
          "rdcn",
          "Fig. 8 reconfigurable-DCN case study: rack-to-rack series over the "
          "rotor schedule plus p99 ToR latency vs packet bandwidth"),
      builtin<DumbbellKindConfig>(
          "dumbbell",
          "Fig. 5 fairness/stability: staggered flows over one bottleneck, "
          "per-flow goodput series, one table per scheme"),
      builtin<HomaOcKindConfig>(
          "homa_oc",
          "Figs. 9-11 overcommitment sweep: message-transport fairness per "
          "level plus N:1 incast reaction summaries"),
      builtin<SingleFlowKindConfig>(
          "single_flow",
          "Fig. 2 analytic reaction curves: multiplicative decrease of the "
          "voltage/current/power laws on one bottleneck (no simulation)"),
      builtin<MixedCcKindConfig>(
          "mixed_cc",
          "brownfield coexistence: per-host CC mixes sharing one dumbbell, "
          "swept over (mix, aqm, rtt, buffer) cells into fairness/share/FCT "
          "tables"),
      builtin<FluidPhaseKindConfig>(
          "fluid_phase",
          "Fig. 3 fluid-model phase portraits: per-law trajectories from a "
          "grid of initial states plus the Theorem 1/2 stability summary "
          "(no simulation)"),
  };
}

const ScenarioRegistry& ScenarioRegistry::instance() {
  static const ScenarioRegistry kRegistry;
  return kRegistry;
}

const ScenarioEntry& ScenarioRegistry::at(const std::string& name) const {
  std::string known;
  for (const auto& e : entries_) {
    if (e.name == name) return e;
    known += (known.empty() ? "" : ", ") + e.name;
  }
  throw std::invalid_argument("unknown scenario kind '" + name +
                              "'; known: " + known);
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.name);
  return out;
}

std::string kinds_reference() {
  KeyTable shared;
  ScenarioContext ctx;
  declare_shared_keys(shared, &ctx);
  std::string out =
      "every kind: [experiment], plus the optional [aqm] (not rdcn) and "
      "[telemetry]\n" +
      format_keys(shared.keys());
  for (const auto& kind : ScenarioRegistry::instance().entries()) {
    KeyTable keys;
    kind.make()->declare(keys);
    out += "\n" + kind.name + "\n  " + kind.summary + "\n" +
           format_keys(keys.keys());
  }
  return out;
}

RunnerConfig load_runner_config(const ConfigFile& file,
                                const RunnerLoadOptions& options) {
  if (file.find("experiment") == nullptr) {
    throw ConfigError(file.origin() + ": missing [experiment] section");
  }
  // One fresh object per point, each declared and bound from a table
  // that reads its entry; point 0's table counts the points.
  RunnerConfig rc;
  std::shared_ptr<ScenarioConfig> front;
  std::map<std::string, std::size_t> names;
  for (std::size_t i = 0, n = 1; i < n; ++i) {
    KeyTable keys(file, i);
    ScenarioContext ctx;
    declare_shared_keys(keys, &ctx);
    if (options.force_telemetry) ctx.telemetry.enabled = true;
    // A label names a table row or column.
    check_distinct(keys, &ctx.scheme_labels, ctx.scheme_labels, as_is,
                   "give each run its own label, with a [cc.<label>] "
                   "section's scheme = naming the scheme");
    for (const auto& label : ctx.scheme_labels) {
      ctx.schemes.push_back(
          resolve_scheme(file, label, keys, &ctx.scheme_labels));
    }

    std::unique_ptr<ScenarioConfig> scenario =
        ScenarioRegistry::instance().at(ctx.kind).make();
    scenario->schemes = ctx.schemes;
    scenario->slug_prefix = ctx.slug_prefix;
    scenario->declare(keys);
    n = keys.points();
    auto* point = dynamic_cast<PointsConfig*>(scenario.get());
    if (n > 1 && point == nullptr) {
      keys.reject_points("lists one value per point, but kind '" + ctx.kind +
                         "' writes no table per point");
    }
    try {
      scenario->bind(ctx, keys);
    } catch (const ConfigError& e) {
      if (n == 1) throw;
      throw ConfigError(std::string(e.what()) + " (at entry " +
                        std::to_string(i + 1) + " of the listed keys)");
    }
    keys.finish();

    // Reject sections no declaration named (typos, or [cc.X] for a
    // scheme the `schemes` list does not run).
    std::vector<std::string> known = keys.sections();
    for (const auto& label : ctx.scheme_labels) known.push_back("cc." + label);
    for (const auto& sec : file.sections()) {
      if (std::find(known.begin(), known.end(), sec.name) == known.end()) {
        throw ConfigError(file.origin() + ":" + std::to_string(sec.line) +
                          ": unused section [" + sec.name + "]");
      }
    }
    if (point != nullptr) {
      const auto [at, fresh] = names.emplace(point->point_name(), i);
      if (!fresh) {
        keys.reject_points("makes entries " + std::to_string(at->second + 1) +
                           " and " + std::to_string(i + 1) +
                           " write one table or column, '" + at->first +
                           "'");
      }
    }
    if (i == 0) {
      rc.kind = ctx.kind;
      front = std::move(scenario);
    } else {
      static_cast<PointsConfig&>(*front).next.push_back(std::move(scenario));
    }
  }
  rc.scenario = std::move(front);
  return rc;
}

std::vector<ResultTable> run_config(const RunnerConfig& cfg,
                                    const SweepRunner& runner) {
  if (!cfg.scenario) {
    throw std::logic_error("run_config: RunnerConfig carries no scenario");
  }
  std::vector<ResultTable> tables = cfg.scenario->run(runner);
  // A backstop behind the load checks: a repeated slug would make the
  // CSV's (table, point, metric) keys ambiguous.
  std::set<std::string> slugs;
  for (const ResultTable& t : tables) {
    if (!slugs.insert(t.slug).second) {
      throw std::logic_error("run_config: two tables have slug " + t.slug);
    }
  }
  return tables;
}

// ---- built-in kind execution --------------------------------------

ResultTable FatTreeKindConfig::load_table() const {
  const FatTreeExperiment& p = fat_tree;
  ResultTable t;
  char buf[64];
  std::snprintf(buf, sizeof(buf), ", p%.1f slowdown per size bucket",
                percentile);
  t.title = fat_tree_point_text(p) + buf;
  std::snprintf(buf, sizeof(buf), "_load%.0f", p.uplink_load * 100);
  t.slug = slug_prefix + buf;
  if (p.incast) {
    t.slug += "_incast" + g_text(p.incast_requests_per_sec) + "x" +
              g_text(static_cast<double>(p.incast_request_bytes) / 1e3) + "kb";
  }
  t.key_columns = {"algorithm"};
  for (const auto& b : stats::paper_size_buckets()) {
    t.value_columns.push_back(b.label);
  }
  t.value_columns.insert(t.value_columns.end(),
                         {"allP50", "drops", "flows", "done%"});
  return t;
}

std::vector<ResultTable> FatTreeKindConfig::run(
    const SweepRunner& runner) const {
  // A job keeps only its row cells and flight series, not the whole
  // ExperimentResult.
  const std::vector<const FatTreeKindConfig*> points =
      this->points<FatTreeKindConfig>();
  const std::vector<FctPoint> results = map_points(
      runner, points, schemes,
      [pct = percentile](const FatTreeKindConfig& p, const SchemeRun& s) {
        ExperimentResult r = run_fat_tree_experiment(p.fat_tree, s);
        return FctPoint{fct_row(r, p.fat_tree.size_scale, pct),
                        occupancy_row(r.uplink_queue_bytes),
                        std::move(r.flight)};
      });

  std::vector<ResultTable> tables;
  for (std::size_t p = 0; p < points.size(); ++p) {
    ResultTable fct = points[p]->load_table();
    ResultTable occupancy;
    occupancy.title = fat_tree_point_text(points[p]->fat_tree) +
                      ": ToR-uplink buffer occupancy (KB at CDF points)";
    occupancy.slug = fct.slug + "_occupancy";
    occupancy.key_columns = {"algorithm"};
    for (const auto& nv : stats::SampleSummary{}.named_values()) {
      occupancy.value_columns.push_back(nv.first);
    }
    const std::size_t at = p * schemes.size();
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      const Cell name(schemes[i].display());
      fct.rows.push_back({{name}, results[at + i].values});
      occupancy.rows.push_back({{name}, results[at + i].occupancy});
    }
    tables.push_back(std::move(fct));
    append_flight_tables(tables, results, at, schemes, tables.back().slug,
                         "first ToR uplink + tapped flow");
    tables.push_back(std::move(occupancy));
  }
  return tables;
}

std::string IncastKindConfig::point_name() const {
  return query_bytes > 0 ? slug_prefix + "_query" +
                               std::to_string(query_bytes / 1000) + "kb"
                         : slug_prefix + "_" +
                               std::to_string(incast.long_companions) + "to1";
}

std::vector<ResultTable> IncastKindConfig::run(
    const SweepRunner& runner) const {
  const std::vector<const IncastKindConfig*> points =
      this->points<IncastKindConfig>();
  const std::vector<IncastSeries> series = map_points(
      runner, points, schemes,
      [](const IncastKindConfig& p, const SchemeRun& s) {
        return run_incast_scenario(p.incast, s);
      });

  // Fig. 4-style tables: time rows, per-scheme goodput/queue columns.
  std::vector<ResultTable> tables;
  for (std::size_t q = 0; q < points.size(); ++q) {
    const IncastScenario& p = points[q]->incast;
    const std::int64_t query_bytes = points[q]->query_bytes;
    const std::size_t at = q * schemes.size();
    ResultTable t;
    char title[96];
    const auto burst_us = static_cast<long long>(p.burst_at / sim::kPsPerUs);
    if (query_bytes > 0) {
      const std::string companions =
          p.long_companions > 0
              ? std::to_string(p.long_companions) + " long flows + "
              : "";
      std::snprintf(title, sizeof(title),
                    "%s%d:1 query incast (%lld KB total) at t=%lldus",
                    companions.c_str(), p.fan_in,
                    static_cast<long long>(query_bytes / 1000), burst_us);
    } else {
      std::snprintf(title, sizeof(title),
                    "%d:1 incast of long flows at t=%lldus",
                    p.long_companions, burst_us);
    }
    t.slug = points[q]->point_name();
    t.title = title;
    t.key_columns = {"time"};
    for (const auto& s : schemes) {
      t.value_columns.push_back(s.display() + " gbps");
      t.value_columns.push_back(s.display() + " qKB");
    }
    for (std::size_t b = 0; b < series[at].gbps.size(); b += 2) {
      ResultTable::Row row;
      row.keys = {Cell(sim::format_time(static_cast<sim::TimePs>(b) * p.bin))};
      for (std::size_t i = at; i < at + schemes.size(); ++i) {
        row.values.push_back(Cell(series[i].gbps[b], 1));
        row.values.push_back(Cell(series[i].queue_kb[b], 1));
      }
      t.rows.push_back(std::move(row));
    }
    ResultTable summary;
    summary.title = t.title + ": burst summary (receiver ToR downlink)";
    summary.slug = t.slug + "_summary";
    summary.key_columns = {"scheme"};
    summary.value_columns = {"peakQ(KB)", "settle(us)", "residualQ(KB)",
                             "drops", "goodput(Gbps)"};
    const auto opt = [](const std::optional<double>& v, int decimals) {
      return v ? Cell(*v, decimals) : Cell();
    };
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      const IncastSeries& r = series[at + i];
      ResultTable::Row row;
      row.keys = {Cell(schemes[i].display())};
      row.values = {Cell(r.peak_queue_kb, 1), opt(r.settle_us, 1),
                    opt(r.residual_queue_kb, 2),
                    Cell::integer(static_cast<std::int64_t>(r.drops)),
                    Cell(r.mean_goodput_gbps, 1)};
      summary.rows.push_back(std::move(row));
    }
    tables.push_back(std::move(t));
    append_flight_tables(tables, series, at, schemes, tables.back().slug,
                         "receiver ToR downlink + long flow");
    tables.push_back(std::move(summary));
  }
  return tables;
}

std::string RdcnKindConfig::point_name() const {
  return Cell(rdcn.topo.packet_bw.gbps_value(), 0).render() + "G p99us";
}

std::vector<ResultTable> RdcnKindConfig::run(const SweepRunner& runner) const {
  // The time series reads the first point's results and the latency
  // table reads all of them. The flight tap rides the first point (this
  // one); it is read-only, so its latencies are those of an untapped
  // run.
  const std::vector<const RdcnKindConfig*> points =
      this->points<RdcnKindConfig>();
  const std::vector<RdcnResult> results = map_points(
      runner, points, schemes,
      [this](const RdcnKindConfig& p, const SchemeRun& s) {
        RdcnScenario cfg = p.rdcn;
        cfg.telemetry.enabled = cfg.telemetry.enabled && &p == this;
        return run_rdcn_scenario(cfg, s);
      });

  // Fig. 8a: time rows, per-scheme goodput/VOQ columns, plus a trailing
  // row of day-time circuit utilization (a row keeps it in CSV/JSON).
  ResultTable series;
  char title[128];
  std::snprintf(title, sizeof(title),
                "rack0 -> rack1 throughput / VOQ time series "
                "(%.0fG packet plane, %.0fG circuit)",
                rdcn.topo.packet_bw.gbps_value(),
                rdcn.topo.circuit_bw.gbps_value());
  series.title = title;
  series.slug = slug_prefix + "_timeseries";
  series.key_columns = {"time"};
  for (const auto& s : schemes) {
    series.value_columns.push_back(s.display() + " gbps");
    series.value_columns.push_back(s.display() + " voqKB");
  }
  for (std::size_t b = 0; b < results.front().gbps.size(); b += 2) {
    ResultTable::Row row;
    row.keys = {Cell(sim::format_time(static_cast<sim::TimePs>(b) * rdcn.bin))};
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      row.values.push_back(Cell(results[i].gbps[b], 1));
      row.values.push_back(Cell(results[i].voq_kb[b], 1));
    }
    series.rows.push_back(std::move(row));
  }
  ResultTable::Row util;
  util.keys = {Cell(std::string("util%"))};
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    util.values.push_back(Cell(results[i].circuit_utilization * 100, 0));
    util.values.push_back(Cell());
  }
  series.rows.push_back(std::move(util));
  std::vector<ResultTable> tables;
  tables.push_back(std::move(series));
  append_flight_tables(tables, results, 0, schemes, tables.back().slug,
                       "ToR-0 circuit port + tapped rack-0 flow");

  // Fig. 8b: one row per scheme, p99 ToR queuing latency per bandwidth.
  ResultTable p99;
  p99.title = "p99 ToR queuing latency (us) vs packet bandwidth";
  p99.slug = slug_prefix + "_p99";
  p99.key_columns = {"scheme"};
  for (const RdcnKindConfig* point : points) {
    p99.value_columns.push_back(point->point_name());
  }
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    ResultTable::Row row;
    row.keys = {Cell(schemes[i].display())};
    for (std::size_t g = 0; g < points.size(); ++g) {
      row.values.push_back(
          Cell(results[g * schemes.size() + i].p99_sojourn_us, 1));
    }
    p99.rows.push_back(std::move(row));
  }
  tables.push_back(std::move(p99));
  return tables;
}

std::vector<ResultTable> DumbbellKindConfig::run(
    const SweepRunner& runner) const {
  return dumbbell_fairness_tables(runner, dumbbell, schemes, slug_prefix);
}

std::vector<ResultTable> HomaOcKindConfig::run(
    const SweepRunner& runner) const {
  return homa_oc_tables(runner, homa_oc, schemes, slug_prefix);
}

std::vector<ResultTable> MixedCcKindConfig::run(
    const SweepRunner& runner) const {
  return mixed_cc_tables(runner, mixed, slug_prefix);
}

std::vector<ResultTable> FluidPhaseKindConfig::run(
    const SweepRunner&) const {
  analysis::FluidParams p;
  p.bandwidth_Bps = bandwidth_gbps * 1e9 / 8.0;
  p.base_rtt_s = base_rtt_us * 1e-6;
  p.gamma = gamma;
  p.update_interval_s = update_interval_us * 1e-6;
  p.beta_bytes = beta_frac * p.bdp_bytes();
  const double bdp = p.bdp_bytes();

  // Fig. 3's three panels: (a) voltage dips below the BDP line, (b)
  // current settles at initial-state-dependent queues, (c) power is
  // unique and undershoot-free.
  const struct {
    analysis::LawType law;
    const char* slug;
  } laws[] = {{analysis::LawType::kQueueLength, "voltage"},
              {analysis::LawType::kRttGradient, "current"},
              {analysis::LawType::kPower, "power"}};

  std::vector<ResultTable> tables;
  ResultTable summary;
  summary.slug = slug_prefix + "_summary";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "Fig. 3 summary: final-queue spread and worst inflight "
                "(b=%.0fG tau=%.0fus BDP=%.0f KB beta=%.1f KB)",
                bandwidth_gbps, base_rtt_us, bdp / 1e3,
                p.beta_bytes / 1e3);
  summary.title = buf;
  summary.key_columns = {"law"};
  summary.value_columns = {"spreadBDP", "minInflBDP", "verdict", "eqW_BDP",
                           "eqQ_BDP"};

  for (const auto& lr : laws) {
    const analysis::FluidModel model(lr.law, p);
    ResultTable t;
    std::snprintf(buf, sizeof(buf),
                  "Fig. 3 phase portrait: %s, %zu initial states",
                  std::string(analysis::law_name(lr.law)).c_str(),
                  grid_w_bdp.size());
    t.title = buf;
    t.slug = slug_prefix + "_" + lr.slug;
    t.key_columns = {"initW_BDP", "initQ_BDP"};
    t.value_columns = {"finalW_BDP", "finalQ_BDP", "minInflBDP"};
    double min_final_q = 1e300;
    double max_final_q = -1e300;
    double worst_undershoot = 1e300;
    for (std::size_t i = 0; i < grid_w_bdp.size(); ++i) {
      const analysis::FluidState init{grid_w_bdp[i] * bdp,
                                      grid_q_bdp[i] * bdp};
      const auto traj =
          model.trajectory(init, duration_ms * 1e-3, step_us * 1e-6,
                           sample_us * 1e-6);
      // Undershoot only counts once the system is past the initial
      // transient toward the line.
      double min_inflight = 1e300;
      for (const auto& pt : traj) {
        if (pt.t > 5 * p.base_rtt_s) {
          min_inflight = std::min(min_inflight, pt.inflight_bytes);
        }
      }
      const analysis::FluidState fin = traj.back().state;
      min_final_q = std::min(min_final_q, fin.q_bytes);
      max_final_q = std::max(max_final_q, fin.q_bytes);
      worst_undershoot = std::min(worst_undershoot, min_inflight);
      ResultTable::Row row;
      row.keys = {Cell(grid_w_bdp[i], 2), Cell(grid_q_bdp[i], 2)};
      row.values = {Cell(fin.w_bytes / bdp, 3), Cell(fin.q_bytes / bdp, 3),
                    Cell(min_inflight / bdp, 3)};
      t.rows.push_back(std::move(row));
    }
    ResultTable::Row srow;
    srow.keys = {Cell(std::string(lr.slug))};
    srow.values = {
        Cell((max_final_q - min_final_q) / bdp, 3),
        Cell(worst_undershoot / bdp, 3),
        Cell(std::string(worst_undershoot < 0.97 * bdp ? "loss"
                                                       : "no loss"))};
    if (model.has_unique_equilibrium()) {
      const analysis::FluidState eq = model.analytic_equilibrium();
      srow.values.push_back(Cell(eq.w_bytes / bdp, 3));
      srow.values.push_back(Cell(eq.q_bytes / bdp, 3));
    } else {
      // No unique equilibrium (Appendix C) — the current-law defect.
      srow.values.push_back(Cell());
      srow.values.push_back(Cell());
    }
    summary.rows.push_back(std::move(srow));
    tables.push_back(std::move(t));
  }
  tables.push_back(std::move(summary));

  {
    ResultTable t;
    t.title =
        "Theorems 1-2: PowerTCP linearization eigenvalues (negative -> "
        "stable) and convergence time constant";
    t.slug = slug_prefix + "_stability";
    t.key_columns = {"quantity"};
    t.value_columns = {"value"};
    const auto eig = analysis::power_tcp_eigenvalues(p);
    const auto add = [&t](const char* name, Cell value) {
      ResultTable::Row row;
      row.keys = {Cell(std::string(name))};
      row.values = {std::move(value)};
      t.rows.push_back(std::move(row));
    };
    add("T1 eigenvalue 1 (1/s)", Cell(eig[0], 0));
    add("T1 eigenvalue 2 (1/s)", Cell(eig[1], 0));
    add("T2 dt/gamma (us)", Cell(p.update_interval_s / p.gamma * 1e6, 2));
    tables.push_back(std::move(t));
  }
  return tables;
}

std::vector<ResultTable> SingleFlowKindConfig::run(
    const SweepRunner&) const {
  analysis::FluidParams p;
  p.bandwidth_Bps = bandwidth_gbps * 1e9 / 8.0;
  const double pkt = packet_kb * 1e3;
  p.base_rtt_s = bdp_packets * pkt / p.bandwidth_Bps;
  // One cell triple per bottleneck state (q, q̇): the decrease factor
  // of each law, µ fixed at line rate as in Fig. 2.
  const auto laws = [&](double q_bytes, double q_dot_Bps) {
    return std::vector<Cell>{
        Cell(analysis::feedback_ratio(analysis::LawType::kQueueLength, p,
                                      q_bytes, q_dot_Bps, p.bandwidth_Bps),
             2),
        Cell(analysis::feedback_ratio(analysis::LawType::kRttGradient, p,
                                      q_bytes, q_dot_Bps, p.bandwidth_Bps),
             2),
        Cell(analysis::feedback_ratio(analysis::LawType::kPower, p, q_bytes,
                                      q_dot_Bps, p.bandwidth_Bps),
             2)};
  };

  std::vector<ResultTable> tables;
  char buf[128];
  {
    ResultTable t;
    std::snprintf(buf, sizeof(buf),
                  "Fig. 2a: multiplicative decrease vs queue buildup rate "
                  "(queue fixed at %.0f pkts)",
                  hold_queue_pkts);
    t.title = buf;
    t.slug = slug_prefix + "_vs_rate";
    t.key_columns = {"rate (x bw)"};
    t.value_columns = {"voltage-CC", "gradient-CC", "power-CC"};
    for (double r = 0.0; r <= rate_max_x + 0.01; r += 1.0) {
      ResultTable::Row row;
      row.keys = {Cell(r, 0)};
      row.values = laws(hold_queue_pkts * pkt, r * p.bandwidth_Bps);
      t.rows.push_back(std::move(row));
    }
    tables.push_back(std::move(t));
  }
  {
    ResultTable t;
    std::snprintf(buf, sizeof(buf),
                  "Fig. 2b: multiplicative decrease vs queue length "
                  "(buildup rate fixed at %.0fx bw)",
                  hold_rate_x);
    t.title = buf;
    t.slug = slug_prefix + "_vs_queue";
    t.key_columns = {"queue (pkts)"};
    t.value_columns = {"voltage-CC", "gradient-CC", "power-CC"};
    for (double q = 0.0; q <= queue_max_pkts + 0.01; q += queue_step_pkts) {
      ResultTable::Row row;
      row.keys = {Cell(q, 0)};
      row.values = laws(q * pkt, hold_rate_x * p.bandwidth_Bps);
      t.rows.push_back(std::move(row));
    }
    tables.push_back(std::move(t));
  }
  {
    // Fig. 2c: voltage cannot tell case-2 from case-3, current cannot
    // tell case-1 from case-3; power separates all three.
    ResultTable t;
    t.title = "Fig. 2c: three scenarios (voltage 3.24/2.12/2.12, current "
              "9/1/9; only power separates all three)";
    t.slug = slug_prefix + "_three_cases";
    t.key_columns = {"scenario"};
    t.value_columns = {"voltage", "current", "power"};
    const struct {
      const char* desc;
      double q_pkts;
      double rate_x;  // queue buildup in multiples of bandwidth
    } cases[] = {
        {"case-1: q=50 pkts, increasing at 8x", 50, 8},
        {"case-2: q=25 pkts, draining at max rate", 25, 0},
        {"case-3: q=25 pkts, increasing at 8x", 25, 8},
    };
    for (const auto& c : cases) {
      ResultTable::Row row;
      row.keys = {Cell(std::string(c.desc))};
      row.values = laws(c.q_pkts * pkt, c.rate_x * p.bandwidth_Bps);
      t.rows.push_back(std::move(row));
    }
    tables.push_back(std::move(t));
  }
  return tables;
}

}  // namespace powertcp::harness
