#include "harness/runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "analysis/control_law.hpp"
#include "analysis/fluid_model.hpp"
#include "analysis/theorems.hpp"
#include "cc/mix.hpp"
#include "cc/registry.hpp"
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
    std::string why = "names scheme '" + run.scheme + "' (" + label +
                      "), which is not registered; known:";
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

/// The fat-tree keys of fat_tree, incast and homa_oc: the shard count
/// (only these kinds have a cut), the [topology] preset, then
/// per-field overrides.
void declare_fat_tree_topology(KeyTable& k, int* sim_threads,
                               std::string* preset, topo::FatTreeConfig* cfg) {
  k.count(kExp, "sim_threads", sim_threads, Bound::at_least(1).upto(64));
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

/// Rejects a fat-tree outside the tie-token range (net::Node::
/// attach_port): more ports on a switch than net::kMaxPortsPerNode or
/// more nodes than net::kMaxNodes. The port checks bound every count
/// first, so the 64-bit node total cannot overflow.
void check_fat_tree_size(const KeyTable& k, const topo::FatTreeConfig& c) {
  const std::int64_t pods = c.pods, tors = c.tors_per_pod,
                     aggs = c.aggs_per_pod, cores = c.cores,
                     servers = c.servers_per_tor;
  const auto ports = [&](std::int64_t n, const char* node,
                         std::initializer_list<const void*> keys) {
    if (n > net::kMaxPortsPerNode) {
      k.reject(first_given(k, keys),
               "gives each " + std::string(node) + " " + std::to_string(n) +
                   " ports; a node has at most " +
                   std::to_string(net::kMaxPortsPerNode));
    }
  };
  ports(servers + aggs, "ToR", {&c.servers_per_tor, &c.aggs_per_pod});
  // Agg a links to every core c with c % aggs_per_pod == a.
  ports(tors + (cores + aggs - 1) / aggs, "aggregation switch",
        {&c.tors_per_pod, &c.cores});
  ports(pods, "core", {&c.pods});
  const std::int64_t nodes =
      cores + pods * (aggs + tors) + pods * tors * servers;
  if (nodes > net::kMaxNodes) {
    k.reject(first_given(k, {&c.pods, &c.tors_per_pod, &c.servers_per_tor}),
             "gives " + std::to_string(nodes) +
                 " nodes; a network has at most " +
                 std::to_string(net::kMaxNodes));
  }
}

/// Rejects a query fan-in on a fat-tree (already size-checked) with no
/// host outside the receiver's rack other than the long sender: the
/// pool both fan-in scenarios draw responders from.
void check_fan_in_hosts(const KeyTable& k, const void* fan_in,
                        const topo::FatTreeConfig& c) {
  const std::int64_t hosts = static_cast<std::int64_t>(c.pods) *
                             c.tors_per_pod * c.servers_per_tor;
  if (hosts - c.servers_per_tor - 1 < 1) {
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

/// "20000", "1e+08", "6e+301": a count for an error message.
std::string count_text(double n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", n);
  return buf;
}

template <typename Kind>
ScenarioEntry builtin(std::string name, std::string summary) {
  return {std::move(name), std::move(summary),
          [] { return std::make_unique<Kind>(); }};
}

}  // namespace

void declare_shared_keys(KeyTable& k, ScenarioContext* ctx,
                         const ScenarioRegistry& registry) {
  k.choice(kExp, "kind", &ctx->kind, registry.names());
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
  k.real("aqm", "interval_us", &a.interval_us, kAqmUs);

  declare_telemetry_keys(k, &ctx->telemetry);
}

// ---- per-kind key tables ------------------------------------------
// declare() is each kind's whole [topology]/[workload] schema; bind()
// copies in the shared context and holds the only checks that span
// several keys.

void FatTreeKindConfig::declare(KeyTable& k) {
  declare_fat_tree_topology(k, &fat_tree.sim_threads, &preset,
                            &fat_tree.topo);
  k.real(kWork, "loads", &loads, Bound::above(0).upto(1));
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
  check_fat_tree_size(k, fat_tree.topo);
  schemes = ctx.schemes;
  slug_prefix = ctx.slug_prefix;
  percentile = ctx.percentile;
  fat_tree.seed = static_cast<std::uint64_t>(ctx.seed);
  fat_tree.telemetry = ctx.telemetry;
  fat_tree.topo.aqm = ctx.aqm;
}

void IncastKindConfig::declare(KeyTable& k) {
  declare_fat_tree_topology(k, &incast.sim_threads, &preset, &incast.topo);
  k.size(kWork, "query_kb", &query_bytes, Size::kKB, /*zero_ok=*/true);
  k.count(kWork, "fan_in", &fan_in, Bound::at_least(0));
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
  check_fat_tree_size(k, incast.topo);
  schemes = ctx.schemes;
  slug_prefix = ctx.slug_prefix;
  incast.telemetry = ctx.telemetry;
  incast.topo.aqm = ctx.aqm;
  if (fan_in.size() != query_bytes.size() && fan_in.size() != 1) {
    k.reject(&fan_in,
             "must list one value or one per " + k.name(&query_bytes) +
                 " entry");
  }
  for (std::size_t i = 0; i < query_bytes.size(); ++i) {
    if (query_bytes[i] > 0 && fan_in[fan_in.size() == 1 ? 0 : i] < 1) {
      k.reject(&fan_in, "must be >= 1 where " + k.name(&query_bytes) +
                            " > 0 (the query is split across the fan-in)");
    }
    if (query_bytes[i] > 0) check_fan_in_hosts(k, &fan_in, incast.topo);
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
  k.gbps(kWork, "packet_gbps", &packet_gbps);
  k.size(kWork, "flow_mb", &rdcn.flow_bytes, Size::kMB);
  k.ms(kWork, "horizon_ms", &rdcn.horizon);
  k.us(kWork, "bin_us", &rdcn.bin, /*positive=*/true);
  k.count(kWork, "expected_flows", &rdcn.expected_flows, Bound::at_least(1));
}

void RdcnKindConfig::bind(const ScenarioContext& ctx, const KeyTable&) {
  schemes = ctx.schemes;
  slug_prefix = ctx.slug_prefix;
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
  check_dumbbell_senders(k, &dumbbell.flow_bytes, dumbbell.flow_bytes.size());
  schemes = ctx.schemes;
  slug_prefix = ctx.slug_prefix;
  dumbbell.telemetry = ctx.telemetry;
  dumbbell.topo.aqm = ctx.aqm;
}

void HomaOcKindConfig::declare(KeyTable& k) {
  HomaOcScenario& h = homa_oc;
  declare_fat_tree_topology(k, &h.sim_threads, &preset, &h.incast_topo);
  k.count(kWork, "overcommit", &h.overcommit, Bound::at_least(1));
  k.count(kWork, "fan_in", &h.fan_in, Bound::at_least(1));
  k.size(kWork, "flow_mb", &h.fairness.flow_bytes, Size::kMB);
  k.us(kWork, "stagger_us", &h.fairness.stagger);
  k.ms(kWork, "fairness_horizon_ms", &h.fairness.horizon);
  k.us(kWork, "fairness_bin_us", &h.fairness.bin, /*positive=*/true);
  k.count(kWork, "fairness_row_every", &h.fairness.row_stride,
          Bound::at_least(1));
  k.size(kWork, "long_message_mb", &h.long_message_bytes, Size::kMB);
  k.size(kWork, "burst_kb", &h.burst_message_bytes, Size::kKB);
  k.us(kWork, "burst_at_us", &h.burst_at);
  k.ms(kWork, "incast_horizon_ms", &h.incast_horizon);
  k.us(kWork, "incast_bin_us", &h.incast_bin, /*positive=*/true);
}

void HomaOcKindConfig::bind(const ScenarioContext& ctx, const KeyTable& k) {
  check_fat_tree_size(k, homa_oc.incast_topo);
  check_fan_in_hosts(k, &homa_oc.fan_in, homa_oc.incast_topo);
  check_dumbbell_senders(k, &homa_oc.fairness.flow_bytes,
                         homa_oc.fairness.flow_bytes.size());
  schemes = ctx.schemes;
  slug_prefix = ctx.slug_prefix;
  homa_oc.telemetry = ctx.telemetry;
  homa_oc.incast_topo.aqm = ctx.aqm;
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

void SingleFlowKindConfig::bind(const ScenarioContext& ctx,
                                const KeyTable& k) {
  slug_prefix = ctx.slug_prefix;
  const auto too_many = [&k](const void* field, double rows) {
    if (rows > kMaxReactionRows) {
      k.reject(field, "implies " + count_text(rows) +
                          " table rows; the cap is " +
                          count_text(kMaxReactionRows));
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
  slug_prefix = ctx.slug_prefix;
  mixed.seed = static_cast<std::uint64_t>(ctx.seed);
  mixed.aqm = ctx.aqm;
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

void FluidPhaseKindConfig::bind(const ScenarioContext& ctx,
                                const KeyTable& k) {
  slug_prefix = ctx.slug_prefix;
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
               "implies " + count_text(n) + " " + what +
                   " per trajectory; the cap is " + count_text(cap));
    }
  };
  too_many(&step_us, kMaxFluidSteps, "Euler steps");
  too_many(&sample_us, kMaxFluidSamples, "samples");
}

void register_builtin_scenarios(ScenarioRegistry& registry) {
  registry.add(builtin<FatTreeKindConfig>(
      "fat_tree",
      "Fig. 6/7 FCT sweep: websearch fat-tree, tail slowdown per size "
      "bucket, one table per load"));
  registry.add(builtin<IncastKindConfig>(
      "incast",
      "Fig. 4 reaction to incast: long flow + N:1 burst on one downlink, "
      "goodput/queue time series per scheme"));
  registry.add(builtin<RdcnKindConfig>(
      "rdcn",
      "Fig. 8 reconfigurable-DCN case study: rack-to-rack series over the "
      "rotor schedule plus p99 ToR latency vs packet bandwidth"));
  registry.add(builtin<DumbbellKindConfig>(
      "dumbbell",
      "Fig. 5 fairness/stability: staggered flows over one bottleneck, "
      "per-flow goodput series, one table per scheme"));
  registry.add(builtin<HomaOcKindConfig>(
      "homa_oc",
      "Figs. 9-11 overcommitment sweep: message-transport fairness per "
      "level plus N:1 incast reaction summaries"));
  registry.add(builtin<SingleFlowKindConfig>(
      "single_flow",
      "Fig. 2 analytic reaction curves: multiplicative decrease of the "
      "voltage/current/power laws on one bottleneck (no simulation)"));
  registry.add(builtin<MixedCcKindConfig>(
      "mixed_cc",
      "brownfield coexistence: per-host CC mixes sharing one dumbbell, "
      "swept over (mix, aqm, rtt, buffer) cells into fairness/share/FCT "
      "tables"));
  registry.add(builtin<FluidPhaseKindConfig>(
      "fluid_phase",
      "Fig. 3 fluid-model phase portraits: per-law trajectories from a "
      "grid of initial states plus the Theorem 1/2 stability summary "
      "(no simulation)"));
}

std::string kinds_reference(const ScenarioRegistry& registry) {
  KeyTable shared;
  ScenarioContext ctx;
  declare_shared_keys(shared, &ctx, registry);
  std::string out =
      "every kind: [experiment], plus the optional [aqm] and [telemetry]\n" +
      format_keys(shared.keys());
  for (const auto& kind : registry.entries()) {
    KeyTable keys;
    kind.make()->declare(keys);
    out += "\n" + kind.name + "\n  " + kind.summary + "\n" +
           format_keys(keys.keys());
  }
  return out;
}

RunnerConfig load_runner_config(const ConfigFile& file,
                                const ScenarioRegistry& registry,
                                const RunnerLoadOptions& options) {
  if (file.find("experiment") == nullptr) {
    throw ConfigError(file.origin() + ": missing [experiment] section");
  }
  KeyTable keys(file);
  ScenarioContext ctx;
  declare_shared_keys(keys, &ctx, registry);
  if (options.force_telemetry) ctx.telemetry.enabled = true;
  for (const auto& label : ctx.scheme_labels) {
    ctx.schemes.push_back(
        resolve_scheme(file, label, keys, &ctx.scheme_labels));
  }

  std::unique_ptr<ScenarioConfig> scenario = registry.at(ctx.kind).make();
  scenario->declare(keys);
  if (options.force_sim_threads > 0) {
    int* sim_threads = scenario->sim_threads();
    if (sim_threads == nullptr) {
      std::string cut;
      for (const auto& kind : registry.entries()) {
        if (kind.make()->sim_threads() == nullptr) continue;
        cut += (cut.empty() ? "" : ", ") + kind.name;
      }
      throw ConfigError(file.origin() + ": --sim-threads: kind '" + ctx.kind +
                        "' has no shard cut (kinds with one: " + cut + ")");
    }
    *sim_threads = options.force_sim_threads;
  }
  scenario->bind(ctx, keys);
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
  RunnerConfig rc;
  rc.kind = ctx.kind;
  rc.scenario = std::move(scenario);
  return rc;
}

std::vector<ResultTable> run_config(const RunnerConfig& cfg,
                                    const SweepRunner& runner) {
  if (!cfg.scenario) {
    throw std::logic_error("run_config: RunnerConfig carries no scenario");
  }
  return cfg.scenario->run(runner);
}

// ---- built-in kind execution --------------------------------------

std::vector<ResultTable> FatTreeKindConfig::run(
    const SweepRunner& runner) const {
  std::vector<ResultTable> tables;
  for (const double load : loads) {
    SweepSpec spec =
        fct_sweep_spec(fat_tree, load, percentile, schemes, slug_prefix);
    if (!fat_tree.telemetry.enabled) {
      tables.push_back(runner.run(spec));
      continue;
    }
    // Collect per-point flight recordings by declaration index (the
    // observe hook runs on worker threads; slots don't alias).
    std::vector<TelemetrySeries> flights(spec.points.size());
    spec.observe = [&flights](std::size_t i, const FatTreeExperiment&,
                              const ExperimentResult& r) {
      flights[i] = r.flight;
    };
    tables.push_back(runner.run(spec));
    const std::string sweep_slug = tables.back().slug;
    for (std::size_t i = 0; i < flights.size(); ++i) {
      if (flights[i].empty()) continue;
      tables.push_back(flight_table(
          flights[i], sweep_slug + "_flight_" + schemes[i].display(),
          schemes[i].display() +
              " flight recorder (first ToR uplink + tapped flow)"));
    }
  }
  return tables;
}

std::vector<ResultTable> IncastKindConfig::run(
    const SweepRunner& runner) const {
  std::vector<ResultTable> tables;
  for (std::size_t i = 0; i < query_bytes.size(); ++i) {
    IncastScenario point = incast;
    point.query_bytes = query_bytes[i];
    point.fan_in = fan_in[fan_in.size() == 1 ? 0 : i];
    std::vector<ResultTable> flights;
    tables.push_back(
        incast_figure_table(runner, point, schemes, slug_prefix, &flights));
    for (auto& f : flights) tables.push_back(std::move(f));
  }
  return tables;
}

std::vector<ResultTable> RdcnKindConfig::run(const SweepRunner& runner) const {
  std::vector<ResultTable> tables;
  RdcnScenario series = rdcn;
  series.topo.packet_bw = sim::Bandwidth::gbps(packet_gbps.front());
  char title[128];
  std::snprintf(title, sizeof(title),
                "rack0 -> rack1 throughput / VOQ time series "
                "(%.0fG packet plane, %.0fG circuit)",
                packet_gbps.front(), series.topo.circuit_bw.gbps_value());
  std::vector<ResultTable> flights;
  tables.push_back(rdcn_timeseries_table(runner, series, schemes,
                                         slug_prefix + "_timeseries", title,
                                         &flights));
  for (auto& f : flights) tables.push_back(std::move(f));
  std::snprintf(title, sizeof(title),
                "p99 ToR queuing latency (us) vs packet bandwidth");
  tables.push_back(rdcn_latency_table(runner, rdcn, schemes, packet_gbps,
                                      slug_prefix + "_p99", title));
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

// ---- shared table builders ----------------------------------------

SweepSpec fct_sweep_spec(const FatTreeExperiment& base, double load,
                         double percentile,
                         const std::vector<SchemeRun>& schemes,
                         const std::string& slug_prefix) {
  SweepSpec sw;
  char title[128];
  std::snprintf(title, sizeof(title),
                "%.0f%% ToR-uplink load, websearch (x%.2f sizes), "
                "p%.1f slowdown per size bucket",
                load * 100, base.size_scale, percentile);
  sw.title = title;
  char slug[64];
  std::snprintf(slug, sizeof(slug), "%s_load%.0f", slug_prefix.c_str(),
                load * 100);
  sw.slug = slug;
  sw.key_columns = {"algorithm"};
  for (const auto& b : stats::paper_size_buckets()) {
    sw.value_columns.push_back(b.label);
  }
  sw.value_columns.insert(sw.value_columns.end(),
                          {"allP50", "drops", "flows", "done%"});
  for (const auto& scheme : schemes) {
    SweepPoint p;
    p.keys = {Cell(scheme.display())};
    p.cfg = base;
    p.cfg.cc = scheme.scheme;
    p.cfg.cc_params = scheme.params;
    p.cfg.uplink_load = load;
    sw.points.push_back(std::move(p));
  }
  const double size_scale = base.size_scale;
  sw.metrics = [size_scale, percentile](const FatTreeExperiment&,
                                        const ExperimentResult& r) {
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
  };
  return sw;
}

ResultTable incast_figure_table(const SweepRunner& runner,
                                const IncastScenario& cfg,
                                const std::vector<SchemeRun>& schemes,
                                const std::string& slug_prefix,
                                std::vector<ResultTable>* flight_out) {
  char title[96];
  std::string slug;
  const auto burst_us =
      static_cast<long long>(cfg.burst_at / sim::kPsPerUs);
  if (cfg.query_bytes > 0) {
    std::snprintf(title, sizeof(title),
                  "%d long flows + %d:1 query incast (%lld KB total) "
                  "at t=%lldus",
                  cfg.long_companions, cfg.fan_in,
                  static_cast<long long>(cfg.query_bytes / 1000), burst_us);
    // The query size keeps slugs unique when a config sweeps several
    // query points (CSV rows and the regression gate key on the slug).
    slug = slug_prefix + "_query" +
           std::to_string(cfg.query_bytes / 1000) + "kb";
  } else {
    std::snprintf(title, sizeof(title),
                  "%d:1 incast of long flows at t=%lldus",
                  cfg.long_companions, burst_us);
    slug = slug_prefix + "_" + std::to_string(cfg.long_companions) + "to1";
  }
  return incast_table(runner, cfg, schemes, slug, title, flight_out);
}

}  // namespace powertcp::harness
