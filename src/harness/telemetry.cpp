#include "harness/telemetry.hpp"

#include <cstddef>

#include "harness/scenarios.hpp"
#include "harness/sweep.hpp"
#include "host/flow.hpp"
#include "host/host.hpp"
#include "net/egress_port.hpp"

namespace powertcp::harness {

namespace {

// One shared channel schema so series from every kind line up in the
// CSV long format (table,point,metric,value with point = time).
constexpr const char* kChannelNames[] = {"qKB", "power", "cwndKB",
                                         "paceGbps", "ecn"};
constexpr int kChannelPrecision[] = {2, 3, 2, 2, 0};
constexpr std::size_t kChannels = 5;

}  // namespace

void declare_telemetry_keys(KeyTable& k, TelemetryConfig* cfg) {
  k.flag("telemetry", "enabled", &cfg->enabled);
  k.count("telemetry", "capacity", &cfg->capacity,
          Bound::at_least(2).upto(1e6));
  k.us("telemetry", "sample_every_us", &cfg->sample_every,
       /*positive=*/true);
  k.count("telemetry", "flow", &cfg->flow, Bound::at_least(1));
}

FlightTap::FlightTap(const TelemetryConfig& cfg, sim::Simulator& sim,
                     net::EgressPort& port, host::Host* flow_host,
                     std::int64_t flow, sim::TimePs tau, sim::TimePs until)
    : sim_(sim),
      port_(port),
      flow_host_(flow_host),
      flow_(flow),
      bandwidth_Bps_(port.bandwidth().bps() / 8.0),
      tau_s_(sim::to_seconds(tau)),
      recorder_(static_cast<std::size_t>(cfg.capacity)) {
  recorder_.add_channel(kChannelNames[0], [this] {
    return static_cast<double>(port_.queue_bytes()) / 1e3;
  });
  recorder_.add_channel(kChannelNames[1], [this] { return power_probe(); });
  recorder_.add_channel(kChannelNames[2], [this] {
    const host::FlowSender* s =
        flow_host_ == nullptr
            ? nullptr
            : flow_host_->sender(static_cast<net::FlowId>(flow_));
    return s == nullptr ? 0.0 : s->cwnd_bytes() / 1e3;
  });
  recorder_.add_channel(kChannelNames[3], [this] {
    const host::FlowSender* s =
        flow_host_ == nullptr
            ? nullptr
            : flow_host_->sender(static_cast<net::FlowId>(flow_));
    return s == nullptr ? 0.0 : s->pacing_bps() / 1e9;
  });
  recorder_.add_channel(kChannelNames[4], [this] {
    return static_cast<double>(port_.ecn_marks());
  });
  recorder_.arm(sim, cfg.sample_every, until);
}

/// Normalized power between consecutive ticks: current λ is the
/// arrival rate seen by the queue (backlog growth plus what the port
/// transmitted), voltage ν = q + b·τ, and the normalizer e = b²·τ is
/// the equilibrium power at an empty queue — so 1.0 means "line rate,
/// no standing queue" (§3.1). The first tick has no rate window and
/// reports the true initial state, λ = 0.
double FlightTap::power_probe() {
  const sim::TimePs t = sim_.now();
  const std::int64_t q = port_.queue_bytes();
  const std::int64_t tx = port_.tx_bytes();
  double lambda_Bps = 0;
  if (have_prev_ && t > prev_t_) {
    const double dt = sim::to_seconds(t - prev_t_);
    lambda_Bps = (static_cast<double>(q - prev_q_) +
                  static_cast<double>(tx - prev_tx_)) /
                 dt;
  }
  have_prev_ = true;
  prev_t_ = t;
  prev_q_ = q;
  prev_tx_ = tx;
  const double voltage = static_cast<double>(q) + bandwidth_Bps_ * tau_s_;
  const double e = bandwidth_Bps_ * bandwidth_Bps_ * tau_s_;
  return e > 0 ? lambda_Bps * voltage / e : 0.0;
}

TelemetrySeries FlightTap::series() {
  recorder_.finalize();
  TelemetrySeries out;
  out.channels.assign(kChannelNames, kChannelNames + kChannels);
  out.precision.assign(kChannelPrecision, kChannelPrecision + kChannels);
  out.time.reserve(recorder_.size());
  for (std::size_t i = 0; i < recorder_.size(); ++i) {
    out.time.push_back(recorder_.time(i));
  }
  out.values.resize(kChannels);
  for (std::size_t c = 0; c < kChannels; ++c) {
    out.values[c].reserve(recorder_.size());
    for (std::size_t i = 0; i < recorder_.size(); ++i) {
      out.values[c].push_back(recorder_.value(c, i));
    }
  }
  return out;
}

ResultTable flight_table(const TelemetrySeries& series,
                         const std::string& slug, const std::string& title) {
  ResultTable t;
  t.title = title;
  t.slug = slug;
  t.key_columns = {"time"};
  t.value_columns = series.channels;
  for (std::size_t i = 0; i < series.time.size(); ++i) {
    ResultTable::Row row;
    row.keys = {Cell(sim::format_time(series.time[i]))};
    for (std::size_t c = 0; c < series.channels.size(); ++c) {
      row.values.push_back(Cell(series.values[c][i], series.precision[c]));
    }
    t.rows.push_back(std::move(row));
  }
  return t;
}

}  // namespace powertcp::harness
