#include "topo/dumbbell.hpp"

#include <string>

namespace powertcp::topo {

Dumbbell::Dumbbell(net::Network& network, const DumbbellConfig& cfg)
    : net_(network), cfg_(cfg) {
  net::SwitchConfig sc;
  const double total_gbps = cfg_.n_senders * cfg_.host_bw.gbps_value() +
                            cfg_.bottleneck_bw.gbps_value();
  sc.buffer_bytes = cfg_.buffer_bytes > 0
                        ? cfg_.buffer_bytes
                        : static_cast<std::int64_t>(total_gbps * 10'000.0);
  sc.dt_alpha = cfg_.dt_alpha;
  sc.int_enabled = cfg_.int_enabled;
  sc.ecn = cfg_.ecn;
  sc.ecn_per_gbps = cfg_.ecn.enabled;
  sc.aqm = cfg_.aqm;
  sc.priority_bands = cfg_.priority_bands;
  sw_ = net_.add_node<net::Switch>("bottleneck", sc);

  for (int i = 0; i < cfg_.n_senders; ++i) {
    host::Host* h = net_.add_node<host::Host>("s" + std::to_string(i));
    senders_.push_back(h);
    net_.connect(*sw_, *h, cfg_.host_bw, cfg_.link_delay);
  }
  receiver_ = net_.add_node<host::Host>("recv");
  const auto link =
      net_.connect(*sw_, *receiver_, cfg_.bottleneck_bw, cfg_.link_delay);
  bottleneck_port_ = link.a_port;

  net_.compute_routes();
}

net::EgressPort& Dumbbell::bottleneck_port() {
  return sw_->port(bottleneck_port_);
}

sim::TimePs Dumbbell::base_rtt(std::int32_t mss) const {
  const std::int64_t data_bytes = mss + net::kHeaderBytes;
  const sim::TimePs data_ser = cfg_.host_bw.tx_time(data_bytes) +
                               cfg_.bottleneck_bw.tx_time(data_bytes);
  const sim::TimePs ack_ser =
      cfg_.host_bw.tx_time(net::kHeaderBytes) +
      cfg_.bottleneck_bw.tx_time(net::kHeaderBytes);
  return 4 * cfg_.link_delay + data_ser + ack_ser;
}

}  // namespace powertcp::topo
