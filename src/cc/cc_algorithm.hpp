#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string_view>

#include "net/packet.hpp"
#include "sim/time.hpp"

/// \file cc_algorithm.hpp
/// Sender-side congestion control interface. A flow owns one
/// CcAlgorithm; the host transport calls on_ack for every acknowledgment
/// and enforces the returned window and pacing rate.
///
/// All algorithms express both a congestion window (bytes) and a pacing
/// rate (bits/s). Window-based laws (PowerTCP, HPCC, DCTCP) set
/// rate = cwnd / τ as the paper does (Alg. 1, line 6); rate-based laws
/// (DCQCN, TIMELY) return a generous window and let pacing govern.

namespace powertcp::cc {

/// Static per-flow parameters handed to the algorithm at creation.
struct FlowParams {
  sim::Bandwidth host_bw;      ///< sender NIC line rate (HostBw)
  sim::TimePs base_rtt = 0;    ///< τ, the maximum base RTT in the topology
  std::int32_t mss = net::kDefaultMss;
  /// N: expected number of flows sharing the host NIC; sizes the
  /// additive-increase term β = HostBw·τ/N (§3.3).
  int expected_flows = 10;

  double bdp_bytes() const {
    return host_bw.bytes_per_sec() * sim::to_seconds(base_rtt);
  }
};

/// Everything an algorithm may react to on one acknowledgment.
struct AckContext {
  sim::TimePs now = 0;
  sim::TimePs rtt = 0;              ///< measured via the echoed timestamp
  std::int64_t acked_bytes = 0;     ///< newly acknowledged payload
  std::int64_t ack_seq = 0;         ///< cumulative ack
  std::int64_t snd_nxt = 0;         ///< sender's next sequence to send
  bool ecn_echo = false;
  const net::IntHeader* int_hdr = nullptr;  ///< nullptr when INT disabled
  double inflight_bytes = 0.0;
};

struct CcDecision {
  double cwnd_bytes = 0.0;
  double pacing_bps = 0.0;
};

class CcAlgorithm {
 public:
  virtual ~CcAlgorithm() = default;

  /// Window/rate to use before any feedback arrives. The paper's
  /// convention for all compared schemes: start at line rate with
  /// cwnd_init = HostBw · τ.
  virtual CcDecision initial() const = 0;

  virtual CcDecision on_ack(const AckContext& ctx) = 0;

  /// Retransmission timeout fired; most laws halve or reset.
  virtual void on_timeout() {}

  virtual std::string_view name() const = 0;
};

using CcFactory =
    std::function<std::unique_ptr<CcAlgorithm>(const FlowParams&)>;

/// Line-rate start shared by every scheme (§3.3 "all flows transmit at
/// line rate in the first RTT").
inline CcDecision line_rate_start(const FlowParams& p) {
  return CcDecision{std::max<double>(p.mss, p.bdp_bytes()), p.host_bw.bps()};
}

}  // namespace powertcp::cc
