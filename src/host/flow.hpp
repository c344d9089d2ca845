#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "cc/cc_algorithm.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

/// \file flow.hpp
/// Window- and pacing-limited sender. The congestion controller decides
/// (cwnd, rate); the sender releases MSS-sized packets whenever both
/// constraints allow, acks advance the cumulative edge, and a
/// go-back-N retransmission timer recovers from buffer drops.

namespace powertcp::host {

class Host;

/// Invoked when a sender-side flow completes (all bytes acked).
struct FlowCompletion {
  net::FlowId flow = 0;
  std::int64_t size_bytes = 0;
  sim::TimePs start = 0;
  sim::TimePs finish = 0;
};
using CompletionCallback = std::function<void(const FlowCompletion&)>;

struct FlowSenderConfig {
  /// Minimum retransmission timeout as a multiple of the base RTT.
  double rto_base_rtt_factor = 8.0;
  sim::TimePs min_rto = sim::microseconds(100);
  double rto_backoff = 2.0;
  /// Packets released per pacing-timer wakeup. 1 (the default) is the
  /// historical one-timer-per-packet behavior, byte-identical to the
  /// pre-quantum sender. Larger quanta trade pacing granularity for
  /// fewer timer events: the sender still advances the release edge by
  /// one serialization interval per packet, so the average rate is
  /// unchanged, but up to `pacing_quantum` packets leave back-to-back
  /// once the edge is reached.
  std::int32_t pacing_quantum = 1;
};

class FlowSender {
 public:
  FlowSender(Host& host, net::FlowId flow, net::NodeId dst,
             std::int64_t size_bytes,
             std::unique_ptr<cc::CcAlgorithm> algorithm,
             const cc::FlowParams& params,
             const FlowSenderConfig& cfg = {});
  ~FlowSender();

  FlowSender(const FlowSender&) = delete;
  FlowSender& operator=(const FlowSender&) = delete;

  /// Begins transmission (called by Host at the flow's start time).
  void start();

  /// Handles a (possibly duplicate) cumulative ack.
  void on_ack(const net::Packet& ack);

  bool started() const { return started_; }
  bool complete() const { return snd_una_ >= size_; }
  net::FlowId flow_id() const { return flow_; }
  std::int64_t size_bytes() const { return size_; }
  std::int64_t inflight_bytes() const { return snd_nxt_ - snd_una_; }
  std::int64_t acked_bytes() const { return snd_una_; }
  sim::TimePs start_time() const { return start_time_; }
  sim::TimePs finish_time() const { return finish_time_; }

  double cwnd_bytes() const { return cwnd_; }
  double pacing_bps() const { return pacing_bps_; }
  cc::CcAlgorithm& algorithm() { return *cc_; }

  std::uint64_t timeouts() const { return timeouts_; }

  void set_completion_callback(CompletionCallback cb) {
    on_complete_ = std::move(cb);
  }

  /// Records the Host-scheduled start event so destruction before the
  /// flow begins cancels it (the event captures `this`).
  void set_start_event(sim::EventId id) { start_event_ = id; }

 private:
  void try_send();
  void send_one();
  void arm_pacing_timer(sim::TimePs when);
  void arm_rto();
  void restart_rto();
  void schedule_rto_entry();
  void cancel_rto();
  void on_rto_due();
  void on_rto();
  std::int32_t next_payload() const;

  Host& host_;
  net::FlowId flow_;
  net::NodeId dst_;
  std::int64_t size_;
  std::unique_ptr<cc::CcAlgorithm> cc_;
  cc::FlowParams params_;
  FlowSenderConfig cfg_;

  double cwnd_;
  double pacing_bps_;
  std::int64_t snd_nxt_ = 0;
  std::int64_t snd_una_ = 0;
  sim::TimePs next_send_allowed_ = 0;
  /// Packets still releasable ahead of the pacing edge this quantum.
  std::int32_t quantum_left_ = 0;
  bool pacing_timer_armed_ = false;
  sim::EventId pacing_timer_{};
  /// The RTO keeps at most one heap entry. A progress ack only reserves
  /// the new deadline's key; the armed entry, due no later, re-arms
  /// itself on that key when it comes due (on_rto_due).
  bool rto_armed_ = false;
  sim::EventId rto_timer_{};
  sim::TimePs rto_entry_at_ = 0;    ///< time of the armed entry
  sim::Reservation rto_deadline_{};  ///< key the timeout fires at
  sim::EventId start_event_{};
  sim::TimePs current_rto_ = 0;
  sim::TimePs srtt_ = 0;
  bool started_ = false;
  sim::TimePs start_time_ = 0;
  sim::TimePs finish_time_ = -1;
  std::uint64_t timeouts_ = 0;
  CompletionCallback on_complete_;
};

}  // namespace powertcp::host
