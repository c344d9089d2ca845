#include "host/flow.hpp"

#include <algorithm>

#include "host/host.hpp"

namespace powertcp::host {

FlowSender::FlowSender(Host& host, net::FlowId flow, net::NodeId dst,
                       std::int64_t size_bytes,
                       std::unique_ptr<cc::CcAlgorithm> algorithm,
                       const cc::FlowParams& params,
                       const FlowSenderConfig& cfg)
    : host_(host),
      flow_(flow),
      dst_(dst),
      size_(size_bytes),
      cc_(std::move(algorithm)),
      params_(params),
      cfg_(cfg) {
  const cc::CcDecision d = cc_->initial();
  cwnd_ = d.cwnd_bytes;
  pacing_bps_ = d.pacing_bps;
  current_rto_ = std::max(
      cfg_.min_rto, static_cast<sim::TimePs>(
                        static_cast<double>(params_.base_rtt) *
                        cfg_.rto_base_rtt_factor));
}

FlowSender::~FlowSender() {
  // Armed timers capture `this`. Senders are destroyed mid-run (the
  // Host sweeps completed flows; topologies can be torn down early), so
  // leaving one armed would dangle. Cancelling fired/stale ids is free.
  sim::Simulator& sim = host_.simulator();
  if (pacing_timer_armed_) sim.cancel(pacing_timer_);
  if (rto_armed_) sim.cancel(rto_timer_);
  if (!started_) sim.cancel(start_event_);
}

void FlowSender::start() {
  started_ = true;
  start_time_ = host_.simulator().now();
  next_send_allowed_ = start_time_;
  try_send();
}

std::int32_t FlowSender::next_payload() const {
  return static_cast<std::int32_t>(
      std::min<std::int64_t>(params_.mss, size_ - snd_nxt_));
}

void FlowSender::try_send() {
  sim::Simulator& sim = host_.simulator();
  while (snd_nxt_ < size_) {
    const std::int32_t payload = next_payload();
    // Window gate: admit the packet if it fits in cwnd, or if nothing
    // is in flight (sub-MSS windows still make progress; pacing governs
    // the actual rate).
    const bool window_ok =
        static_cast<double>(inflight_bytes() + payload) <= cwnd_ ||
        inflight_bytes() == 0;
    if (!window_ok) return;  // an ack will reopen the window
    if (sim.now() < next_send_allowed_) {
      arm_pacing_timer(next_send_allowed_);
      return;
    }
    send_one();
  }
}

void FlowSender::send_one() {
  sim::Simulator& sim = host_.simulator();
  const std::int32_t payload = next_payload();
  const net::PacketPool::Handle h = host_.slab().acquire();
  net::Packet& pkt = host_.slab().ref(h);
  pkt = net::Packet{};
  pkt.flow = flow_;
  pkt.dst = dst_;
  pkt.type = net::PacketType::kData;
  pkt.seq = snd_nxt_;
  pkt.payload_bytes = payload;
  // Flow size and the cumulative acked edge ride in the header so the
  // receiver can retire its per-flow state at the cumulative edge and
  // still answer stale retransmissions of completed flows statelessly.
  pkt.message_bytes = size_;
  pkt.ack_seq = snd_una_;
  snd_nxt_ += payload;
  host_.send(h);
  // Pacing: spread packets at `pacing_bps_` (wire bytes).
  if (pacing_bps_ > 0) {
    const double interval_sec =
        static_cast<double>(payload + net::kHeaderBytes) * 8.0 / pacing_bps_;
    next_send_allowed_ = sim.now() + sim::from_seconds(interval_sec);
  }
  if (!rto_armed_) arm_rto();
}

void FlowSender::arm_pacing_timer(sim::TimePs when) {
  if (pacing_timer_armed_) return;
  pacing_timer_armed_ = true;
  pacing_timer_ = host_.simulator().schedule_at(when, [this] {
    pacing_timer_armed_ = false;
    try_send();
  });
}

void FlowSender::arm_rto() {
  sim::Simulator& sim = host_.simulator();
  // A timeout past the end of the clock can never fire: leave it unarmed.
  if (current_rto_ > sim::kTimeInfinity - sim.now()) return;
  rto_deadline_ = sim.reserve_in(current_rto_);
  schedule_rto_entry();
}

void FlowSender::restart_rto() {
  sim::Simulator& sim = host_.simulator();
  if (current_rto_ > sim::kTimeInfinity - sim.now()) {
    cancel_rto();
    return;
  }
  // The deadline takes its key here, where re-scheduling the timer
  // would. An armed entry due no later than it stays in the heap and
  // re-arms itself on the key when it comes due; only a deadline that
  // moved earlier (the first progress after a backoff) replaces it.
  rto_deadline_ = sim.reserve_in(current_rto_);
  if (rto_armed_ && rto_deadline_.time >= rto_entry_at_) return;
  cancel_rto();
  schedule_rto_entry();
}

void FlowSender::schedule_rto_entry() {
  rto_armed_ = true;
  rto_entry_at_ = rto_deadline_.time;
  rto_timer_ = host_.simulator().schedule_reserved(rto_deadline_,
                                                   [this] { on_rto_due(); });
}

void FlowSender::cancel_rto() {
  if (rto_armed_) {
    host_.simulator().cancel(rto_timer_);
    rto_armed_ = false;
  }
}

void FlowSender::on_rto_due() {
  if (rto_timer_.seq != rto_deadline_.seq) {
    // Progress moved the deadline after this entry was armed: wake up
    // and wait for the deadline's own key. Not a logical event.
    host_.simulator().note_wakeup();
    schedule_rto_entry();
    return;
  }
  rto_armed_ = false;
  on_rto();
}

void FlowSender::on_rto() {
  if (complete()) return;
  ++timeouts_;
  // Go-back-N: rewind to the cumulative edge.
  snd_nxt_ = snd_una_;
  cc_->on_timeout();
  // Saturating backoff: a product at or past the int64 clock's range
  // (reached after ~36 doublings) would make the cast back UB.
  const double backed_off =
      static_cast<double>(current_rto_) * cfg_.rto_backoff;
  current_rto_ = backed_off >= static_cast<double>(sim::kTimeInfinity)
                     ? sim::kTimeInfinity
                     : static_cast<sim::TimePs>(backed_off);
  arm_rto();
  try_send();
}

void FlowSender::on_ack(const net::Packet& ack) {
  if (complete()) return;  // stray ack after completion
  sim::Simulator& sim = host_.simulator();
  const std::int64_t newly_acked = std::max<std::int64_t>(
      0, std::min(ack.ack_seq, size_) - snd_una_);
  snd_una_ += newly_acked;

  const sim::TimePs rtt = sim.now() - ack.sent_time;
  srtt_ = srtt_ == 0 ? rtt : (srtt_ * 7 + rtt) / 8;

  cc::AckContext ctx;
  ctx.now = sim.now();
  ctx.rtt = rtt;
  ctx.acked_bytes = newly_acked;
  ctx.ack_seq = ack.ack_seq;
  ctx.snd_nxt = snd_nxt_;
  ctx.ecn_echo = ack.ecn_echo;
  ctx.int_hdr = ack.int_hdr.empty() ? nullptr : &ack.int_hdr;
  ctx.inflight_bytes = static_cast<double>(inflight_bytes());
  const cc::CcDecision d = cc_->on_ack(ctx);
  cwnd_ = d.cwnd_bytes;
  pacing_bps_ = d.pacing_bps;

  if (complete()) {
    finish_time_ = sim.now();
    cancel_rto();
    if (pacing_timer_armed_) {
      sim.cancel(pacing_timer_);
      pacing_timer_armed_ = false;
    }
    if (on_complete_) {
      on_complete_(FlowCompletion{flow_, size_, start_time_, finish_time_});
    }
    return;
  }
  if (newly_acked > 0) {
    // Fresh progress: restart the retransmission clock.
    current_rto_ = std::max(
        cfg_.min_rto,
        std::max(static_cast<sim::TimePs>(
                     static_cast<double>(params_.base_rtt) *
                     cfg_.rto_base_rtt_factor),
                 2 * srtt_));
    restart_rto();
  }
  try_send();
}

}  // namespace powertcp::host
