#include "host/homa.hpp"

#include <algorithm>

#include "host/host.hpp"

namespace powertcp::host {

const std::vector<cc::ParamSpec>& homa_param_specs() {
  static const std::vector<cc::ParamSpec> kSpecs = {
      {"rtt_bytes", "-1",
       "unscheduled window / per-grant cap; <0 derives HostBw*tau"},
      {"overcommit", "1", "messages holding active grants at once"},
      {"resend_interval_us", "300", "stalled-message resend probe period"},
      {"max_resends", "50", "resend probes before giving up"},
  };
  return kSpecs;
}

HomaConfig homa_config_from_params(const cc::ParamMap& overrides,
                                   const cc::FlowParams& flow) {
  const cc::ParamReader r("homa", overrides, homa_param_specs());
  HomaConfig cfg;
  cfg.rtt_bytes = r.get_int<std::int64_t>("rtt_bytes", -1);
  if (cfg.rtt_bytes < 0) {
    cfg.rtt_bytes = static_cast<std::int64_t>(flow.bdp_bytes());
  }
  cfg.overcommit = r.get_int<int>("overcommit", cfg.overcommit);
  cfg.resend_interval =
      r.get_microseconds("resend_interval_us", cfg.resend_interval);
  cfg.max_resends = r.get_int<int>("max_resends", cfg.max_resends);
  cfg.mss = flow.mss;
  return cfg;
}

HomaTransport::HomaTransport(Host& host, const HomaConfig& cfg)
    : host_(host), cfg_(cfg) {}

HomaTransport::~HomaTransport() {
  // The resend probe captures `this`; cancel it so tearing a host down
  // with incomplete messages cannot leave a dangling callback.
  if (resend_timer_armed_) host_.simulator().cancel(resend_timer_);
}

std::uint8_t HomaTransport::unscheduled_priority(
    std::int64_t message_bytes) const {
  // Band 0 is reserved for grants; small messages get the next bands.
  std::uint8_t band = 1;
  for (const std::int64_t cutoff : cfg_.unscheduled_cutoffs) {
    if (message_bytes <= cutoff) return band;
    ++band;
  }
  return band;
}

// Grant edges are kept on the MSS grid (except a final partial chunk)
// so every data packet maps to exactly one chunk of the receiver's
// arrival bitmap.
std::int64_t HomaTransport::aligned_grant(std::int64_t want,
                                          std::int64_t size) const {
  if (want >= size) return size;
  return want / cfg_.mss * cfg_.mss;
}

void HomaTransport::send_message(net::FlowId message, net::NodeId dst,
                                 std::int64_t size_bytes) {
  OutMessage m;
  m.dst = dst;
  m.size = size_bytes;
  m.granted = aligned_grant(cfg_.rtt_bytes, size_bytes);
  m.start = host_.simulator().now();
  auto [it, inserted] = outgoing_.emplace(message, m);
  if (!inserted) return;  // duplicate id: ignore
  pump_out(message, it->second);
}

void HomaTransport::pump_out(net::FlowId id, OutMessage& m) {
  // Transmit everything currently granted. The NIC FIFO serializes at
  // line rate — HOMA sends without pacing.
  while (m.sent < m.granted) {
    const auto payload = static_cast<std::int32_t>(
        std::min<std::int64_t>(cfg_.mss, m.granted - m.sent));
    const net::PacketPool::Handle h = host_.slab().acquire();
    net::Packet& pkt = host_.slab().ref(h);
    pkt = net::Packet{};
    pkt.flow = id;
    pkt.dst = m.dst;
    pkt.type = net::PacketType::kHomaData;
    pkt.seq = m.sent;
    pkt.payload_bytes = payload;
    pkt.message_bytes = m.size;
    pkt.grant_offset = m.start;  // echo the message start for FCT
    pkt.priority = m.sent < cfg_.rtt_bytes
                       ? unscheduled_priority(m.size)
                       : m.sched_priority;
    m.sent += payload;
    host_.send(h);
  }
}

void HomaTransport::on_packet(const net::Packet& pkt) {
  if (pkt.type == net::PacketType::kHomaData) {
    handle_data(pkt);
  } else {
    handle_grant(pkt);
  }
}

void HomaTransport::handle_data(const net::Packet& pkt) {
  const sim::TimePs now = host_.simulator().now();
  auto it = incoming_.find(pkt.flow);
  if (it == incoming_.end()) {
    InMessage m;
    m.src = pkt.src;
    m.size = pkt.message_bytes;
    m.start = pkt.grant_offset;  // sender stamped its start time here
    m.granted = aligned_grant(cfg_.rtt_bytes, m.size);
    const auto chunks = static_cast<std::size_t>(
        (m.size + cfg_.mss - 1) / cfg_.mss);
    m.got.assign(std::max<std::size_t>(chunks, 1), false);
    it = incoming_.emplace(pkt.flow, std::move(m)).first;
  }
  InMessage& m = it->second;
  m.last_activity = now;
  const auto chunk = static_cast<std::size_t>(pkt.seq / cfg_.mss);
  if (chunk < m.got.size() && !m.got[chunk]) {
    m.got[chunk] = true;
    m.received += pkt.payload_bytes;
    host_.notify_payload(pkt.flow, pkt.payload_bytes);
  }
  if (m.received >= m.size) {
    if (on_complete_) {
      on_complete_(MessageCompletion{pkt.flow, m.size, m.start, now});
    }
    // Final grant tells the sender to drop its state.
    InMessage done = m;
    incoming_.erase(it);
    done.granted = done.size;
    send_grant(pkt.flow, done, /*resend_from=*/-1);
    update_grants();
    return;
  }
  update_grants();
  arm_resend_timer();
}

void HomaTransport::handle_grant(const net::Packet& pkt) {
  const auto it = outgoing_.find(pkt.flow);
  if (it == outgoing_.end()) return;
  OutMessage& m = it->second;
  m.granted = std::max(m.granted, std::min(pkt.grant_offset, m.size));
  m.sched_priority = pkt.priority;
  if (pkt.seq >= 0 && pkt.seq < m.sent) {
    m.sent = pkt.seq;  // resend request: rewind to first missing byte
  }
  if (m.granted >= m.size && m.sent >= m.size &&
      pkt.grant_offset >= m.size) {
    // Completion grant.
    outgoing_.erase(it);
    return;
  }
  pump_out(pkt.flow, m);
}

void HomaTransport::update_grants() {
  // SRPT: order incomplete messages by remaining bytes, grant the first
  // `overcommit` of them up to received + rtt_bytes.
  std::vector<std::pair<std::int64_t, net::FlowId>> order;
  order.reserve(incoming_.size());
  for (auto& [id, m] : incoming_) {
    if (m.size <= cfg_.rtt_bytes) continue;  // fully unscheduled
    order.emplace_back(m.size - m.received, id);
    m.grant_active = false;
  }
  std::sort(order.begin(), order.end());
  const int n = std::min<int>(cfg_.overcommit, static_cast<int>(order.size()));
  for (int rank = 0; rank < n; ++rank) {
    InMessage& m = incoming_.at(order[static_cast<std::size_t>(rank)].second);
    m.grant_active = true;
    const std::int64_t new_grant =
        aligned_grant(m.received + cfg_.rtt_bytes, m.size);
    // Scheduled priority: below all unscheduled bands, better rank =
    // higher priority.
    const int sched_base =
        1 + static_cast<int>(cfg_.unscheduled_cutoffs.size()) + 1;
    const int prio =
        std::min(cfg_.total_priorities - 1, sched_base + rank);
    const bool prio_changed =
        static_cast<std::uint8_t>(prio) != m.sched_prio_cache;
    if (new_grant > m.granted || prio_changed) {
      m.granted = std::max(m.granted, new_grant);
      m.sched_prio_cache = static_cast<std::uint8_t>(prio);
      send_grant(order[static_cast<std::size_t>(rank)].second, m, -1);
    }
  }
}

void HomaTransport::send_grant(net::FlowId id, InMessage& m,
                               std::int64_t resend_from) {
  const net::PacketPool::Handle h = host_.slab().acquire();
  net::Packet& g = host_.slab().ref(h);
  g = net::Packet{};
  g.flow = id;
  g.dst = m.src;
  g.type = net::PacketType::kHomaGrant;
  g.payload_bytes = 0;
  g.grant_offset = m.granted;
  g.seq = resend_from;
  g.priority = m.sched_prio_cache;
  host_.send(h);
}

void HomaTransport::arm_resend_timer() {
  if (resend_timer_armed_ || incoming_.empty()) return;
  resend_timer_armed_ = true;
  resend_timer_ = host_.simulator().schedule_in(cfg_.resend_interval, [this] {
    resend_timer_armed_ = false;
    check_stalled();
  });
}

void HomaTransport::check_stalled() {
  const sim::TimePs now = host_.simulator().now();
  for (auto& [id, m] : incoming_) {
    if (now - m.last_activity < cfg_.resend_interval) continue;
    if (m.resends >= cfg_.max_resends) continue;
    ++m.resends;
    // First missing chunk -> resend request.
    std::int64_t missing = m.size;
    for (std::size_t c = 0; c < m.got.size(); ++c) {
      if (!m.got[c]) {
        missing = static_cast<std::int64_t>(c) * cfg_.mss;
        break;
      }
    }
    m.granted = std::max(
        m.granted, aligned_grant(m.received + cfg_.rtt_bytes, m.size));
    send_grant(id, m, missing);
  }
  arm_resend_timer();
}

}  // namespace powertcp::host
