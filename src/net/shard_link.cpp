#include "net/shard_link.hpp"

#include <algorithm>

#include "net/node.hpp"

namespace powertcp::net {

ShardRouter::ShardRouter(sim::ShardedSimulator& engine,
                         std::vector<PacketPool>& slabs)
    : engine_(engine), slabs_(slabs) {
  ingress_.resize(static_cast<std::size_t>(engine.shard_count()));
  send_stamps_.resize(static_cast<std::size_t>(engine.shard_count()));
  for (int s = 0; s < engine.shard_count(); ++s) {
    engine_.set_ingest_hook(s, [this, s] { ingest(s); });
  }
}

ShardChannel* ShardRouter::add_channel(int src_shard, int dst_shard, Node* dst,
                                       int dst_in_port) {
  Ingress& in = ingress_.at(static_cast<std::size_t>(dst_shard));
  in.channels.push_back(std::make_unique<ShardChannel>(
      dst, dst_in_port, src_shard,
      &send_stamps_.at(static_cast<std::size_t>(src_shard)).next));
  return in.channels.back().get();
}

void ShardRouter::ingest(int shard) {
  Ingress& in = ingress_[static_cast<std::size_t>(shard)];
  in.scratch.clear();
  for (const auto& ch : in.channels) {
    ch->drain_into(in.scratch);
  }
  if (in.scratch.empty()) return;
  // Sort the merge keys on (deliver_at, sent_at, tie, src_shard,
  // src_seq), not the ~400-byte messages themselves: messages
  // from one source shard merge in that shard's execution order
  // (src_seq), which for equal (deliver_at, sent_at, tie) is exactly
  // the sequential engine's relative order — equal keys INCLUDING the
  // tie token imply the same source port, hence the same source shard.
  // Across ports/shards, the tie token itself is part of the
  // destination event key, so equal-(deliver_at, sent_at) deliveries
  // from different ports are exactly ordered by the token, matching
  // the sequential engine's (time, sched, tie, seq) order. Scheduling
  // via schedule_from then slots each delivery into the destination
  // queue at its sender-side causal timestamp and token.
  // (src_shard, src_seq) is unique per message, so the key order is
  // total and sorting keys yields the one order sorting messages would.
  in.order.clear();
  for (std::size_t i = 0; i < in.scratch.size(); ++i) {
    const ShardMessage& m = in.scratch[i];
    in.order.push_back(MergeKey{m.deliver_at, m.sent_at, m.src_seq, m.tie,
                                m.src_shard, static_cast<std::uint32_t>(i)});
  }
  std::sort(in.order.begin(), in.order.end(),
            [](const MergeKey& a, const MergeKey& b) {
              if (a.deliver_at != b.deliver_at) {
                return a.deliver_at < b.deliver_at;
              }
              if (a.sent_at != b.sent_at) return a.sent_at < b.sent_at;
              if (a.tie != b.tie) return a.tie < b.tie;
              if (a.src_shard != b.src_shard) return a.src_shard < b.src_shard;
              return a.src_seq < b.src_seq;
            });
  sim::Simulator& sim = engine_.shard(shard);
  PacketPool& slab = slabs_[static_cast<std::size_t>(shard)];
  for (const MergeKey& k : in.order) {
    ShardMessage& m = in.scratch[k.index];
    const PacketPool::Handle h = slab.put(std::move(m.pkt));
    Node* dst = m.dst;
    const int port = m.dst_in_port;
    const auto origin = static_cast<std::uint32_t>(1 + m.src_shard);
    sim.schedule_from(
        m.sent_at, m.deliver_at, [dst, port, h] { dst->receive(h, port); },
        origin, m.tie);
  }
  in.scratch.clear();
}

}  // namespace powertcp::net
