#include "net/queue.hpp"

#include <stdexcept>

namespace powertcp::net {

void FifoQueue::push(PacketPool::Handle h) {
  if (count_ == ring_.size()) {
    // Unroll the full ring into twice the room, oldest first.
    std::vector<PacketPool::Handle> grown(ring_.empty() ? 8 : 2 * ring_.size());
    for (std::size_t i = 0; i < count_; ++i) {
      grown[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_.swap(grown);
    head_ = 0;
  }
  bytes_ += slab_->get(h).wire_bytes();
  ring_[(head_ + count_) & (ring_.size() - 1)] = h;
  ++count_;
}

bool FifoQueue::pop(PacketPool::Handle& out) {
  if (count_ == 0) return false;
  out = ring_[head_];
  head_ = (head_ + 1) & (ring_.size() - 1);
  --count_;
  bytes_ -= slab_->get(out).wire_bytes();
  return true;
}

PriorityQueue::PriorityQueue(const PacketPool& slab, int bands) : slab_(&slab) {
  if (bands <= 0) throw std::invalid_argument("PriorityQueue: bands <= 0");
  bands_.assign(static_cast<std::size_t>(bands), FifoQueue(slab));
}

void PriorityQueue::push(PacketPool::Handle h) {
  const Packet& pkt = slab_->get(h);
  const auto band = static_cast<std::size_t>(pkt.priority) < bands_.size()
                        ? static_cast<std::size_t>(pkt.priority)
                        : bands_.size() - 1;
  bytes_ += pkt.wire_bytes();
  ++packets_;
  bands_[band].push(h);
}

bool PriorityQueue::pop(PacketPool::Handle& out) {
  for (FifoQueue& band : bands_) {
    const std::int64_t before = band.bytes();
    if (band.pop(out)) {
      bytes_ -= before - band.bytes();
      --packets_;
      return true;
    }
  }
  return false;
}

const Packet* PriorityQueue::peek_next() const {
  for (const FifoQueue& band : bands_) {
    if (!band.empty()) return band.peek_next();
  }
  return nullptr;
}

VoqSet::VoqSet(const PacketPool& slab, int n_queues,
               std::function<int(NodeId)> classify)
    : slab_(&slab), classify_(std::move(classify)) {
  if (n_queues <= 0) throw std::invalid_argument("VoqSet: n_queues <= 0");
  queues_.assign(static_cast<std::size_t>(n_queues), FifoQueue(slab));
}

void VoqSet::push(PacketPool::Handle h) {
  const Packet& pkt = slab_->get(h);
  const int voq = classify_(pkt.dst);
  if (voq < 0 || voq >= size()) {
    throw std::out_of_range("VoqSet::push: classify returned bad index");
  }
  total_bytes_ += pkt.wire_bytes();
  ++total_packets_;
  queues_[static_cast<std::size_t>(voq)].push(h);
}

bool VoqSet::pop_from(int voq, PacketPool::Handle& out) {
  FifoQueue& q = queues_.at(static_cast<std::size_t>(voq));
  const std::int64_t before = q.bytes();
  if (!q.pop(out)) return false;
  total_bytes_ -= before - q.bytes();
  --total_packets_;
  return true;
}

}  // namespace powertcp::net
