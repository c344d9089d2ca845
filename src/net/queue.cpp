#include "net/queue.hpp"

#include <stdexcept>

namespace powertcp::net {

void FifoQueue::push(Packet&& pkt) {
  std::uint32_t idx;
  if (free_head_ != kNil) {
    idx = free_head_;
    free_head_ = arena_[idx].next;
    arena_[idx].pkt = std::move(pkt);
  } else {
    idx = static_cast<std::uint32_t>(arena_.size());
    arena_.emplace_back(std::move(pkt), kNil);
  }
  arena_[idx].next = kNil;
  if (tail_ == kNil) {
    head_ = idx;
  } else {
    arena_[tail_].next = idx;
  }
  tail_ = idx;
  ++count_;
  bytes_ += arena_[idx].pkt.wire_bytes();
}

bool FifoQueue::pop_into(Packet& out) {
  if (count_ == 0) return false;
  const std::uint32_t idx = head_;
  Node& n = arena_[idx];
  head_ = n.next;
  if (head_ == kNil) tail_ = kNil;
  n.next = free_head_;
  free_head_ = idx;
  --count_;
  bytes_ -= n.pkt.wire_bytes();
  // The freed node is not reused before the next push.
  out = std::move(n.pkt);
  return true;
}

const Packet* FifoQueue::peek_next() const {
  return count_ == 0 ? nullptr : &arena_[head_].pkt;
}

PriorityQueue::PriorityQueue(int bands) {
  if (bands <= 0) throw std::invalid_argument("PriorityQueue: bands <= 0");
  bands_.resize(static_cast<std::size_t>(bands));
  band_bytes_.assign(static_cast<std::size_t>(bands), 0);
}

void PriorityQueue::push(Packet&& pkt) {
  const auto band =
      static_cast<std::size_t>(pkt.priority) < bands_.size()
          ? static_cast<std::size_t>(pkt.priority)
          : bands_.size() - 1;
  bytes_ += pkt.wire_bytes();
  band_bytes_[band] += pkt.wire_bytes();
  ++packets_;
  bands_[band].push_back(std::move(pkt));
}

bool PriorityQueue::pop_into(Packet& out) {
  for (std::size_t b = 0; b < bands_.size(); ++b) {
    auto& band = bands_[b];
    if (!band.empty()) {
      out = std::move(band.front());
      band.pop_front();
      bytes_ -= out.wire_bytes();
      band_bytes_[b] -= out.wire_bytes();
      --packets_;
      return true;
    }
  }
  return false;
}

const Packet* PriorityQueue::peek_next() const {
  for (const auto& band : bands_) {
    if (!band.empty()) return &band.front();
  }
  return nullptr;
}

VoqSet::VoqSet(int n_queues, std::function<int(NodeId)> classify)
    : classify_(std::move(classify)) {
  if (n_queues <= 0) throw std::invalid_argument("VoqSet: n_queues <= 0");
  queues_.resize(static_cast<std::size_t>(n_queues));
  voq_bytes_.assign(static_cast<std::size_t>(n_queues), 0);
}

void VoqSet::push(Packet&& pkt) {
  const int voq = classify_(pkt.dst);
  if (voq < 0 || voq >= size()) {
    throw std::out_of_range("VoqSet::push: classify returned bad index");
  }
  voq_bytes_[static_cast<std::size_t>(voq)] += pkt.wire_bytes();
  total_bytes_ += pkt.wire_bytes();
  ++total_packets_;
  queues_[static_cast<std::size_t>(voq)].push_back(std::move(pkt));
}

bool VoqSet::pop_from(int voq, Packet& out) {
  auto& q = queues_.at(static_cast<std::size_t>(voq));
  if (q.empty()) return false;
  out = std::move(q.front());
  q.pop_front();
  voq_bytes_[static_cast<std::size_t>(voq)] -= out.wire_bytes();
  total_bytes_ -= out.wire_bytes();
  --total_packets_;
  return true;
}

const Packet* VoqSet::peek(int voq) const {
  const auto& q = queues_.at(static_cast<std::size_t>(voq));
  return q.empty() ? nullptr : &q.front();
}

}  // namespace powertcp::net
