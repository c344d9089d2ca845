#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"

/// \file dt_buffer.hpp
/// Shared-memory buffer with the Dynamic Thresholds admission policy of
/// Choudhury & Hahne (IEEE/ACM ToN 1998) — the buffer management the
/// paper enables on every switch (§4.1), as commodity datacenter ASICs do.
///
/// A packet is admitted to a queue iff
///     qlen(queue) < alpha * (B - U)
/// where B is the total buffer, U the bytes currently used across all
/// queues, and alpha the DT control parameter (default 1, as in the
/// original paper's "fair" setting).
///
/// A packet's bytes stay charged until its serialization finishes. The
/// finish may be an elided event (sim::ElidableEvent), so the buffer
/// does not wait to be told: each port hands over the finish's key at
/// serialization start (release_at), and the buffer frees the bytes of
/// every key that has passed before it reads its occupancy. Admission
/// therefore sees exactly the releases an engine that ran every finish
/// as an event would have applied by then.

namespace powertcp::net {

class DtSharedBuffer {
 public:
  DtSharedBuffer(std::int64_t total_bytes, double alpha = 1.0)
      : total_bytes_(total_bytes), alpha_(alpha) {}

  /// Registers a port that releases through this buffer, on engine
  /// `sim`. The release heap keeps room for one slot per port, the most
  /// a port can have pending at a time, so release_at never allocates.
  /// It grows geometrically, not once per attach.
  void attach(const sim::Simulator& sim) {
    sim_ = &sim;
    if (++ports_ > releases_.capacity()) releases_.reserve(2 * ports_);
  }

  /// True iff a packet of `pkt_bytes` may join a queue currently holding
  /// `queue_bytes`. Does not reserve — call `on_enqueue` after admitting.
  bool admits(std::int64_t queue_bytes, std::int64_t pkt_bytes) {
    settle();
    const std::int64_t free_bytes = total_bytes_ - used_bytes_;
    if (pkt_bytes > free_bytes) return false;  // hard capacity
    const double threshold = alpha_ * static_cast<double>(free_bytes);
    return static_cast<double>(queue_bytes) < threshold;
  }

  void on_enqueue(std::int64_t pkt_bytes) { used_bytes_ += pkt_bytes; }

  /// Frees `pkt_bytes` once `key` — a serialization finish — has passed.
  /// Requires attach().
  void release_at(const sim::Reservation& key, std::int64_t pkt_bytes) {
    settle();
    releases_.push_back(Release{key, pkt_bytes});
    std::push_heap(releases_.begin(), releases_.end(), later);
  }

  /// Bytes in use now: charged bytes minus every release whose key has
  /// passed.
  std::int64_t used_bytes() const {
    std::int64_t used = used_bytes_;
    for (const Release& r : releases_) {
      if (sim_->passed(r.key)) used -= r.bytes;
    }
    return used;
  }
  std::int64_t total_bytes() const { return total_bytes_; }
  double alpha() const { return alpha_; }

 private:
  struct Release {
    sim::Reservation key;
    std::int64_t bytes;
  };

  /// Heap order: the earliest key on top.
  static bool later(const Release& a, const Release& b) {
    return a.key > b.key;
  }

  /// Applies every pending release whose key has passed.
  void settle() {
    while (!releases_.empty() && sim_->passed(releases_.front().key)) {
      used_bytes_ -= releases_.front().bytes;
      std::pop_heap(releases_.begin(), releases_.end(), later);
      releases_.pop_back();
    }
  }

  std::int64_t total_bytes_;
  double alpha_;
  std::int64_t used_bytes_ = 0;  ///< net of settled releases only
  const sim::Simulator* sim_ = nullptr;
  std::size_t ports_ = 0;
  std::vector<Release> releases_;  ///< min-heap on key
};

}  // namespace powertcp::net
