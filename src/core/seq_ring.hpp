// The engine's reliability window: sequenced-message state indexed by
// `seq & mask`, with no hashing. Sequence numbers are dense per engine and
// issued in increasing order, so the live seqs always lie in the window
// [oldest live seq, newest seq]. The ring covers that window; a ring slot
// holds the position of its seq's entry (0 = none), and the entries sit in
// a pool reused through a free list, so their count is the peak number of
// live messages (bounded by the engine's max_unacked admission).
//
// A message under retransmit can outlive many newer ones, so the window is
// not bounded by the number of live entries: the ring doubles whenever the
// window would outrun it, never wrapping onto a live slot, and halves
// again once the window falls to a quarter of it. A 4-byte slot per seq of
// the window is the only cost a long stall adds.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace pd::core {

template <typename T>
class SeqRing {
 public:
  /// Insert state for `seq`, which must exceed every seq inserted before
  /// (seq 0 is reserved for "unsequenced").
  T& insert(std::uint64_t seq, T value) {
    PD_CHECK(seq >= next_ && seq != 0, "seq " << seq << " not increasing");
    if (size() == 0) oldest_ = seq;
    next_ = seq + 1;
    if (next_ - oldest_ > ring_.size()) {
      std::size_t n = ring_.empty() ? kInitialSlots : ring_.size();
      while (n < next_ - oldest_) n *= 2;
      rehash(n);
    }
    std::uint32_t pos;
    if (free_.empty()) {
      entries_.push_back(Entry{seq, std::move(value)});
      pos = static_cast<std::uint32_t>(entries_.size());
    } else {
      pos = free_.back();
      free_.pop_back();
      entries_[pos - 1] = Entry{seq, std::move(value)};
    }
    ring_[seq & (ring_.size() - 1)] = pos;
    return entries_[pos - 1].value;
  }

  /// The state of a live `seq`, or nullptr for a retired or never-issued
  /// one. Within the window each seq has its own slot, so an occupied slot
  /// holds exactly that seq.
  [[nodiscard]] T* find(std::uint64_t seq) {
    if (seq < oldest_ || seq >= next_) return nullptr;
    const std::uint32_t pos = ring_[seq & (ring_.size() - 1)];
    return pos == 0 ? nullptr : &entries_[pos - 1].value;
  }

  /// Retire a live `seq`.
  void erase(std::uint64_t seq) {
    PD_CHECK(find(seq) != nullptr, "erase of untracked seq " << seq);
    std::uint32_t& slot = ring_[seq & (ring_.size() - 1)];
    entries_[slot - 1].seq = 0;
    free_.push_back(slot);
    slot = 0;
    // Slide the window's tail past retired slots.
    while (oldest_ < next_ && ring_[oldest_ & (ring_.size() - 1)] == 0) {
      ++oldest_;
    }
    if (ring_.size() > kInitialSlots && 4 * (next_ - oldest_) <= ring_.size()) {
      rehash(ring_.size() / 2);
    }
  }

  /// Live (inserted, not yet erased) entries.
  [[nodiscard]] std::size_t size() const {
    return entries_.size() - free_.size();
  }
  /// Ring slots: a power of two covering the current window.
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

 private:
  struct Entry {
    std::uint64_t seq = 0;  ///< 0 = free
    T value{};
  };

  /// Rebuild the ring with `n` slots (a power of two covering the window).
  void rehash(std::size_t n) {
    ring_.assign(n, 0);
    for (std::uint32_t pos = 1; pos <= entries_.size(); ++pos) {
      const std::uint64_t seq = entries_[pos - 1].seq;
      if (seq != 0) ring_[seq & (n - 1)] = pos;
    }
  }

  static constexpr std::size_t kInitialSlots = 16;

  /// seq & (size - 1) -> its entry's position + 1 (0 = none).
  std::vector<std::uint32_t> ring_;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> free_;  ///< positions of retired entries
  std::uint64_t oldest_ = 1;  ///< lowest seq that may still be live
  std::uint64_t next_ = 1;    ///< one past the newest inserted seq
};

}  // namespace pd::core
