// Deficit Weighted Round Robin scheduler (Shreedhar & Varghese [79]),
// used by the DNE to share RNIC bandwidth between tenants (§3.3).
//
// Real algorithm, not a model: per-tenant FIFO queues, a quantum
// proportional to the tenant's weight credited on each round-robin visit,
// and a deficit counter spent per dequeued item. With unit item cost this
// yields throughput shares proportional to weights whenever tenants are
// backlogged — exactly Fig. 15's property.
//
// The queues sit in a vector in round-robin order, so a visit is an index
// (queues_[cursor_]); an IdTable maps a tenant to its queue's position for
// enqueue and introspection.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/id_table.hpp"
#include "common/ids.hpp"

namespace pd::core {

template <typename Item>
class DwrrScheduler {
 public:
  /// `quantum_base`: credit per weight unit per round (in the same cost
  /// units used by enqueue; use 1 for request-count fairness).
  explicit DwrrScheduler(std::uint32_t quantum_base = 1)
      : quantum_base_(quantum_base) {
    PD_CHECK(quantum_base_ > 0, "quantum must be positive");
  }

  /// Register a tenant with its weight. Must precede enqueue.
  void add_tenant(TenantId tenant, std::uint32_t weight) {
    PD_CHECK(weight > 0, "tenant weight must be positive");
    PD_CHECK(position_.insert(tenant, queues_.size()) != nullptr,
             "tenant " << tenant << " already registered");
    queues_.push_back(Queue{weight, 0, {}});
  }

  /// Enqueue an item with `size` cost units (1 = per-request fairness).
  void enqueue(TenantId tenant, Item item, std::uint32_t size = 1) {
    const std::size_t* pos = position_.find(tenant);
    PD_CHECK(pos != nullptr, "enqueue for unknown tenant " << tenant);
    PD_CHECK(size > 0, "item size must be positive");
    queues_[*pos].items.push_back(Entry{std::move(item), size});
    ++pending_;
  }

  /// Dequeue the next item per DWRR order; nullopt when all queues empty.
  std::optional<Item> dequeue() {
    if (pending_ == 0) return std::nullopt;
    // At most two passes over the tenants are needed when every queue's
    // head exceeds its deficit (each pass tops deficits up by one quantum).
    for (std::size_t scanned = 0; scanned < 2 * queues_.size(); ++scanned) {
      Queue& q = queues_[cursor_];
      if (q.items.empty()) {
        q.deficit = 0;  // empty queues hold no credit (standard DRR)
        advance();
        continue;
      }
      if (!q.visited_this_round) {
        q.deficit += q.weight * quantum_base_;
        q.visited_this_round = true;
      }
      if (q.items.front().size <= q.deficit) {
        Entry e = std::move(q.items.front());
        q.items.pop_front();
        q.deficit -= e.size;
        --pending_;
        if (q.items.empty()) q.deficit = 0;
        return std::move(e.item);
      }
      // Head too expensive this round: move on, credit persists.
      q.visited_this_round = false;
      advance();
    }
    // All heads exceeded even a fresh quantum (oversized items): serve the
    // current head anyway to guarantee progress.
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      Queue& q = queues_[cursor_];
      if (!q.items.empty()) {
        Entry e = std::move(q.items.front());
        q.items.pop_front();
        q.deficit = 0;
        --pending_;
        return std::move(e.item);
      }
      advance();
    }
    PD_UNREACHABLE("pending_ > 0 but no queued items");
  }

  [[nodiscard]] std::size_t pending() const { return pending_; }
  [[nodiscard]] std::size_t pending_for(TenantId tenant) const {
    const std::size_t* pos = position_.find(tenant);
    return pos == nullptr ? 0 : queues_[*pos].items.size();
  }
  /// Unspent deficit credit currently held by `tenant` (0 when unknown).
  /// A persistently high value with a backlogged queue means the tenant's
  /// head item exceeds its per-round quantum — the flight recorder
  /// samples this to make DWRR starvation visible on a timeline.
  [[nodiscard]] std::uint64_t deficit_of(TenantId tenant) const {
    const std::size_t* pos = position_.find(tenant);
    return pos == nullptr ? 0 : queues_[*pos].deficit;
  }

 private:
  struct Entry {
    Item item;
    std::uint32_t size;
  };
  struct Queue {
    std::uint32_t weight;
    std::uint64_t deficit;
    std::deque<Entry> items;
    bool visited_this_round = false;
  };

  void advance() {
    if (queues_.empty()) return;
    queues_[cursor_].visited_this_round = false;
    cursor_ = (cursor_ + 1) % queues_.size();
  }

  std::uint32_t quantum_base_;
  /// In registration order, which is the round-robin order.
  std::vector<Queue> queues_;
  /// Tenant -> index into queues_.
  IdTable<TenantId, std::size_t> position_;
  std::size_t cursor_ = 0;
  std::size_t pending_ = 0;
};

/// FCFS queue with the same interface — the no-isolation baseline the
/// paper contrasts in Fig. 15 (1).
template <typename Item>
class FcfsScheduler {
 public:
  void enqueue(TenantId, Item item, std::uint32_t = 1) {
    items_.push_back(std::move(item));
  }
  std::optional<Item> dequeue() {
    if (items_.empty()) return std::nullopt;
    Item item = std::move(items_.front());
    items_.pop_front();
    return item;
  }
  [[nodiscard]] std::size_t pending() const { return items_.size(); }

 private:
  std::deque<Item> items_;
};

}  // namespace pd::core
