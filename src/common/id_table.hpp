// Id-indexed table: the lookup structure for every per-message map keyed by
// a strong id (tenants, nodes, functions). Those ids are small creation
// counters, so an id below kDenseLimit indexes a 4-byte slot that holds its
// entry's position, with no hashing; the entries themselves sit packed in
// insertion order. The few reserved sparse ids (kEngineSocket,
// kIngressEntry, StrongId::invalid()) take the one fallback path: a short
// list searched linearly, so no table is ever sized by a sparse value.
//
// Entries move when the table grows; hold a std::unique_ptr<T> where a
// reference to a value must outlive later insertions. Entries are never
// removed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pd {

template <typename Id, typename T>
class IdTable {
 public:
  /// Ids at or above this value take the sparse path.
  static constexpr typename Id::rep_type kDenseLimit = 1u << 16;

  /// Insert `value` under `id`. Returns nullptr, leaving the table
  /// unchanged, when `id` is already present (callers own the message).
  T* insert(Id id, T value) {
    if (contains(id)) return nullptr;
    const auto pos = static_cast<std::uint32_t>(entries_.size() + 1);
    if (id.value() < kDenseLimit) {
      if (index_.size() <= id.value()) index_.resize(id.value() + 1);
      index_[id.value()] = pos;
    } else {
      sparse_.push_back(pos);
    }
    entries_.emplace_back(id, std::move(value));
    return &entries_.back().second;
  }
  /// The value under `id`, default-constructed first when absent.
  T& operator[](Id id) {
    if (T* v = find(id)) return *v;
    return *insert(id, T{});
  }

  [[nodiscard]] const T* find(Id id) const {
    std::uint32_t pos = 0;
    if (id.value() < kDenseLimit) {
      if (id.value() < index_.size()) pos = index_[id.value()];
    } else {
      for (const std::uint32_t p : sparse_) {
        if (entries_[p - 1].first == id) pos = p;
      }
    }
    return pos == 0 ? nullptr : &entries_[pos - 1].second;
  }
  [[nodiscard]] T* find(Id id) {
    return const_cast<T*>(std::as_const(*this).find(id));
  }
  [[nodiscard]] bool contains(Id id) const { return find(id) != nullptr; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Visit every entry as f(Id, T&), in insertion order.
  template <typename F>
  void for_each(F&& f) {
    for (auto& [id, value] : entries_) f(id, value);
  }
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& [id, value] : entries_) f(id, value);
  }

 private:
  /// Dense id -> its entry's position + 1 (0 = absent).
  std::vector<std::uint32_t> index_;
  /// Positions + 1 of the entries with sparse ids.
  std::vector<std::uint32_t> sparse_;
  std::vector<std::pair<Id, T>> entries_;
};

}  // namespace pd
