#pragma once
// Open-addressing hash tables for integer keys: the engine's per-job
// books (parked enquiries, placements, holds, open auctions, settlement
// notes), the transports' per-flush scratch tables and the kernels'
// tombstone sets.  The standard library's node-based hash tables pay a
// malloc per insert (libstdc++'s emplace allocates its node even when
// the key is already present), a free per erase and a 64-bit modulo
// per lookup; these tables churn on every message, so that traffic
// dominated them.
//
// Layout: entries_ holds the (key, value) pairs densely in one vector,
// and index_ — a power-of-two array of 4-byte entry positions, kEmpty
// where free — maps a key to its entry.  A key's home cell is its
// Fibonacci hash (the top bits of key * 2^64/phi), collisions probe
// linearly, and the index is kept at most half full, so a lookup reads
// a short run of 4-byte cells and one entry.  Erase fills the hole in
// the index by backward-shift deletion (no tombstones, so probe runs
// never degrade) and moves the last entry into the hole in entries_.
// A table at its high-water mark never allocates: clear() keeps both
// arrays' capacity.
//
// Invalidation: ANY insert, erase or clear may move entries, so it
// invalidates every iterator, pointer and reference into the table —
// including references to entries other than the one inserted or
// erased, which a node-based table keeps valid.  A caller that holds
// one across a call that may touch the same table must say why the
// table cannot change there.  Iteration runs over the dense entries:
// insertion order until an erase moves the last entry, so a caller
// whose output order matters sorts by key.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/check.hpp"

namespace gridfed::sim {

template <typename K, typename V>
class FlatMap {
  static_assert(std::is_integral_v<K>, "FlatMap hashes integer keys");

 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  /// Cells in the index (0 before the first insert): a power of two,
  /// at least twice size().
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return index_.size();
  }
  /// The cell `key` probes from in an index of `buckets` cells (a power
  /// of two): the top log2(buckets) bits of the Fibonacci product.
  [[nodiscard]] static constexpr std::size_t home_cell(
      K key, std::size_t buckets) noexcept {
    return buckets <= 1 ? 0
                        : static_cast<std::size_t>(
                              (static_cast<std::uint64_t>(key) * kFibonacci) >>
                              (64 - std::countr_zero(buckets)));
  }

  [[nodiscard]] iterator begin() noexcept { return entries_.begin(); }
  [[nodiscard]] iterator end() noexcept { return entries_.end(); }
  [[nodiscard]] const_iterator begin() const noexcept {
    return entries_.begin();
  }
  [[nodiscard]] const_iterator end() const noexcept { return entries_.end(); }

  [[nodiscard]] iterator find(K key) noexcept {
    const std::size_t cell = find_cell(key);
    return cell == kNoCell ? end() : begin() + index_[cell];
  }
  [[nodiscard]] const_iterator find(K key) const noexcept {
    const std::size_t cell = find_cell(key);
    return cell == kNoCell ? end() : begin() + index_[cell];
  }
  [[nodiscard]] bool contains(K key) const noexcept {
    return find_cell(key) != kNoCell;
  }
  /// The value of `key`, which must be present.
  [[nodiscard]] V& at(K key) {
    const std::size_t cell = find_cell(key);
    GF_EXPECTS(cell != kNoCell);
    return entries_[index_[cell]].second;
  }

  /// Constructs V from `args` unless `key` is present (then nothing is
  /// constructed).  Returns the entry and whether it was inserted.
  template <typename... Args>
  std::pair<iterator, bool> emplace(K key, Args&&... args) {
    std::size_t cell = probe(key);
    if (cell != kNoCell && index_[cell] != kEmpty) {
      return {begin() + index_[cell], false};
    }
    if (2 * (entries_.size() + 1) > index_.size()) {
      grow();
      cell = probe(key);
    }
    GF_EXPECTS(entries_.size() < kEmpty);
    entries_.emplace_back(std::piecewise_construct, std::forward_as_tuple(key),
                          std::forward_as_tuple(std::forward<Args>(args)...));
    index_[cell] = static_cast<std::uint32_t>(entries_.size() - 1);
    return {end() - 1, true};
  }

  template <typename M>
  std::pair<iterator, bool> insert_or_assign(K key, M&& value) {
    // emplace constructs nothing when `key` is present, so `value` is
    // still intact for the assignment.
    auto result = emplace(key, std::forward<M>(value));
    if (!result.second) result.first->second = std::forward<M>(value);
    return result;
  }

  /// The value of `key`, value-initialized on first touch.
  V& operator[](K key) { return emplace(key).first->second; }

  /// Erases `key` if present; returns how many entries were erased.
  std::size_t erase(K key) {
    const std::size_t cell = find_cell(key);
    if (cell == kNoCell) return 0;
    erase_cell(cell);
    return 1;
  }

  /// Erases the entry at `it`.  Returns the iterator at the same
  /// position, which now holds the entry that was last (or end()), so
  /// an erase-while-iterating loop visits every entry once.
  iterator erase(const_iterator it) {
    const auto pos = static_cast<std::uint32_t>(it - entries_.cbegin());
    erase_cell(cell_of(pos));
    return begin() + pos;
  }

  /// Empties the table, keeping the capacity of both arrays.
  void clear() noexcept {
    if (entries_.empty()) return;
    entries_.clear();
    std::fill(index_.begin(), index_.end(), kEmpty);
  }

 private:
  static constexpr std::uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  static constexpr std::size_t kNoCell =
      std::numeric_limits<std::size_t>::max();
  static constexpr std::size_t kMinBuckets = 16;

  [[nodiscard]] std::size_t home(K key) const noexcept {
    return home_cell(key, index_.size());
  }
  [[nodiscard]] std::size_t next(std::size_t cell) const noexcept {
    return (cell + 1) & (index_.size() - 1);
  }

  /// The cell holding `key`, or the free cell ending its probe run;
  /// kNoCell when the index is not allocated yet.
  [[nodiscard]] std::size_t probe(K key) const noexcept {
    if (index_.empty()) return kNoCell;
    std::size_t cell = home(key);
    while (index_[cell] != kEmpty && entries_[index_[cell]].first != key) {
      cell = next(cell);
    }
    return cell;
  }

  /// The cell holding `key`, or kNoCell when it is absent.
  [[nodiscard]] std::size_t find_cell(K key) const noexcept {
    if (entries_.empty()) return kNoCell;
    const std::size_t cell = probe(key);
    return index_[cell] == kEmpty ? kNoCell : cell;
  }

  /// The cell pointing at entry `pos` (which must exist).
  [[nodiscard]] std::size_t cell_of(std::uint32_t pos) const noexcept {
    std::size_t cell = home(entries_[pos].first);
    while (index_[cell] != pos) cell = next(cell);
    return cell;
  }

  void grow() {
    index_.assign(std::max(kMinBuckets, 2 * index_.size()), kEmpty);
    for (std::uint32_t pos = 0; pos < entries_.size(); ++pos) {
      std::size_t cell = home(entries_[pos].first);
      while (index_[cell] != kEmpty) cell = next(cell);
      index_[cell] = pos;
    }
  }

  void erase_cell(std::size_t cell) {
    const std::uint32_t pos = index_[cell];
    // Backward-shift deletion: walk the rest of the probe run and pull
    // each entry whose home lies cyclically at or before the hole back
    // into it, so every remaining key stays reachable from its home
    // without tombstones.
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = cell;
    for (std::size_t j = next(hole); index_[j] != kEmpty; j = next(j)) {
      const std::size_t h = home(entries_[index_[j]].first);
      if (((j - h) & mask) >= ((j - hole) & mask)) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole] = kEmpty;
    // Keep the entries dense: the last one moves into the erased slot.
    const auto last = static_cast<std::uint32_t>(entries_.size() - 1);
    if (pos != last) {
      index_[cell_of(last)] = pos;
      entries_[pos] = std::move(entries_[last]);
    }
    entries_.pop_back();
  }

  std::vector<value_type> entries_;
  std::vector<std::uint32_t> index_;
};

/// A FlatMap without values: membership of integer keys, with the same
/// layout, invalidation rules and allocation behaviour.
template <typename K>
class FlatSet {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }
  [[nodiscard]] bool empty() const noexcept { return map_.empty(); }
  [[nodiscard]] bool contains(K key) const noexcept {
    return map_.contains(key);
  }
  /// Adds `key`; returns false when it was already present.
  bool insert(K key) { return map_.emplace(key).second; }
  std::size_t erase(K key) { return map_.erase(key); }
  void clear() noexcept { map_.clear(); }

 private:
  struct Unit {};
  FlatMap<K, Unit> map_;
};

}  // namespace gridfed::sim
