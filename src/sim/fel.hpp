#pragma once
// Future-event-list (FEL) structures shared by the event kernel.
//
// A pending event is one 128-bit integer key
//
//     [ time as IEEE-754 bits : 64 | priority : 2 | seq : 40 | slot : 22 ]
//
// For non-negative doubles the IEEE bit pattern orders exactly like the
// value, so a single unsigned 128-bit compare implements the full
// (time, priority, seq) strict weak ordering — one branch where the
// naive comparator needs three.  The callbacks live in a stable
// slot-indexed side array owned by EventQueue and never move while
// queued; the FEL structures below shuffle 16-byte integers only.
//
// Two structures satisfy the `Fel` concept:
//
//   * HeapFel     — the PR 2 4-ary min-heap: O(log n) push/pop, the
//                   fastest choice while the key working set fits L1/L2;
//   * LadderQueue — the classic Rung/Bucket/Bottom ladder queue
//                   (ladder_queue.hpp): O(1) amortized push/pop
//                   independent of the pending-set size, the choice once
//                   the heap would fall into the cold-cache heapsort
//                   regime (BENCH_kernel_micro.json, 16384+).
//
// Both pop in exactly the same total order — the full 128-bit key order,
// which keys are unique under (slot uniqueness) — so EventQueue can swap
// or hybridize them without perturbing a single golden digest.

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/check.hpp"
#include "sim/types.hpp"

namespace gridfed::sim {

/// Packed FEL key; see the layout above.
using FelKey = unsigned __int128;

inline constexpr std::uint64_t kFelSlotBits = 22;
inline constexpr std::uint64_t kFelSeqBits = 40;
inline constexpr std::uint64_t kFelSlotMask =
    (std::uint64_t{1} << kFelSlotBits) - 1;

[[nodiscard]] inline SimTime fel_time_of(FelKey k) noexcept {
  return std::bit_cast<SimTime>(static_cast<std::uint64_t>(k >> 64));
}

[[nodiscard]] inline std::uint32_t fel_slot_of(FelKey k) noexcept {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(k) &
                                    kFelSlotMask);
}

/// Low 64 bits of a key: priority ‖ seq ‖ slot.  Unique per pending
/// event whenever seqs are unique (the Simulation assigns a monotone
/// counter), so it serves as a compact cancellation identity.
[[nodiscard]] inline std::uint64_t fel_low64(FelKey k) noexcept {
  return static_cast<std::uint64_t>(k);
}

/// FEL tuning.  The default is the hybrid: the EventQueue stays on the
/// 4-ary heap while its pending set is below `spill_threshold` keys —
/// i.e. while ~16 B/key keeps the working set inside L1/L2 — and spills
/// to the ladder queue above it.  Un-spill happens at spill_threshold/4
/// (hysteresis, so a pending set oscillating around the threshold does
/// not thrash O(n) migrations).
struct FelConfig {
  enum class Kind : std::uint8_t {
    kHybrid,  ///< heap below spill_threshold, ladder above (the default)
    kHeap,    ///< 4-ary heap always (the pre-ladder kernel, A/B baseline)
    kLadder,  ///< ladder always (A/B column; forces the spill from key 1)
  };
  Kind kind = Kind::kHybrid;

  /// Pending-key count at which a hybrid queue migrates heap → ladder.
  /// ~8192 keys = 128 KB of keys: past the L1 the heap's pop becomes a
  /// dependent-load heapsort (the 16384 cliff in BENCH_kernel_micro).
  std::size_t spill_threshold = 8192;
};

[[nodiscard]] constexpr const char* to_string(FelConfig::Kind kind) noexcept {
  switch (kind) {
    case FelConfig::Kind::kHybrid:
      return "hybrid";
    case FelConfig::Kind::kHeap:
      return "heap";
    case FelConfig::Kind::kLadder:
      return "ladder";
  }
  __builtin_unreachable();
}

/// The structural interface EventQueue drives.  `min_key`/`pop_min` may
/// mutate (the ladder sorts its Bottom tier lazily, on first access to a
/// bucket), hence no const there.  `drain_into` empties the structure in
/// unspecified order — the migration path between structures — and
/// `build_from` bulk-loads from such a drain.
template <typename T>
concept Fel = requires(T t, const T& ct, FelKey k, std::vector<FelKey>& keys) {
  { t.push(k) };
  { t.pop_min() } -> std::same_as<FelKey>;
  { t.min_key() } -> std::same_as<FelKey>;
  { ct.empty() } -> std::convertible_to<bool>;
  { ct.size() } -> std::convertible_to<std::size_t>;
  { t.clear() };
  { t.drain_into(keys) };
  { t.build_from(keys) };
};

/// 4-ary min-heap over packed keys (carved out of the PR 2 EventQueue).
/// 4-ary rather than binary because halving the tree depth halves the
/// key moves per pop and four children share a cache line.  Sifts use
/// hole insertion (one move per level) instead of the three-move swaps
/// std::push_heap / std::pop_heap perform; pops use bottom-up Wegener
/// deletion (see pop_min).
class HeapFel {
 public:
  HeapFel() { heap_.reserve(kInitialCapacity); }

  void push(FelKey key) {
    // Hole insertion: open a hole at the back, move parents down while
    // they sort after the new key, then drop the key into the hole.
    std::size_t hole = heap_.size();
    heap_.emplace_back();
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (!(key < heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = key;
  }

  /// Removes and returns the minimum key.  Precondition: !empty().
  [[nodiscard]] FelKey pop_min() {
    GF_EXPECTS(!heap_.empty());
    const FelKey top = heap_.front();
    const std::size_t n = heap_.size() - 1;
    if (n == 0) {
      heap_.pop_back();
      return top;
    }
    const FelKey last = heap_.back();
    heap_.pop_back();
    // Bottom-up deletion (Wegener): promote the min-child chain into the
    // root hole all the way to a leaf — branchlessly, the chain is fully
    // determined by the children — then sift the former last key up from
    // the leaf hole (it was a leaf itself, so it almost always stays
    // put).  This avoids the per-level "does `last` fit here?"
    // mispredicted branch of the classic sift-down.
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = hole * kArity + 1;
      if (first + kArity <= n) {  // full node: branchless min of four
        const std::size_t b01 =
            heap_[first + 1] < heap_[first] ? first + 1 : first;
        const std::size_t b23 =
            heap_[first + 3] < heap_[first + 2] ? first + 3 : first + 2;
        const std::size_t best = heap_[b23] < heap_[b01] ? b23 : b01;
        heap_[hole] = heap_[best];
        hole = best;
      } else {
        if (first >= n) break;
        std::size_t best = first;
        for (std::size_t c = first + 1; c < n; ++c) {
          if (heap_[c] < heap_[best]) best = c;
        }
        heap_[hole] = heap_[best];
        hole = best;
      }
    }
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (!(last < heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = last;
    return top;
  }

  /// The minimum key without removing it.  Precondition: !empty().
  [[nodiscard]] FelKey min_key() {
    GF_EXPECTS(!heap_.empty());
    return heap_.front();
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  void clear() noexcept { heap_.clear(); }

  /// Moves every key into `out` (appended, unspecified order) and
  /// empties the heap.  Capacity is retained for the un-spill round trip.
  void drain_into(std::vector<FelKey>& out) {
    out.insert(out.end(), heap_.begin(), heap_.end());
    heap_.clear();
  }

  /// Bulk-load from an unordered key set: Floyd heapify, O(n) instead of
  /// n× push.  The pop order is the total key order either way — layout
  /// differences are unobservable.
  void build_from(const std::vector<FelKey>& keys) {
    heap_.assign(keys.begin(), keys.end());
    if (heap_.size() < 2) return;
    for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) {
      sift_down(i);
    }
  }

 private:
  static constexpr std::size_t kArity = 4;
  static constexpr std::size_t kInitialCapacity = 4096;

  void sift_down(std::size_t hole) {
    const std::size_t n = heap_.size();
    const FelKey key = heap_[hole];
    for (;;) {
      const std::size_t first = hole * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t limit = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < limit; ++c) {
        if (heap_[c] < heap_[best]) best = c;
      }
      if (!(heap_[best] < key)) break;
      heap_[hole] = heap_[best];
      hole = best;
    }
    heap_[hole] = key;
  }

  std::vector<FelKey> heap_;
};

static_assert(Fel<HeapFel>);

}  // namespace gridfed::sim
