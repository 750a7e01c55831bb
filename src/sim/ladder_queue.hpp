#pragma once
// Ladder queue: the event kernel's future-event list, O(1) amortized per
// push/pop independent of the pending-set size (Tang, Goh & Thng's
// classic Rung/Bucket/Bottom design, adapted to the kernel's packed
// 128-bit keys — see fel.hpp for the layout).
//
// Three tiers:
//
//   Top     — an unsorted append-only staging list.  Every push whose
//             timestamp lies beyond `top_floor_` (the high-water mark of
//             the last Top transfer) lands here in O(1): one store, no
//             comparisons, no sift.
//   Rungs   — a stack of progressively finer bucket arrays.  When Top is
//             first needed it is spread across rung 0's buckets (width =
//             span / kBucketsPerRung).  A bucket that surfaces with more
//             than kSortThreshold keys is re-spread across a child rung
//             whose buckets are kBucketsPerRung× finer; one that
//             surfaces small is sorted straight into Bottom.  Each key
//             is touched O(#rungs) ≤ kMaxRungs times in total, so the
//             re-spreading amortizes to O(1) per event.
//   Bottom  — the only sorted tier: an ascending vector with a consumed-
//             prefix cursor, holding the earliest bucket's keys.  Pops
//             read Bottom's head; sorting happens once per bucket, not
//             per pop — "Bottom is sorted only when a bucket is popped".
//
// Pops come out in the exact full-key order — (time, priority, seq,
// slot) — because bucket binning is monotone in time
// (floor((t-start)/width) with defensive clamping) and every tier is
// finally ordered by the complete 128-bit key: the order a binary heap
// over the same keys would produce (tests/test_ladder_queue.cpp checks
// pop order against std::priority_queue and pins whole federation runs
// to digests recorded with a 4-ary heap as the FEL).
//
// Tie order at a shared timestamp needs one boundary care: a push at
// exactly `top_floor_` may rank *before* same-time keys already spread
// into the rungs (a lower priority class), so only strictly later
// timestamps go to Top; floor-equal pushes take the rung/Bottom path and
// sort into place.  Below Top, a push lands exactly where the spreading
// would have put it: a child rung owns precisely the timestamps its
// parent bins into the bucket it was spawned from (its `end` is the
// exact FP threshold of the parent's next bucket, found at spawn time),
// so a key stamped on a rung edge — the window end, say — never lands
// in an already-consumed bucket.  The zero-width pathological case — a
// bucket (or the whole Top batch) whose timestamps are all identical and
// thus cannot be subdivided — short-circuits to a Bottom sort regardless
// of size.
//
// Steady state is allocation-free: retired rungs park in a pool with
// their bucket storage intact, Bottom/scratch swap buffers instead of
// reallocating, and Top keeps its high-water capacity (the counting-new
// assert in tests/test_ladder_queue.cpp holds the line).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/check.hpp"
#include "sim/fel.hpp"
#include "sim/types.hpp"

namespace gridfed::sim {

class LadderQueue {
 public:
  LadderQueue() {
    top_.reserve(kInitialCapacity);
    bottom_.reserve(kInitialCapacity);
    scratch_.reserve(kInitialCapacity);
  }

  /// O(1) (amortized): Top append, a ≤ kMaxRungs rung walk, or a Bottom
  /// sorted insert (O(1) for the ascending pushes the mailbox drain and
  /// same-instant reschedules produce; O(|Bottom|) worst case).
  void push(FelKey key) {
    const SimTime t = fel_time_of(key);
    ++size_;
    // Strictly-later only: a floor-equal key may tie-break *before*
    // same-time keys already in the rungs (see header).
    if (t > top_floor_) {
      if (top_.empty() || t < top_min_) top_min_ = t;
      if (top_.empty() || t > top_max_) top_max_ = t;
      top_.push_back(key);
      return;
    }
    if (!rungs_.empty()) {
      // Finest-to-coarsest walk: the finest rung whose span still holds
      // t owns it (ends shrink toward the finest rung, and the coarsest
      // rung holds everything up to top_floor_).  The owner's bucket for
      // t is live unless t fell below the finest rung's frontier.
      std::size_t i = rungs_.size() - 1;
      while (i > 0 && !(t < rungs_[i].end)) --i;
      Rung& r = rungs_[i];
      const std::size_t idx = bucket_of(r, t);
      if (idx >= r.cur) {
        r.buckets[idx].push_back(key);
        ++r.count;
        return;
      }
      // Below the consumption frontier: belongs among Bottom's keys.
      GF_SIM_CHECK(i + 1 == rungs_.size());
    }
    bottom_insert(key);
  }

  /// Removes and returns the minimum key.  Precondition: !empty().
  [[nodiscard]] FelKey pop_min() {
    GF_EXPECTS(size_ > 0);
    if (bottom_head_ == bottom_.size()) refill_bottom();
    --size_;
    const FelKey key = bottom_[bottom_head_++];
    if (bottom_head_ == bottom_.size()) {
      bottom_.clear();
      bottom_head_ = 0;
    }
    return key;
  }

  /// The minimum key without removing it.  May materialize (sort) the
  /// next bucket into Bottom.  Precondition: !empty().
  [[nodiscard]] FelKey min_key() {
    GF_EXPECTS(size_ > 0);
    if (bottom_head_ == bottom_.size()) refill_bottom();
    return bottom_[bottom_head_];
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  void clear() noexcept;

  // ---- introspection (tests, debug checks) --------------------------------

  /// Rungs currently spawned (0 when everything sits in Top/Bottom).
  [[nodiscard]] std::size_t active_rungs() const noexcept {
    return rungs_.size();
  }

  /// True when the minimum is already sorted into Bottom, i.e.
  /// materialized_min() is readable without forcing a bucket sort.
  [[nodiscard]] bool min_materialized() const noexcept {
    return bottom_head_ < bottom_.size();
  }
  /// The structural minimum.  Precondition: min_materialized().  Every
  /// Bottom key sorts before every rung/Top key (Bottom sits below the
  /// consumption frontier), so Bottom's head is the global min.
  [[nodiscard]] FelKey materialized_min() const noexcept {
    return bottom_[bottom_head_];
  }
  /// Keys already sorted into Bottom and awaiting pop.  Unlike a heap —
  /// whose pop order beyond the root is unknowable without popping —
  /// these ARE the next materialized_run() pops, in order; EventQueue
  /// exploits that to prefetch several dispatches ahead.
  [[nodiscard]] std::size_t materialized_run() const noexcept {
    return bottom_.size() - bottom_head_;
  }
  /// The (i+1)-th next pop.  Precondition: i < materialized_run().
  [[nodiscard]] FelKey materialized_at(std::size_t i) const noexcept {
    return bottom_[bottom_head_ + i];
  }

  /// Always-compiled structural self-check (GF_SIM_CHECK wires it into
  /// every mutating EventQueue op in debug builds; Release fuzz tests
  /// call it explicitly): tier sizes sum to size(), Bottom is sorted,
  /// rung bucket counts are consistent.  Throws ContractViolation.
  void debug_validate() const;

 private:
  /// Buckets per rung.  128 keeps a rung's bucket headers (128 × 24 B
  /// vector headers) inside two pages while giving each spawn a 128×
  /// width refinement.
  static constexpr std::size_t kBucketsPerRung = 128;
  /// A bucket surfacing with more keys than this is re-spread into a
  /// child rung; at or below it, sorted straight into Bottom.
  static constexpr std::size_t kSortThreshold = 64;
  /// Depth cap: beyond it buckets sort into Bottom regardless of size
  /// (graceful degradation for adversarially clustered timestamps).
  static constexpr std::size_t kMaxRungs = 8;
  static constexpr std::size_t kInitialCapacity = 1024;

  struct Rung {
    SimTime start = 0.0;   ///< timestamp of bucket 0's left edge
    SimTime width = 0.0;   ///< bucket width (> 0)
    /// Timestamps below this belong to this rung or a finer one: the
    /// first time the parent bins past the bucket this rung was spawned
    /// from, capped by the parent's own end (+inf for the coarsest).
    SimTime end = kTimeInfinity;
    std::size_t cur = 0;   ///< first unconsumed bucket
    std::size_t count = 0; ///< live keys across buckets [cur, end)
    std::vector<std::vector<FelKey>> buckets;  ///< kBucketsPerRung entries
  };

  [[nodiscard]] static SimTime rung_cur_start(const Rung& r) noexcept {
    return r.start + static_cast<SimTime>(r.cur) * r.width;
  }

  /// The bucket of `t` in `r`: floor((t - start) / width) clamped to
  /// [0, kBucketsPerRung).  Monotone in t (IEEE subtraction, division
  /// and floor all are), so binning never inverts two keys.  Spreading
  /// and pushes both bin through here, so they always agree.
  [[nodiscard]] static std::size_t bucket_of(const Rung& r,
                                             SimTime t) noexcept {
    const SimTime rel = (t - r.start) / r.width;
    if (!(rel > 0.0)) return 0;
    if (rel < static_cast<SimTime>(kBucketsPerRung)) {
      return static_cast<std::size_t>(rel);
    }
    return kBucketsPerRung - 1;
  }

  /// The smallest timestamp that `r` bins into bucket `b` or later
  /// (+inf when b is past the last bucket).
  [[nodiscard]] static SimTime bucket_threshold(const Rung& r,
                                                std::size_t b) noexcept;

  void bottom_insert(FelKey key) {
    if (bottom_head_ == bottom_.size()) {
      bottom_.clear();
      bottom_head_ = 0;
    }
    // Ascending inserts (the common pattern: mailbox drains arrive
    // key-sorted, reschedules land at/after the clock) append in O(1).
    if (bottom_.empty() || !(key < bottom_.back())) {
      bottom_.push_back(key);
      return;
    }
    const auto it = std::upper_bound(bottom_.begin() +
                                         static_cast<std::ptrdiff_t>(
                                             bottom_head_),
                                     bottom_.end(), key);
    bottom_.insert(it, key);
  }

  // Cold path: Bottom ran dry — pull the next bucket (spawning finer
  // rungs for oversized ones) or spread Top.  Defined in
  // ladder_queue.cpp.
  void refill_bottom();
  void spawn_rung(SimTime lo, SimTime parent_width);
  void transfer_top();
  void retire_rung();
  [[nodiscard]] Rung acquire_rung();

  std::vector<FelKey> top_;
  SimTime top_min_ = 0.0;
  SimTime top_max_ = 0.0;
  /// Pushes must be strictly later than this to enter Top (the max
  /// timestamp of the last transfer; -1 = nothing transferred yet, so
  /// every non-negative time stages through Top).
  SimTime top_floor_ = -1.0;

  std::vector<Rung> rungs_;       ///< [0] coarsest … back() finest/active
  std::vector<Rung> rung_pool_;   ///< retired rungs, bucket storage kept

  std::vector<FelKey> bottom_;    ///< ascending; live keys at [head, end)
  std::size_t bottom_head_ = 0;

  std::vector<FelKey> scratch_;   ///< bucket staging (swapped, not grown)
  std::size_t size_ = 0;
};

}  // namespace gridfed::sim
