// LadderQueue cold paths: Bottom refill (bucket pull + sort), rung
// spawning/retirement with storage recycling, the Top transfer, and the
// structural self-check.  The hot push/pop/min paths are header-inline
// (ladder_queue.hpp) so EventQueue folds them into its dispatch loop.

#include "sim/ladder_queue.hpp"

#include <algorithm>
#include <cmath>

namespace gridfed::sim {

void LadderQueue::refill_bottom() {
  // Live keys exist but Bottom ran dry: pull the earliest bucket.
  GF_EXPECTS(size_ > 0);
  GF_EXPECTS(bottom_head_ == bottom_.size());
  bottom_.clear();
  bottom_head_ = 0;
  for (;;) {
    while (!rungs_.empty() && rungs_.back().count == 0) retire_rung();
    if (rungs_.empty()) {
      GF_EXPECTS(!top_.empty());
      transfer_top();
      if (!bottom_.empty()) break;  // small/zero-width Top sorted directly
      continue;
    }
    Rung& r = rungs_.back();
    while (r.buckets[r.cur].empty()) ++r.cur;
    std::vector<FelKey>& bucket = r.buckets[r.cur];
    scratch_.clear();
    scratch_.insert(scratch_.end(), bucket.begin(), bucket.end());
    bucket.clear();  // capacity retained for recycling
    r.count -= scratch_.size();
    const SimTime lo = rung_cur_start(r);
    ++r.cur;  // the consumption frontier passes this bucket
    if (scratch_.size() > kSortThreshold && rungs_.size() < kMaxRungs) {
      // Oversized bucket: re-spread across a kBucketsPerRung× finer
      // child rung — unless its timestamps cannot be subdivided (the
      // zero-width pathological case: all-equal times, or a width that
      // underflows to nothing), which sorts straight into Bottom.
      SimTime mn = fel_time_of(scratch_.front());
      SimTime mx = mn;
      for (const FelKey k : scratch_) {
        const SimTime t = fel_time_of(k);
        if (t < mn) mn = t;
        if (t > mx) mx = t;
      }
      const SimTime child_width =
          r.width / static_cast<SimTime>(kBucketsPerRung);
      if (mx > mn && child_width > 0.0 && lo + child_width > lo) {
        spawn_rung(lo, r.width);  // consumes scratch_; r may reallocate
        continue;
      }
    }
    std::swap(bottom_, scratch_);  // buffers trade places, no realloc
    std::sort(bottom_.begin(), bottom_.end());
    break;
  }
  // Fully drained rungs retire eagerly so push() never has to reason
  // about a rung whose frontier sits past its last bucket.
  while (!rungs_.empty() && rungs_.back().count == 0) retire_rung();
  GF_ENSURES(!bottom_.empty());
}

SimTime LadderQueue::bucket_threshold(const Rung& r, std::size_t b) noexcept {
  if (b >= kBucketsPerRung) return kTimeInfinity;
  if (b == 0) return -kTimeInfinity;
  // start + b * width is within a few ulps of the threshold; step to the
  // exact edge, which exists because bucket_of is monotone in t.
  SimTime t = r.start + static_cast<SimTime>(b) * r.width;
  while (bucket_of(r, t) >= b) t = std::nextafter(t, -kTimeInfinity);
  while (bucket_of(r, t) < b) t = std::nextafter(t, kTimeInfinity);
  return t;
}

void LadderQueue::transfer_top() {
  const SimTime floor = top_max_;
  if (top_.size() <= kSortThreshold || !(top_max_ > top_min_)) {
    // Small batch, or the zero-width case (every timestamp identical):
    // sort straight into Bottom.  Buffers swap, so Top keeps Bottom's
    // (empty, high-water) storage.
    std::swap(bottom_, top_);
    top_.clear();
    std::sort(bottom_.begin(), bottom_.end());
    bottom_head_ = 0;
    top_floor_ = floor;
    return;
  }
  const SimTime width =
      (top_max_ - top_min_) / static_cast<SimTime>(kBucketsPerRung);
  if (!(width > 0.0) || !(top_min_ + width > top_min_)) {
    // Span too narrow to subdivide in FP: degenerate to the sort path.
    std::swap(bottom_, top_);
    top_.clear();
    std::sort(bottom_.begin(), bottom_.end());
    bottom_head_ = 0;
    top_floor_ = floor;
    return;
  }
  Rung r = acquire_rung();
  r.start = top_min_;
  r.width = width;
  r.end = kTimeInfinity;
  r.count = top_.size();
  for (const FelKey k : top_) {
    r.buckets[bucket_of(r, fel_time_of(k))].push_back(k);
  }
  rungs_.push_back(std::move(r));
  top_.clear();
  top_floor_ = floor;
}

void LadderQueue::spawn_rung(SimTime lo, SimTime parent_width) {
  // The parent just consumed bucket cur-1 into scratch_; the child owns
  // exactly the timestamps the parent bins there.
  const Rung& parent = rungs_.back();
  Rung r = acquire_rung();
  r.start = lo;
  r.width = parent_width / static_cast<SimTime>(kBucketsPerRung);
  r.end = std::min(parent.end, bucket_threshold(parent, parent.cur));
  r.count = scratch_.size();
  for (const FelKey k : scratch_) {
    r.buckets[bucket_of(r, fel_time_of(k))].push_back(k);
  }
  scratch_.clear();
  rungs_.push_back(std::move(r));
}

LadderQueue::Rung LadderQueue::acquire_rung() {
  if (!rung_pool_.empty()) {
    Rung r = std::move(rung_pool_.back());
    rung_pool_.pop_back();
    r.cur = 0;
    r.count = 0;
    return r;  // bucket vectors keep their high-water capacity
  }
  Rung r;
  r.buckets.resize(kBucketsPerRung);
  return r;
}

void LadderQueue::retire_rung() {
  Rung r = std::move(rungs_.back());
  rungs_.pop_back();
  r.cur = 0;
  r.count = 0;
  rung_pool_.push_back(std::move(r));
}

void LadderQueue::clear() noexcept {
  top_.clear();
  while (!rungs_.empty()) {
    Rung& r = rungs_.back();
    for (auto& b : r.buckets) b.clear();
    r.cur = 0;
    r.count = 0;
    rung_pool_.push_back(std::move(r));  // capacity reserved in ctor
    rungs_.pop_back();
  }
  bottom_.clear();
  bottom_head_ = 0;
  scratch_.clear();
  size_ = 0;
  top_floor_ = -1.0;
  top_min_ = 0.0;
  top_max_ = 0.0;
}

void LadderQueue::debug_validate() const {
  std::size_t total = top_.size() + (bottom_.size() - bottom_head_);
  GF_ENSURES(bottom_head_ <= bottom_.size());
  for (std::size_t i = bottom_head_ + 1; i < bottom_.size(); ++i) {
    GF_ENSURES(!(bottom_[i] < bottom_[i - 1]));  // Bottom sorted ascending
  }
  for (std::size_t i = 0; i < rungs_.size(); ++i) {
    const Rung& r = rungs_[i];
    GF_ENSURES(r.width > 0.0);
    GF_ENSURES(r.cur <= kBucketsPerRung);
    // Ends shrink toward the finest rung; every key sits in the bucket
    // its rung bins it into, below the rung's end.
    if (i > 0) GF_ENSURES(r.end <= rungs_[i - 1].end);
    std::size_t in_rung = 0;
    for (std::size_t b = 0; b < r.buckets.size(); ++b) {
      if (b < r.cur) GF_ENSURES(r.buckets[b].empty());
      for (const FelKey k : r.buckets[b]) {
        GF_ENSURES(bucket_of(r, fel_time_of(k)) == b);
        GF_ENSURES(fel_time_of(k) < r.end);
      }
      in_rung += r.buckets[b].size();
    }
    GF_ENSURES(in_rung == r.count);
    GF_ENSURES(r.count > 0);  // drained rungs retire eagerly
    total += r.count;
  }
  GF_ENSURES(total == size_);
  for (const FelKey k : top_) {
    // Top holds strictly-later keys only (the tie-order boundary).
    GF_ENSURES(fel_time_of(k) > top_floor_ || top_floor_ < 0.0);
    GF_ENSURES(fel_time_of(k) >= top_min_ && fel_time_of(k) <= top_max_);
  }
}

}  // namespace gridfed::sim
