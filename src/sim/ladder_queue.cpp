// LadderQueue cold paths: Bottom refill (bucket pull + sort), the Bottom
// spill, rung spawning, the Top transfer, and the structural self-check.
// The hot push/pop/min paths are header-inline (ladder_queue.hpp) so
// EventQueue folds them into its dispatch loop.

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
    while (!rungs_.empty() && rungs_.back().count == 0) rungs_.pop_back();
    if (rungs_.empty()) {
      GF_EXPECTS(!top_.empty());
      transfer_top();
      if (!bottom_.empty()) break;  // zero-width Top sorted directly
      continue;
    }
    Rung& r = rungs_.back();
    while (r.heads[r.cur] == kNil) ++r.cur;
    // Copy the bucket's keys into Bottom and hand its whole list back to
    // the free list in one splice.
    std::uint32_t last = r.heads[r.cur];
    for (std::uint32_t n = last; n != kNil; n = nodes_[n].next) {
      bottom_.push_back(nodes_[n].key);
      last = n;
    }
    nodes_[last].next = free_;
    free_ = r.heads[r.cur];
    r.heads[r.cur] = kNil;
    r.count -= bottom_.size();
    const SimTime lo = rung_cur_start(r);
    ++r.cur;  // the consumption frontier passes this bucket
    if (bottom_.size() > kSortThreshold && rungs_.size() < kMaxRungs) {
      // Oversized bucket: re-spread across a kBucketsPerRung× finer
      // child rung — unless its timestamps cannot be subdivided (the
      // zero-width pathological case: all-equal times, or a width that
      // underflows to nothing), which sorts straight into Bottom.
      SimTime mn = fel_time_of(bottom_.front());
      SimTime mx = mn;
      for (const FelKey k : bottom_) {
        const SimTime t = fel_time_of(k);
        if (t < mn) mn = t;
        if (t > mx) mx = t;
      }
      const SimTime child_width =
          r.width / static_cast<SimTime>(kBucketsPerRung);
      if (mx > mn && child_width > 0.0 && lo + child_width > lo) {
        spawn_rung(lo, r.width);  // takes Bottom's keys
        continue;
      }
    }
    std::sort(bottom_.begin(), bottom_.end());
    break;
  }
  // Fully drained rungs retire eagerly so push() never has to reason
  // about a rung whose frontier sits past its last bucket.
  while (!rungs_.empty() && rungs_.back().count == 0) rungs_.pop_back();
  GF_ENSURES(!bottom_.empty());
}

bool LadderQueue::spill_bottom() {
  // Bottom's live keys all lie below the finest rung's frontier (below
  // or at top_floor_ without a rung), and so does every later push that
  // would sort into Bottom: a rung over [head time, frontier) takes the
  // keys past its first bucket, and later pushes there, in O(1) each.
  // The first bucket's keys are a sorted prefix of Bottom and stay; with
  // the rung's frontier past that bucket, Bottom remains below it.
  if (rungs_.size() >= kMaxRungs) return false;
  Rung probe;
  probe.start = fel_time_of(bottom_[bottom_head_]);
  // A same-time cluster cannot be split.
  if (!(fel_time_of(bottom_.back()) > probe.start)) return false;
  const SimTime hi = rungs_.empty()
                         ? top_floor_
                         : bucket_threshold(rungs_.back(), rungs_.back().cur);
  probe.width = (hi - probe.start) / static_cast<SimTime>(kBucketsPerRung);
  if (!(probe.width > 0.0) || !(probe.start + probe.width > probe.start)) {
    return false;
  }
  // Every key in the first bucket: spilling would move nothing.
  if (bucket_of(probe, fel_time_of(bottom_.back())) == 0) return false;
  const auto first = std::partition_point(
      bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_head_),
      bottom_.end(),
      [&](FelKey k) { return bucket_of(probe, fel_time_of(k)) == 0; });
  // Without a rung the spill rung is the coarsest: floor-equal keys
  // (t == top_floor_) bin into its last bucket, like a Top transfer's.
  Rung& r = add_rung(probe.start, probe.width,
                     rungs_.empty() ? kTimeInfinity : hi);
  r.cur = 1;
  for (auto it = first; it != bottom_.end(); ++it) {
    link(r, bucket_of(r, fel_time_of(*it)), *it);
  }
  bottom_.erase(first, bottom_.end());
  return true;
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
  top_floor_ = top_max_;
  const SimTime width =
      (top_max_ - top_min_) / static_cast<SimTime>(kBucketsPerRung);
  if (!(width > 0.0) || !(top_min_ + width > top_min_)) {
    // The zero-width case (every timestamp identical, or a span too
    // narrow to subdivide in FP): sort straight into Bottom.  Buffers
    // swap, so Top keeps Bottom's (empty) storage.
    std::swap(bottom_, top_);
    top_.clear();
    std::sort(bottom_.begin(), bottom_.end());
    bottom_head_ = 0;
    return;
  }
  // Any batch whose times differ spreads, however small: a sorted
  // Bottom reaching far past the clock would take every later push as a
  // sorted insert.
  Rung& r = add_rung(top_min_, width, kTimeInfinity);
  for (const FelKey k : top_) link(r, bucket_of(r, fel_time_of(k)), k);
  top_.clear();
}

void LadderQueue::spawn_rung(SimTime lo, SimTime parent_width) {
  // The parent just consumed bucket cur-1 into Bottom; the child owns
  // exactly the timestamps the parent bins there.  Spawned from the
  // parent's last live bucket, the child replaces the drained parent and
  // owns everything up to the parent's end.
  const Rung& parent = rungs_.back();
  SimTime end = parent.end;
  if (parent.count == 0) {
    rungs_.pop_back();
  } else {
    end = std::min(end, bucket_threshold(parent, parent.cur));
  }
  Rung& r =
      add_rung(lo, parent_width / static_cast<SimTime>(kBucketsPerRung), end);
  for (const FelKey k : bottom_) link(r, bucket_of(r, fel_time_of(k)), k);
  bottom_.clear();
}

LadderQueue::Rung& LadderQueue::add_rung(SimTime start, SimTime width,
                                         SimTime end) {
  GF_EXPECTS(rungs_.size() < kMaxRungs);
  Rung& r = rungs_.emplace_back();
  r.start = start;
  r.width = width;
  r.end = end;
  r.heads.fill(kNil);
  return r;
}

void LadderQueue::clear() noexcept {
  top_.clear();
  rungs_.clear();
  nodes_.clear();
  free_ = kNil;
  bottom_.clear();
  bottom_head_ = 0;
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
  std::size_t linked = 0;
  for (std::size_t i = 0; i < rungs_.size(); ++i) {
    const Rung& r = rungs_[i];
    GF_ENSURES(r.width > 0.0);
    GF_ENSURES(r.cur <= kBucketsPerRung);
    // Ends shrink toward the finest rung; every key sits in the bucket
    // its rung bins it into, below the rung's end and not above the
    // Top floor.
    if (i > 0) GF_ENSURES(r.end <= rungs_[i - 1].end);
    std::size_t in_rung = 0;
    for (std::size_t b = 0; b < kBucketsPerRung; ++b) {
      if (b < r.cur) GF_ENSURES(r.heads[b] == kNil);
      for (std::uint32_t n = r.heads[b]; n != kNil; n = nodes_[n].next) {
        GF_ENSURES(n < nodes_.size());
        const SimTime t = fel_time_of(nodes_[n].key);
        GF_ENSURES(bucket_of(r, t) == b);
        GF_ENSURES(t < r.end);
        GF_ENSURES(t <= top_floor_);
        ++in_rung;
      }
    }
    GF_ENSURES(in_rung == r.count);
    GF_ENSURES(r.count > 0);  // drained rungs retire or are replaced
    total += r.count;
    linked += r.count;
  }
  GF_ENSURES(total == size_);
  // Every Bottom key precedes every rung key: it bins below the finest
  // rung's frontier.
  if (!rungs_.empty()) {
    const Rung& finest = rungs_.back();
    for (std::size_t i = bottom_head_; i < bottom_.size(); ++i) {
      GF_ENSURES(bucket_of(finest, fel_time_of(bottom_[i])) < finest.cur);
    }
  }
  // Every pool node is on exactly one list: a bucket's or the free list.
  std::size_t free_nodes = 0;
  for (std::uint32_t n = free_; n != kNil; n = nodes_[n].next) {
    GF_ENSURES(n < nodes_.size());
    GF_ENSURES(++free_nodes <= nodes_.size());
  }
  GF_ENSURES(linked + free_nodes == nodes_.size());
  for (const FelKey k : top_) {
    // Top holds strictly-later keys only (the tie-order boundary).
    GF_ENSURES(fel_time_of(k) > top_floor_ || top_floor_ < 0.0);
    GF_ENSURES(fel_time_of(k) >= top_min_ && fel_time_of(k) <= top_max_);
  }
}

}  // namespace gridfed::sim
