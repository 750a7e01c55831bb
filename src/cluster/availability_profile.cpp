#include "cluster/availability_profile.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace gridfed::cluster {

AvailabilityProfile::AvailabilityProfile(std::uint32_t capacity)
    : capacity_(capacity) {
  GF_EXPECTS(capacity > 0);
  steps_.push_back(Step{0.0, capacity});
}

std::uint32_t AvailabilityProfile::available_at(sim::SimTime t) const {
  auto it = std::ranges::upper_bound(steps_, t, {}, &Step::t);
  if (it == steps_.begin()) return capacity_;  // before recorded history
  return std::prev(it)->available;
}

sim::SimTime AvailabilityProfile::earliest_start(sim::SimTime not_before,
                                                 std::uint32_t procs,
                                                 sim::SimTime duration) const {
  GF_EXPECTS(procs > 0 && procs <= capacity_);
  GF_EXPECTS(duration >= 0.0);

  sim::SimTime candidate = not_before;
  // Walk the steps; whenever a step inside the candidate window dips below
  // `procs`, restart the window just after that step.
  auto it = std::ranges::upper_bound(steps_, candidate, {}, &Step::t);
  if (it != steps_.begin()) --it;  // step in force at `candidate`
  while (it != steps_.end()) {
    const sim::SimTime seg_start = std::max(it->t, candidate);
    if (seg_start >= candidate + duration) break;  // window fully verified
    if (seg_start >= latest_start_ && it->available >= procs) {
      break;  // no reservation starts later: every later step fits too
    }
    if (it->available < procs) {
      // Window fails here; candidate moves past this segment.
      ++it;
      GF_ENSURES(it != steps_.end());  // last segment has full capacity
      candidate = it->t;
      continue;
    }
    ++it;
  }
  return candidate;
}

std::vector<AvailabilityProfile::Step>::iterator
AvailabilityProfile::ensure_boundary(sim::SimTime t) {
  auto it = std::ranges::lower_bound(steps_, t, {}, &Step::t);
  if (it != steps_.end() && it->t == t) return it;
  // Value in force just before t.
  const std::uint32_t value =
      (it == steps_.begin()) ? capacity_ : std::prev(it)->available;
  return steps_.insert(it, Step{t, value});
}

void AvailabilityProfile::reserve(sim::SimTime start, sim::SimTime end,
                                  std::uint32_t procs) {
  GF_EXPECTS(procs > 0 && procs <= capacity_);
  GF_EXPECTS(start <= end);
  if (start == end) return;  // zero-length reservation is a no-op

  // The end boundary first: inserting it second would invalidate the
  // iterator to the start boundary.
  ensure_boundary(end);
  for (auto it = ensure_boundary(start); it->t < end; ++it) {
    GF_EXPECTS(it->available >= procs);  // caller must have verified the window
    it->available -= procs;
  }
  latest_start_ = std::max(latest_start_, start);
}

void AvailabilityProfile::release(sim::SimTime start, sim::SimTime end,
                                  std::uint32_t procs) {
  GF_EXPECTS(procs > 0 && procs <= capacity_);
  GF_EXPECTS(start <= end);
  if (start == end) return;

  ensure_boundary(end);
  for (auto it = ensure_boundary(start); it->t < end; ++it) {
    GF_EXPECTS(it->available + procs <= capacity_);  // must match a reserve
    it->available += procs;
  }
}

void AvailabilityProfile::trim(sim::SimTime now) {
  auto it = std::ranges::upper_bound(steps_, now, {}, &Step::t);
  if (it == steps_.begin()) return;
  --it;  // step in force at `now`
  if (it == steps_.begin()) return;
  // Re-anchor the in-force step at `now` and drop everything earlier.
  it->t = now;
  steps_.erase(steps_.begin(), it);
}

bool AvailabilityProfile::valid() const {
  if (steps_.empty()) return false;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    if (steps_[i].available > capacity_) return false;
    if (i > 0 && !(steps_[i - 1].t < steps_[i].t)) return false;
  }
  return steps_.back().available == capacity_;
}

}  // namespace gridfed::cluster
