#include "cluster/availability_profile.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace gridfed::cluster {

AvailabilityProfile::AvailabilityProfile(std::uint32_t capacity)
    : capacity_(capacity) {
  GF_EXPECTS(capacity > 0);
  steps_.emplace(0.0, capacity);
}

std::uint32_t AvailabilityProfile::available_at(sim::SimTime t) const {
  auto it = steps_.upper_bound(t);
  if (it == steps_.begin()) return capacity_;  // before recorded history
  return std::prev(it)->second;
}

sim::SimTime AvailabilityProfile::earliest_start(sim::SimTime not_before,
                                                 std::uint32_t procs,
                                                 sim::SimTime duration) const {
  GF_EXPECTS(procs > 0 && procs <= capacity_);
  GF_EXPECTS(duration >= 0.0);

  sim::SimTime candidate = not_before;
  // Walk the steps; whenever a step inside the candidate window dips below
  // `procs`, restart the window just after that step.
  auto it = steps_.upper_bound(candidate);
  if (it != steps_.begin()) --it;  // step in force at `candidate`
  while (it != steps_.end()) {
    const sim::SimTime seg_start = std::max(it->first, candidate);
    if (seg_start >= candidate + duration) break;  // window fully verified
    if (seg_start >= latest_start_ && it->second >= procs) {
      break;  // no reservation starts later: every later step fits too
    }
    if (it->second < procs) {
      // Window fails here; candidate moves past this segment.
      auto next = std::next(it);
      GF_ENSURES(next != steps_.end());  // last segment has full capacity
      candidate = next->first;
      it = next;
      continue;
    }
    ++it;
  }
  return candidate;
}

std::map<sim::SimTime, std::uint32_t>::iterator
AvailabilityProfile::ensure_boundary(sim::SimTime t) {
  auto it = steps_.lower_bound(t);
  if (it != steps_.end() && it->first == t) return it;
  // Value in force just before t.
  const std::uint32_t value =
      (it == steps_.begin()) ? capacity_ : std::prev(it)->second;
  return steps_.emplace_hint(it, t, value);
}

void AvailabilityProfile::reserve(sim::SimTime start, sim::SimTime end,
                                  std::uint32_t procs) {
  GF_EXPECTS(procs > 0 && procs <= capacity_);
  GF_EXPECTS(start <= end);
  if (start == end) return;  // zero-length reservation is a no-op

  auto first = ensure_boundary(start);
  ensure_boundary(end);
  for (auto it = first; it != steps_.end() && it->first < end; ++it) {
    GF_EXPECTS(it->second >= procs);  // caller must have verified the window
    it->second -= procs;
  }
  latest_start_ = std::max(latest_start_, start);
}

void AvailabilityProfile::release(sim::SimTime start, sim::SimTime end,
                                  std::uint32_t procs) {
  GF_EXPECTS(procs > 0 && procs <= capacity_);
  GF_EXPECTS(start <= end);
  if (start == end) return;

  auto first = ensure_boundary(start);
  ensure_boundary(end);
  for (auto it = first; it != steps_.end() && it->first < end; ++it) {
    GF_EXPECTS(it->second + procs <= capacity_);  // must match a reserve
    it->second += procs;
  }
}

void AvailabilityProfile::trim(sim::SimTime now) {
  auto it = steps_.upper_bound(now);
  if (it == steps_.begin()) return;
  --it;  // step in force at `now`
  if (it == steps_.begin()) return;
  // Re-anchor the in-force step at `now` and drop everything earlier.
  const std::uint32_t value = it->second;
  steps_.erase(steps_.begin(), std::next(it));
  steps_.emplace(now, value);
}

bool AvailabilityProfile::valid() const {
  if (steps_.empty()) return false;
  for (const auto& [t, avail] : steps_) {
    if (avail > capacity_) return false;
  }
  return steps_.rbegin()->second == capacity_;
}

}  // namespace gridfed::cluster
