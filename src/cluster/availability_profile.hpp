#pragma once
// Processor-availability profile.  The LRMS answers "when could a job
// needing p processors for duration T start?" exactly, by maintaining the
// future availability of its processors as a step function under all
// reservations made so far.  This is the mechanism behind the paper's
// admission-control negotiation: a remote GFA can be given an exact FCFS
// completion-time guarantee.

#include <cstdint>
#include <map>

#include "sim/types.hpp"

namespace gridfed::cluster {

/// Step function: available processors over future time, under reservation.
///
/// Invariants (checked by `valid()` and the property tests):
///  * every step value is in [0, capacity];
///  * the final step (extending to +infinity) has value == capacity
///    (all reservations are finite);
///  * availability never decreases from `latest_start_` on: every
///    reservation starts at or before it, so after it reservations only
///    end.  earliest_start() stops its walk there.
class AvailabilityProfile {
 public:
  explicit AvailabilityProfile(std::uint32_t capacity);

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }

  /// Available processors at instant `t`.
  [[nodiscard]] std::uint32_t available_at(sim::SimTime t) const;

  /// Earliest start s >= not_before such that at least `procs` processors
  /// are available throughout [s, s + duration).  Always exists when
  /// procs <= capacity because all reservations are finite.  The walk
  /// ends at the first fitting step at or after the latest reservation
  /// start: availability cannot dip below it afterwards.
  /// Precondition: 0 < procs <= capacity, duration >= 0.
  [[nodiscard]] sim::SimTime earliest_start(sim::SimTime not_before,
                                            std::uint32_t procs,
                                            sim::SimTime duration) const;

  /// Removes `procs` processors from availability over [start, end).
  /// Precondition: the window really has `procs` available (use
  /// earliest_start first); violating this throws ContractViolation.
  void reserve(sim::SimTime start, sim::SimTime end, std::uint32_t procs);

  /// Returns `procs` processors to availability over [start, end) — the
  /// inverse of a prior reserve() with the same window (reservation
  /// cancellation).  Precondition: releasing must not push any step above
  /// capacity.  The latest-start bound is kept: removing a reservation
  /// cannot make availability decrease after it.
  void release(sim::SimTime start, sim::SimTime end, std::uint32_t procs);

  /// Drops steps strictly before `now` (history compaction).  The value in
  /// force at `now` is preserved.  Call as the simulation clock advances to
  /// keep the profile O(pending work).
  void trim(sim::SimTime now);

  /// Number of internal steps (for tests / capacity planning).
  [[nodiscard]] std::size_t step_count() const noexcept {
    return steps_.size();
  }

  /// Full invariant check; O(steps).  Used by property tests.
  [[nodiscard]] bool valid() const;

 private:
  // Ensures a step boundary exists exactly at time t (splitting the
  // enclosing segment); returns the iterator to it.
  std::map<sim::SimTime, std::uint32_t>::iterator ensure_boundary(
      sim::SimTime t);

  std::uint32_t capacity_;
  // time -> processors available from that time until the next entry.
  // Always non-empty; the last entry extends to +infinity.
  std::map<sim::SimTime, std::uint32_t> steps_;
  // Upper bound on the start of every reservation made (-inf before the
  // first); availability is non-decreasing from here on.
  sim::SimTime latest_start_ = -sim::kTimeInfinity;
};

}  // namespace gridfed::cluster
