#pragma once
// Per-job outcome records.  The federation driver collects one JobOutcome
// per trace job; every table and figure of the evaluation is an
// aggregation over these records.

#include <cstdint>
#include <span>

#include "cluster/job.hpp"
#include "cluster/resource.hpp"
#include "sim/types.hpp"

namespace gridfed::core {

/// Final fate of one job.
struct JobOutcome {
  cluster::Job job;
  bool accepted = false;

  // Valid when accepted:
  cluster::ResourceIndex executed_on = 0;
  sim::SimTime start = 0.0;
  sim::SimTime completion = 0.0;
  double cost = 0.0;  ///< Grid Dollars settled

  /// Remote negotiate rounds performed (accepted + rejected enquiries).
  std::uint32_t negotiations = 0;
  /// Protocol messages attributable to this job
  /// (2 * negotiations [+ submission + completion when migrated]).
  std::uint64_t messages = 0;

  /// The job was placed through a coalition's internal dispatch (a
  /// representative accepted on the group's behalf, or the origin's own
  /// coalition won).  Gates the surplus-split settlement: a job that
  /// ultimately ran through a solo path must settle solo even when a
  /// stale coalition placement note exists for it (lossy-network
  /// re-schedules).  Always false in the solo market.
  bool via_coalition = false;

  /// The market participant the settlement was credited to: the
  /// coalition's id when the payment was split across a group, otherwise
  /// the executing cluster itself.  Filled at settlement so the outcome
  /// CSV can be re-analyzed offline without the bank.
  std::uint32_t settled_participant = 0;
  /// The executing member's share of a coalition split (its ask plus its
  /// cut of the surplus); equals `cost` for solo settlements.
  double surplus_share = 0.0;

  /// Response time experienced by the user (queue wait + execution).
  [[nodiscard]] sim::SimTime response_time() const noexcept {
    return completion - job.submit;
  }
  /// True when the job ran on a cluster other than its origin.
  [[nodiscard]] bool migrated() const noexcept {
    return accepted && executed_on != job.origin;
  }
  /// QoS verdict: completed within both deadline and budget (paper §2.1).
  [[nodiscard]] bool qos_satisfied() const noexcept {
    return accepted && completion <= job.absolute_deadline() &&
           cost <= job.budget;
  }
};

/// Order-independent digest of a run's per-job outcomes: the records are
/// sorted by job id, then (id, accepted, executed_on, start, completion,
/// cost, negotiations, messages) of each is folded in with
/// sim::fnv1a_mix.  The hash starts from sim::kFnvOffsetBasis, the
/// truncated FNV basis kept because every golden digest was recorded
/// from it.
[[nodiscard]] std::uint64_t outcome_digest(
    std::span<const JobOutcome> outcomes);

}  // namespace gridfed::core
