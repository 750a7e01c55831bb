#pragma once
// LRMS — the Local Resource Management System (the paper's PBS/SGE
// stand-in, §2.0.2).  gridfed's LRMS is a space-shared scheduler over a
// reservation-based availability profile:
//
//  * FCFS (default): each accepted job is reserved at the earliest start
//    not before the previous job's start — strict arrival-order dispatch,
//    the behaviour of GridSim's SpaceShared policy the authors extended.
//  * Conservative backfilling (option): a job may be reserved in any
//    earlier hole it fits in; reservations never move, so completion
//    guarantees made at admission still hold.
//
// Because runtimes are known exactly in trace replay, the completion time
// computed at admission is exact; this is the property that makes the
// paper's one-to-one admission-control negotiation sound.

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/availability_profile.hpp"
#include "cluster/job.hpp"
#include "cluster/resource.hpp"
#include "sim/entity.hpp"
#include "sim/flat_map.hpp"
#include "stats/utilization.hpp"

namespace gridfed::cluster {

/// Dispatch discipline of the space-shared queue.
enum class QueuePolicy : std::uint8_t {
  kFcfs,                     ///< strict arrival order (GridSim SpaceShared)
  kConservativeBackfilling,  ///< fill earlier holes; reservations immutable
};

/// Outcome of accepting a job: its definite schedule on this cluster.
struct Reservation {
  JobId job = 0;
  sim::SimTime start = 0.0;       ///< instant processors are granted
  sim::SimTime completion = 0.0;  ///< start + execution time
  std::uint32_t processors = 0;
  /// Per-LRMS monotone identity.  A lossy network can cancel and
  /// re-reserve the SAME job with the SAME start on one LRMS (the slot
  /// the cancel freed is exactly what the re-enquiry gets), so job and
  /// times cannot distinguish a reservation from its replacement — the
  /// serial can.
  std::uint64_t serial = 0;
};

/// A completed job as reported to the owning agent.
struct CompletedJob {
  Job job;
  Reservation reservation;
  ResourceIndex executed_on = 0;
};

/// Space-shared cluster scheduler (one per cluster).
class Lrms : public sim::Entity {
 public:
  using CompletionHandler = std::function<void(const CompletedJob&)>;

  Lrms(sim::Simulation& sim, sim::EntityId id, ResourceSpec spec,
       ResourceIndex index, QueuePolicy policy = QueuePolicy::kFcfs);

  [[nodiscard]] const ResourceSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] ResourceIndex index() const noexcept { return index_; }
  [[nodiscard]] QueuePolicy policy() const noexcept { return policy_; }

  /// Invoked (synchronously, at completion time) for every finished job.
  void set_completion_handler(CompletionHandler handler) {
    on_completion_ = std::move(handler);
  }

  /// Admission-control query (no side effects): the exact completion time
  /// this LRMS would guarantee if `job` (running for `exec_time` on this
  /// cluster) were accepted right now, starting no earlier than `earliest`
  /// (e.g. when its input data is still in flight over the WAN).  Returns
  /// kTimeInfinity when the job cannot run here at all (p > processors).
  [[nodiscard]] sim::SimTime estimate_completion(
      const Job& job, sim::SimTime exec_time,
      sim::SimTime earliest = 0.0) const;

  /// Expected queue wait for a hypothetical job (diagnostic metric; the
  /// NASA-superscheduler baseline uses this as its AWT signal).
  [[nodiscard]] sim::SimTime expected_wait(std::uint32_t procs,
                                           sim::SimTime exec_time) const;

  /// Accepts `job` and reserves processors, starting no earlier than
  /// `earliest`.  Precondition: the job fits (p <= processors).  Schedules
  /// start/completion events and returns the definite reservation.  The
  /// guarantee equals the last estimate_completion made in the same event
  /// (single-threaded engine).
  Reservation submit(const Job& job, sim::SimTime exec_time,
                     sim::SimTime earliest = 0.0);

  /// Cancels a reservation made by submit() before its start instant: the
  /// processors return to the availability profile and neither the start
  /// nor the completion callback fires.  Used by the failure-injection
  /// extension when a remote GFA reserved at negotiate-accept but the job
  /// payload never arrived (reply or submission lost).
  /// Precondition: now() <= reservation.start and the job has not already
  /// been cancelled.
  void cancel(const Reservation& reservation);

  /// Reservations cancelled so far.
  [[nodiscard]] std::uint64_t jobs_cancelled() const noexcept {
    return cancelled_count_;
  }

  /// Fail-stop (membership churn): every reservation made so far —
  /// queued or running — is killed in place.  Their already-scheduled
  /// start/finish events still fire and keep the counters and the
  /// availability profile consistent, but the completion handler is
  /// never invoked for them: the machine went down, the output is lost.
  /// New submissions are the owning agent's responsibility to gate
  /// (submit() asserts !down()).
  void shutdown();

  /// The machine rebooted (a kJoin churn event).  Reservations from
  /// before the shutdown stay killed; the profile still carries them
  /// until their original completion instants — the conservative
  /// "rebooted but the old bookings block the queue" model.
  void restart() noexcept { down_ = false; }

  [[nodiscard]] bool down() const noexcept { return down_; }

  /// Reservations killed by shutdown() whose finish already fired.
  [[nodiscard]] std::uint64_t jobs_killed() const noexcept {
    return killed_;
  }

  /// Jobs currently occupying processors.
  [[nodiscard]] std::uint32_t running_jobs() const noexcept {
    return running_;
  }
  /// Jobs accepted but not yet started.
  [[nodiscard]] std::uint32_t queued_jobs() const noexcept { return queued_; }
  /// Busy processors right now.
  [[nodiscard]] std::uint32_t busy_processors() const noexcept {
    return busy_;
  }
  /// Fraction of processors busy right now, in [0,1].
  [[nodiscard]] double instantaneous_load() const noexcept {
    return static_cast<double>(busy_) / spec_.processors;
  }

  /// Exact utilization integral (Tables 2/3, Fig 4).
  [[nodiscard]] const stats::UtilizationIntegrator& utilization()
      const noexcept {
    return util_;
  }

  /// Total jobs ever accepted by this LRMS.
  [[nodiscard]] std::uint64_t jobs_accepted() const noexcept {
    return accepted_;
  }
  /// Total jobs completed so far.
  [[nodiscard]] std::uint64_t jobs_completed() const noexcept {
    return completed_;
  }

  /// The underlying profile (tests / diagnostics).
  [[nodiscard]] const AvailabilityProfile& profile() const noexcept {
    return profile_;
  }

 private:
  // Earliest feasible start for (procs, exec_time) under the queue policy,
  // not before `earliest`.
  [[nodiscard]] sim::SimTime feasible_start(std::uint32_t procs,
                                            sim::SimTime exec_time,
                                            sim::SimTime earliest) const;

  // Scalar parameters keep the start event's capture inside the event
  // kernel's 32-byte inline buffer (no allocation per job start).
  void on_start(std::uint64_t serial, std::uint32_t procs);
  void on_finish(const Job& job, const Reservation& res);

  ResourceSpec spec_;
  ResourceIndex index_;
  QueuePolicy policy_;
  AvailabilityProfile profile_;
  stats::UtilizationIntegrator util_;
  CompletionHandler on_completion_;

  sim::SimTime last_fcfs_start_ = 0.0;  // FCFS: starts are non-decreasing
  std::uint32_t busy_ = 0;
  std::uint32_t running_ = 0;
  std::uint32_t queued_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t cancelled_count_ = 0;
  std::uint64_t next_serial_ = 0;  // reservation identities (see above)
  bool down_ = false;
  /// Serials strictly below this were killed by shutdown(); their finish
  /// events decrement counters but never reach the completion handler.
  std::uint64_t kill_below_ = 0;
  std::uint64_t killed_ = 0;
  // Reservations cancelled before start; their events no-op on firing.
  sim::FlatSet<std::uint64_t> cancelled_;  // by Reservation::serial
};

}  // namespace gridfed::cluster
