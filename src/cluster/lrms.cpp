#include "cluster/lrms.hpp"

#include <utility>

#include "sim/check.hpp"

namespace gridfed::cluster {

Lrms::Lrms(sim::Simulation& sim, ResourceSpec spec, ResourceIndex index,
           QueuePolicy policy)
    : sim_(sim),
      spec_(std::move(spec)),
      index_(index),
      policy_(policy),
      profile_(spec_.processors),
      util_(spec_.processors) {
  GF_EXPECTS(spec_.valid());
}

sim::SimTime Lrms::feasible_start(std::uint32_t procs,
                                  sim::SimTime exec_time,
                                  sim::SimTime earliest) const {
  sim::SimTime not_before = std::max(now(), earliest);
  if (policy_ == QueuePolicy::kFcfs) {
    not_before = std::max(not_before, last_fcfs_start_);
  }
  return profile_.earliest_start(not_before, procs, exec_time);
}

sim::SimTime Lrms::estimate_completion(const Job& job, sim::SimTime exec_time,
                                       sim::SimTime earliest) const {
  if (job.processors > spec_.processors) return sim::kTimeInfinity;
  return feasible_start(job.processors, exec_time, earliest) + exec_time;
}

sim::SimTime Lrms::expected_wait(std::uint32_t procs,
                                 sim::SimTime exec_time) const {
  if (procs > spec_.processors) return sim::kTimeInfinity;
  return feasible_start(procs, exec_time, 0.0) - now();
}

Reservation Lrms::submit(const Job& job, sim::SimTime exec_time,
                         sim::SimTime earliest) {
  GF_EXPECTS(!down_);  // the owning agent gates submissions while down
  GF_EXPECTS(job.processors > 0 && job.processors <= spec_.processors);
  GF_EXPECTS(exec_time >= 0.0);

  const sim::SimTime start =
      feasible_start(job.processors, exec_time, earliest);
  const sim::SimTime completion = start + exec_time;
  profile_.reserve(start, completion, job.processors);
  if (policy_ == QueuePolicy::kFcfs) last_fcfs_start_ = start;

  Reservation res{job.id, start, completion, job.processors,
                  ++next_serial_};
  ++accepted_;
  ++queued_;

  // Start and completion are definite: schedule both now.  Both kinds run
  // in the kCompletion class, so freed processors are visible to
  // same-instant arrivals (see EventPriority).  The finish event carries
  // only the slot of the reservation's record in finishing_.
  const std::uint32_t slot = finishing_.take();
  finishing_[slot] = Finishing{job, res};
  sim_.schedule_at(start, sim::EventKind::kLrmsStart,
                   [this, serial = res.serial, procs = res.processors] {
                     on_start(serial, procs);
                   });
  sim_.schedule_at(completion, sim::EventKind::kLrmsFinish,
                   [this, slot] { on_finish(slot); });
  return res;
}

void Lrms::cancel(const Reservation& reservation) {
  // Sound only while the start event has not executed.  Time alone
  // cannot express that at the boundary: at now == start the start has
  // already run IF the caller sits in a lower-priority event (starts
  // run at kCompletion, first in the instant), but has not if the
  // caller acts before the simulation reaches the instant's events.
  // Callers firing from control events must therefore test
  // now() < start themselves (as Gfa::on_hold_timeout and
  // Gfa::admit_and_reply do); this precondition catches the
  // unambiguous misuse.
  GF_EXPECTS(now() <= reservation.start);
  GF_EXPECTS(!cancelled_.contains(reservation.serial));
  profile_.release(reservation.start, reservation.completion,
                   reservation.processors);
  cancelled_.insert(reservation.serial);
  GF_ENSURES(queued_ > 0);
  --queued_;
  ++cancelled_count_;
  // Note: last_fcfs_start_ may still point at the cancelled reservation;
  // later jobs then start no earlier than the cancelled slot would have —
  // a conservative but sound FCFS interpretation.
}

void Lrms::on_start(std::uint64_t serial, std::uint32_t procs) {
  if (cancelled_.contains(serial)) return;  // cancelled before start
  GF_ENSURES(queued_ > 0);
  --queued_;
  ++running_;
  busy_ += procs;
  GF_ENSURES(busy_ <= spec_.processors);
  util_.set_busy(now(), busy_);
  profile_.trim(now());
}

void Lrms::shutdown() {
  down_ = true;
  // Everything reserved so far dies with the machine.  The events stay
  // scheduled — they keep queued_/running_/busy_ and the profile
  // consistent as they fire — but on_finish never reports a killed
  // reservation to the completion handler.
  kill_below_ = next_serial_ + 1;
}

void Lrms::on_finish(std::uint32_t slot) {
  // The slot frees first: the completion handler may submit again.
  const Finishing& record = finishing_[slot];
  const CompletedJob done{record.job, record.res, index_};
  finishing_.free(slot);
  const Reservation& res = done.reservation;
  if (cancelled_.erase(res.serial) > 0) return;  // cancelled reservation
  GF_ENSURES(running_ > 0);
  --running_;
  GF_ENSURES(busy_ >= res.processors);
  busy_ -= res.processors;
  util_.set_busy(now(), busy_);
  if (res.serial < kill_below_) {
    // Killed by shutdown(): the machine went down mid-reservation, so
    // the output never materializes.  The origin's sweep (or its own
    // crash drain) accounts for the job.
    ++killed_;
    return;
  }
  ++completed_;
  if (on_completion_) on_completion_(done);
}

}  // namespace gridfed::cluster
