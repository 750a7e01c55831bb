// Unit tests for reservation cancellation: the availability-profile
// release operation and Lrms::cancel semantics the failure-injection
// extension relies on.

#include <gtest/gtest.h>

#include "cluster/availability_profile.hpp"
#include "cluster/lrms.hpp"
#include "sim/check.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

namespace gridfed::cluster {
namespace {

TEST(AvailabilityRelease, InvertsReserve) {
  AvailabilityProfile p(16);
  p.reserve(10.0, 20.0, 8);
  p.release(10.0, 20.0, 8);
  for (double t : {5.0, 10.0, 15.0, 25.0}) {
    EXPECT_EQ(p.available_at(t), 16u) << t;
  }
  EXPECT_TRUE(p.valid());
}

TEST(AvailabilityRelease, PartialOverlapReleasesOnlyWindow) {
  AvailabilityProfile p(16);
  p.reserve(0.0, 30.0, 8);
  p.reserve(10.0, 20.0, 4);
  p.release(10.0, 20.0, 4);
  EXPECT_EQ(p.available_at(15.0), 8u);
  EXPECT_EQ(p.available_at(5.0), 8u);
}

TEST(AvailabilityRelease, OverReleaseThrows) {
  AvailabilityProfile p(16);
  p.reserve(0.0, 10.0, 4);
  EXPECT_THROW(p.release(0.0, 10.0, 8), sim::ContractViolation);
}

TEST(AvailabilityReleaseProperty, ReserveReleasePairsAreIdentity) {
  sim::Rng rng(404);
  AvailabilityProfile p(64);
  // Long-lived background reservation to make the baseline non-trivial.
  p.reserve(0.0, 1000.0, 16);
  for (int i = 0; i < 300; ++i) {
    const auto procs = static_cast<std::uint32_t>(rng.uniform_int(1, 48));
    const double start = rng.uniform(0.0, 900.0);
    const double len = rng.uniform(0.0, 100.0);
    const double s = p.earliest_start(start, procs, len);
    p.reserve(s, s + len, procs);
    p.release(s, s + len, procs);
  }
  ASSERT_TRUE(p.valid());
  for (int s = 0; s < 100; ++s) {
    const double t = rng.uniform(0.0, 1100.0);
    EXPECT_EQ(p.available_at(t), t < 1000.0 ? 48u : 64u) << t;
  }
}

struct Fixture {
  sim::Simulation sim;
  Lrms lrms;
  std::vector<CompletedJob> done;

  Fixture() : lrms(sim, ResourceSpec{"c", 8, 100.0, 1.0, 1.0}, 0) {
    lrms.set_completion_handler(
        [this](const CompletedJob& c) { done.push_back(c); });
  }

  Job job(JobId id, std::uint32_t procs) {
    Job j;
    j.id = id;
    j.processors = procs;
    return j;
  }
};

TEST(LrmsCancel, FreesProcessorsBeforeStart) {
  Fixture f;
  f.lrms.submit(f.job(1, 8), 100.0);               // runs [0,100)
  const auto res = f.lrms.submit(f.job(2, 8), 50.0);  // queued [100,150)
  EXPECT_DOUBLE_EQ(res.start, 100.0);
  f.lrms.cancel(res);
  // A new job sees the freed window (FCFS floor is the cancelled start).
  const auto res2 = f.lrms.submit(f.job(3, 8), 50.0);
  EXPECT_DOUBLE_EQ(res2.start, 100.0);
  EXPECT_EQ(f.lrms.jobs_cancelled(), 1u);
}

TEST(LrmsCancel, CancelledJobNeverRunsOrCompletes) {
  Fixture f;
  const auto res = f.lrms.submit(f.job(7, 4), 10.0);
  f.lrms.cancel(res);
  f.sim.run();
  EXPECT_TRUE(f.done.empty());
  EXPECT_EQ(f.lrms.jobs_completed(), 0u);
  EXPECT_EQ(f.lrms.busy_processors(), 0u);
  // The cancelled window contributed nothing to utilization.
  EXPECT_DOUBLE_EQ(f.lrms.utilization().utilization(10.0), 0.0);
}

TEST(LrmsCancel, OtherJobsUnaffected) {
  Fixture f;
  const auto doomed = f.lrms.submit(f.job(1, 4), 10.0);
  const auto keeper = f.lrms.submit(f.job(2, 4), 10.0);
  f.lrms.cancel(doomed);
  f.sim.run();
  ASSERT_EQ(f.done.size(), 1u);
  EXPECT_EQ(f.done[0].job.id, 2u);
  EXPECT_DOUBLE_EQ(f.done[0].reservation.completion, keeper.completion);
}

TEST(LrmsCancel, AfterStartThrows) {
  Fixture f;
  const auto res = f.lrms.submit(f.job(1, 4), 10.0);
  f.sim.run_until(5.0);  // job is running
  EXPECT_THROW(f.lrms.cancel(res), sim::ContractViolation);
}

TEST(LrmsCancel, DoubleCancelThrows) {
  Fixture f;
  f.lrms.submit(f.job(1, 8), 100.0);
  const auto res = f.lrms.submit(f.job(2, 4), 10.0);
  f.lrms.cancel(res);
  EXPECT_THROW(f.lrms.cancel(res), sim::ContractViolation);
}

}  // namespace
}  // namespace gridfed::cluster
