// Unit + property tests for the processor-availability profile — the data
// structure that makes admission-control guarantees exact.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "cluster/availability_profile.hpp"
#include "sim/check.hpp"
#include "sim/random.hpp"

namespace gridfed::cluster {
namespace {

TEST(AvailabilityProfile, StartsFullyAvailable) {
  AvailabilityProfile p(16);
  EXPECT_EQ(p.capacity(), 16u);
  EXPECT_EQ(p.available_at(0.0), 16u);
  EXPECT_EQ(p.available_at(1e9), 16u);
  EXPECT_TRUE(p.valid());
}

TEST(AvailabilityProfile, ReserveReducesWindowOnly) {
  AvailabilityProfile p(16);
  p.reserve(10.0, 20.0, 4);
  EXPECT_EQ(p.available_at(5.0), 16u);
  EXPECT_EQ(p.available_at(10.0), 12u);
  EXPECT_EQ(p.available_at(19.999), 12u);
  EXPECT_EQ(p.available_at(20.0), 16u);
  EXPECT_TRUE(p.valid());
}

TEST(AvailabilityProfile, OverlappingReservationsStack) {
  AvailabilityProfile p(16);
  p.reserve(0.0, 10.0, 4);
  p.reserve(5.0, 15.0, 4);
  EXPECT_EQ(p.available_at(2.0), 12u);
  EXPECT_EQ(p.available_at(7.0), 8u);
  EXPECT_EQ(p.available_at(12.0), 12u);
  EXPECT_EQ(p.available_at(15.0), 16u);
}

TEST(AvailabilityProfile, EarliestStartImmediateWhenFree) {
  AvailabilityProfile p(16);
  EXPECT_DOUBLE_EQ(p.earliest_start(3.0, 16, 100.0), 3.0);
}

TEST(AvailabilityProfile, EarliestStartWaitsForRelease) {
  AvailabilityProfile p(16);
  p.reserve(0.0, 10.0, 16);
  EXPECT_DOUBLE_EQ(p.earliest_start(0.0, 1, 5.0), 10.0);
}

TEST(AvailabilityProfile, EarliestStartFindsHoleBetweenReservations) {
  AvailabilityProfile p(16);
  p.reserve(0.0, 10.0, 16);   // full
  p.reserve(20.0, 30.0, 16);  // full again
  // A 10s window fits exactly in [10, 20).
  EXPECT_DOUBLE_EQ(p.earliest_start(0.0, 8, 10.0), 10.0);
  // An 11s window cannot use the hole; it must wait until 30.
  EXPECT_DOUBLE_EQ(p.earliest_start(0.0, 8, 11.0), 30.0);
}

TEST(AvailabilityProfile, EarliestStartSkipsPartialCapacity) {
  AvailabilityProfile p(16);
  p.reserve(0.0, 10.0, 12);  // only 4 free until t=10
  EXPECT_DOUBLE_EQ(p.earliest_start(0.0, 4, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(p.earliest_start(0.0, 8, 5.0), 10.0);
}

TEST(AvailabilityProfile, ZeroDurationStartsImmediately) {
  AvailabilityProfile p(4);
  p.reserve(0.0, 100.0, 4);
  EXPECT_DOUBLE_EQ(p.earliest_start(5.0, 4, 0.0), 5.0);
}

TEST(AvailabilityProfile, ReserveWithoutCapacityThrows) {
  AvailabilityProfile p(8);
  p.reserve(0.0, 10.0, 8);
  EXPECT_THROW(p.reserve(5.0, 6.0, 1), sim::ContractViolation);
}

TEST(AvailabilityProfile, ReserveMoreThanCapacityThrows) {
  AvailabilityProfile p(8);
  EXPECT_THROW(p.reserve(0.0, 1.0, 9), sim::ContractViolation);
}

TEST(AvailabilityProfile, TrimPreservesSemantics) {
  AvailabilityProfile p(16);
  p.reserve(0.0, 10.0, 4);
  p.reserve(20.0, 30.0, 8);
  p.trim(15.0);
  EXPECT_EQ(p.available_at(15.0), 16u);
  EXPECT_EQ(p.available_at(25.0), 8u);
  EXPECT_TRUE(p.valid());
}

TEST(AvailabilityProfile, TrimCompactsSteps) {
  AvailabilityProfile p(16);
  for (int i = 0; i < 100; ++i) {
    p.reserve(i, i + 1, 1);
  }
  const auto before = p.step_count();
  p.trim(100.0);
  EXPECT_LT(p.step_count(), before);
  EXPECT_EQ(p.available_at(100.0), 16u);
}

// Property test: a randomized sequence of earliest_start+reserve operations
// keeps the profile valid and never over-commits any instant.
TEST(AvailabilityProfileProperty, RandomReservationsNeverOvercommit) {
  sim::Rng rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    const auto capacity =
        static_cast<std::uint32_t>(rng.uniform_int(1, 128));
    AvailabilityProfile p(capacity);
    std::vector<std::tuple<double, double, std::uint32_t>> reservations;
    for (int i = 0; i < 200; ++i) {
      const auto procs =
          static_cast<std::uint32_t>(rng.uniform_int(1, capacity));
      const double not_before = rng.uniform(0.0, 1000.0);
      const double duration = rng.uniform(0.0, 100.0);
      const double start = p.earliest_start(not_before, procs, duration);
      ASSERT_GE(start, not_before);
      p.reserve(start, start + duration, procs);
      reservations.emplace_back(start, start + duration, procs);
    }
    ASSERT_TRUE(p.valid());
    // Cross-check: at sampled instants, sum of active reservations must
    // equal capacity - available.
    for (int s = 0; s < 200; ++s) {
      const double t = rng.uniform(0.0, 1200.0);
      std::uint64_t busy = 0;
      for (const auto& [b, e, q] : reservations) {
        if (b <= t && t < e) busy += q;
      }
      ASSERT_LE(busy, capacity);
      ASSERT_EQ(p.available_at(t), capacity - busy) << "t=" << t;
    }
  }
}

// Property test: earliest_start returns the *earliest* feasible instant —
// no feasible start exists strictly between not_before and the answer.
TEST(AvailabilityProfileProperty, EarliestStartIsEarliest) {
  sim::Rng rng(99);
  AvailabilityProfile p(32);
  for (int i = 0; i < 100; ++i) {
    const auto procs = static_cast<std::uint32_t>(rng.uniform_int(1, 32));
    const double duration = rng.uniform(1.0, 50.0);
    const double start = p.earliest_start(0.0, procs, duration);
    // Probe a few instants before `start`: none may fit the whole window.
    for (int probe = 0; probe < 10; ++probe) {
      const double t = rng.uniform(0.0, start);
      if (t >= start) continue;
      bool fits = true;
      for (int k = 0; k <= 20; ++k) {
        const double u = t + duration * k / 20.0;
        if (u >= start + duration) break;
        if (p.available_at(u) < procs) {
          fits = false;
          break;
        }
      }
      // A fit before `start` must span past a violation boundary that the
      // 21-point probe missed only if the window straddles `start` itself.
      if (fits) {
        ASSERT_GE(t + duration, start)
            << "found feasible start " << t << " before " << start;
      }
    }
    p.reserve(start, start + duration, procs);
  }
}

// ---- early exit: availability never decreases after the latest start --------

struct Window {
  double start;
  double end;
  std::uint32_t procs;
};

/// Processors free at `t` under the live windows: the model, independent
/// of the profile's own step bookkeeping.
std::uint32_t model_available(const std::vector<Window>& live,
                              std::uint32_t capacity, double t) {
  std::uint32_t busy = 0;
  for (const Window& w : live) {
    if (w.start <= t && t < w.end) busy += w.procs;
  }
  return capacity - busy;
}

/// earliest_start by brute force over the model: the answer is
/// `not_before` or an instant where availability changes (a reservation
/// edge, all of which are in `edges`), and a window fits iff it fits at
/// its start and at every change inside it.
double brute_earliest_start(const std::vector<Window>& live,
                            std::uint32_t capacity, std::vector<double> edges,
                            double not_before, std::uint32_t procs,
                            double duration) {
  std::sort(edges.begin(), edges.end());
  std::vector<double> candidates{not_before};
  for (const double e : edges) {
    if (e > not_before) candidates.push_back(e);
  }
  const auto fits_at = [&](double t) {
    return model_available(live, capacity, t) >= procs;
  };
  for (const double c : candidates) {
    bool fits = fits_at(c);
    for (auto it = std::upper_bound(edges.begin(), edges.end(), c);
         fits && it != edges.end() && *it < c + duration; ++it) {
      fits = fits_at(*it);
    }
    if (fits) return c;
  }
  return std::numeric_limits<double>::infinity();
}

enum class StartOrder {
  kFcfs,      ///< every start at or after the previous one (the LRMS)
  kBackfill,  ///< starts anywhere at or after now: out of order
};

/// Random reserve / trim sequences, optionally cancelling the
/// latest-starting reservation now and then; every earliest_start must
/// equal the brute-force answer, and after every operation the profile
/// must agree with the model at every edge from now on.
void check_early_exit(std::uint64_t seed, StartOrder order,
                      bool release_latest) {
  sim::Rng rng(seed);
  for (int trial = 0; trial < 20; ++trial) {
    const auto capacity = static_cast<std::uint32_t>(rng.uniform_int(1, 64));
    AvailabilityProfile p(capacity);
    std::vector<Window> live;
    std::vector<double> edges;
    double now = 0.0;
    double last_start = 0.0;
    const auto check_edges = [&](int op, const char* after) {
      for (const double e : edges) {
        if (e < now) continue;
        ASSERT_EQ(p.available_at(e), model_available(live, capacity, e))
            << "trial " << trial << " op " << op << " after " << after
            << " t=" << e;
      }
    };
    for (int op = 0; op < 120; ++op) {
      now += rng.uniform(0.0, 4.0);
      if (rng.uniform01() < 0.2) {
        p.trim(now);
        ASSERT_NO_FATAL_FAILURE(check_edges(op, "trim"));
      }
      const auto procs =
          static_cast<std::uint32_t>(rng.uniform_int(1, capacity));
      const double duration = rng.uniform(0.5, 60.0);
      const double not_before = order == StartOrder::kFcfs
                                    ? std::max(now, last_start)
                                    : now + rng.uniform(0.0, 40.0);
      const double start = p.earliest_start(not_before, procs, duration);
      ASSERT_EQ(start, brute_earliest_start(live, capacity, edges, not_before,
                                            procs, duration))
          << "trial " << trial << " op " << op;
      p.reserve(start, start + duration, procs);
      live.push_back(Window{start, start + duration, procs});
      edges.push_back(start);
      edges.push_back(start + duration);
      last_start = start;
      ASSERT_NO_FATAL_FAILURE(check_edges(op, "reserve"));
      if (release_latest && rng.uniform01() < 0.3) {
        const auto latest = std::max_element(
            live.begin(), live.end(),
            [](const Window& a, const Window& b) { return a.start < b.start; });
        p.release(latest->start, latest->end, latest->procs);
        live.erase(latest);
        ASSERT_NO_FATAL_FAILURE(check_edges(op, "release"));
      }
    }
    ASSERT_TRUE(p.valid());
  }
}

TEST(AvailabilityProfileProperty, EarlyExitMatchesBruteForceFcfs) {
  check_early_exit(11, StartOrder::kFcfs, false);
}

TEST(AvailabilityProfileProperty, EarlyExitMatchesBruteForceOutOfOrder) {
  check_early_exit(12, StartOrder::kBackfill, false);
}

TEST(AvailabilityProfileProperty, EarlyExitSurvivesReleasingTheLatestStart) {
  check_early_exit(13, StartOrder::kFcfs, true);
  check_early_exit(14, StartOrder::kBackfill, true);
}

}  // namespace
}  // namespace gridfed::cluster
