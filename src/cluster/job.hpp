#pragma once
// Jobs and the paper's timing/cost equations (Eqs. 1-4).
//
// A job J_{i,j,k} is the i-th job of user j whose home cluster is k.  It
// carries the processor requirement p, total length l in million
// instructions (MI), communication overhead alpha (seconds of network time
// on the origin cluster), and the user's QoS constraints: budget b (Grid
// Dollars) and deadline d (seconds, relative to submission).

#include <cstdint>

#include "cluster/resource.hpp"
#include "sim/types.hpp"

namespace gridfed::cluster {

/// Globally unique job identifier.
using JobId = std::uint64_t;

/// QoS optimization strategy chosen by the job's owner (paper §2.2).
enum class Optimization : std::uint8_t {
  kCost,  ///< OFC — minimum cost within the deadline
  kTime,  ///< OFT — minimum response time within the budget
};

/// J_{i,j,k} = (p, l, b, d, alpha) plus identity and submission metadata.
struct Job {
  JobId id = 0;
  ResourceIndex origin = 0;  ///< k — the user's home cluster
  std::uint32_t user = 0;    ///< j — user index within the home cluster

  std::uint32_t processors = 0;  ///< p_{i,j,k}, processors required
  double length_mi = 0.0;        ///< l_{i,j,k}, total MI across processors
  double comm_overhead = 0.0;    ///< alpha_{i,j,k}, seconds on the origin

  double budget = 0.0;          ///< b_{i,j,k}, Grid Dollars
  sim::SimTime deadline = 0.0;  ///< d_{i,j,k}, seconds after submission
  sim::SimTime submit = 0.0;    ///< s_{i,j,k}, submission instant

  Optimization opt = Optimization::kCost;

  /// Absolute latest acceptable completion instant (s + d).
  [[nodiscard]] sim::SimTime absolute_deadline() const noexcept {
    return submit + deadline;
  }
};

/// Arrival order: submit instant, then id.  Loaders hand out ids in load
/// order, so jobs that share a submit instant arrive in load order.
[[nodiscard]] inline bool arrives_before(const Job& a, const Job& b) noexcept {
  return a.submit < b.submit || (a.submit == b.submit && a.id < b.id);
}

/// Eq. 1 — total data transferred during execution: Gamma = alpha * gamma_k
/// (Gb).  Communication overhead scales with the origin's interconnect.
[[nodiscard]] double data_transferred(const Job& job,
                                      const ResourceSpec& origin) noexcept;

/// Pure computation time of `job` on `exec`: l / (mu_m * p).
[[nodiscard]] sim::SimTime compute_time(const Job& job,
                                        const ResourceSpec& exec) noexcept;

/// Communication time of `job` on `exec` when its data was sized for
/// `origin`: alpha * gamma_k / gamma_m (second term of Eq. 3).
[[nodiscard]] sim::SimTime comm_time(const Job& job,
                                     const ResourceSpec& origin,
                                     const ResourceSpec& exec) noexcept;

/// Eq. 2/3 — unloaded execution (service) time of `job` on `exec`:
/// D(J, R_m) = l/(mu_m p) + alpha gamma_k / gamma_m.
[[nodiscard]] sim::SimTime execution_time(const Job& job,
                                          const ResourceSpec& origin,
                                          const ResourceSpec& exec) noexcept;

/// Eq. 4, literal form — cost charged for computation only:
/// B(J, R_m) = c_m * l / (mu_m p).  See economy::CostModel for why the
/// default charging model is wall-time instead.
[[nodiscard]] double compute_only_cost(const Job& job,
                                       const ResourceSpec& exec) noexcept;

/// Wall-time charging — quote applied to the full occupancy (Eq. 3 time):
/// B(J, R_m) = c_m * D(J, R_m).
[[nodiscard]] double wall_time_cost(const Job& job, const ResourceSpec& origin,
                                    const ResourceSpec& exec) noexcept;

}  // namespace gridfed::cluster
