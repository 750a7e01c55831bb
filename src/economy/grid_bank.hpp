#pragma once
// GridBank — the credit-management service the paper leverages for
// exchanging Grid Dollars ([4], §2.0.3).  gridfed implements it as an
// in-process double-entry ledger: every settled job credits the executing
// resource's owner (their *incentive*, Fig 3(a)) and debits the consumer,
// tracked by the consumer's home cluster (the *budget spent* series of
// Figs 7(b)/8(b)).

#include <cstdint>
#include <vector>

#include "cluster/job.hpp"
#include "cluster/resource.hpp"
#include "sim/flat_map.hpp"

namespace gridfed::economy {

/// One settled payment.
struct Settlement {
  cluster::JobId job = 0;
  cluster::ResourceIndex consumer_home = 0;  ///< payer's home cluster
  cluster::ResourceIndex provider = 0;       ///< owner credited
  double amount = 0.0;                       ///< Grid Dollars
  std::uint32_t user = 0;                    ///< payer's user id at home
};

/// Double-entry Grid Dollar ledger across a federation of n clusters.
class GridBank {
 public:
  explicit GridBank(std::size_t n_resources);

  /// Settles a completed job: credits `provider`, debits users of
  /// `consumer_home`.  Amount must be non-negative.
  void settle(const Settlement& settlement);

  /// Total incentive earned by the owner of `resource` (Fig 3(a)).
  [[nodiscard]] double incentive(cluster::ResourceIndex resource) const;

  /// Total spent by users whose home cluster is `resource`.
  [[nodiscard]] double spent_by_home(cluster::ResourceIndex resource) const;

  /// Federation-wide incentive (== federation-wide spending).
  [[nodiscard]] double total() const noexcept { return total_; }

  /// Number of settlements recorded.
  [[nodiscard]] std::uint64_t transactions() const noexcept { return txns_; }

  /// Double-entry invariant: sum(credits) == sum(debits) == total().
  [[nodiscard]] bool balanced() const;

  [[nodiscard]] std::size_t resources() const noexcept {
    return credits_.size();
  }

  /// Total spent by one user (home cluster, user id); 0 if unknown.
  [[nodiscard]] double spent_by_user(cluster::ResourceIndex home,
                                     std::uint32_t user) const;

  /// Full transaction log, settlement order (the Grid-Bank statement).
  [[nodiscard]] const std::vector<Settlement>& log() const noexcept {
    return log_;
  }

  /// All settlements credited to one provider (owner's statement).
  [[nodiscard]] std::vector<Settlement> statement(
      cluster::ResourceIndex provider) const;

 private:
  [[nodiscard]] static std::uint64_t user_key(cluster::ResourceIndex home,
                                              std::uint32_t user) noexcept {
    return (static_cast<std::uint64_t>(home) << 32) | user;
  }

  std::vector<double> credits_;  // by provider
  std::vector<double> debits_;   // by consumer home
  /// Spent per user, keyed by user_key(home, user).
  sim::FlatMap<std::uint64_t, double> by_user_;
  std::vector<Settlement> log_;
  double total_ = 0.0;
  std::uint64_t txns_ = 0;
};

}  // namespace gridfed::economy
