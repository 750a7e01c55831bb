#pragma once
// Auction decision forensics: one record per cleared book capturing
// exactly what the market saw — the solicited set, every bid with its
// score under the active ScoringRule, the winner, the price paid, and
// the runner-up's losing margin — plus one record per coalition surplus
// split.  Tests query the ledger in-process; benches dump it as JSON so
// a mispriced clearing can be re-examined offline without re-running.

#include <cstdint>
#include <iosfwd>
#include <utility>
#include <vector>

#include "cluster/resource.hpp"
#include "market/bid.hpp"
#include "sim/types.hpp"

namespace gridfed::obs {

/// A bid as scored at clearing time.  `bidder` is the participant value
/// (a cluster index, or ≥ kCoalitionBase for a coalition).
struct ScoredBid {
  std::uint32_t bidder = 0;
  double ask = 0.0;
  double completion_estimate = 0.0;
  bool feasible = false;
  double score = 0.0;
};

/// One cleared (or held) auction book.
struct ClearingDecision {
  sim::SimTime t = 0.0;
  std::uint64_t job = 0;
  market::ScoringRule scoring = market::ScoringRule::kPrice;
  market::ClearingRule clearing = market::ClearingRule::kFirstPrice;
  std::vector<std::uint32_t> solicited;  ///< participant values, in order
  std::vector<ScoredBid> bids;
  bool awarded = false;
  std::uint32_t winner = 0;  ///< participant value; meaningful iff awarded
  double winner_ask = 0.0;
  double payment = 0.0;
  /// score(runner-up) − score(winner); ≥ 0 when a runner-up exists,
  /// how close the market came to choosing differently.
  double runner_up_margin = 0.0;
  bool has_runner_up = false;
};

/// One coalition surplus split, recorded when a coalition-placed job
/// completes and the payment is settled across members.
struct SplitDecision {
  sim::SimTime t = 0.0;
  std::uint64_t job = 0;
  std::uint32_t coalition = 0;   ///< ParticipantId::value of the group
  cluster::ResourceIndex executor = 0;
  double executor_ask = 0.0;
  double payment = 0.0;
  /// (member ResourceIndex, share of the payment) per member.
  std::vector<std::pair<cluster::ResourceIndex, double>> shares;
};

class ForensicsLedger {
 public:
  ForensicsLedger() {
    decisions_.reserve(1u << 12);
    splits_.reserve(1u << 8);
  }

  void record(ClearingDecision decision) {
    decisions_.push_back(std::move(decision));
  }
  void record_split(SplitDecision split) {
    splits_.push_back(std::move(split));
  }

  [[nodiscard]] const std::vector<ClearingDecision>& decisions()
      const noexcept {
    return decisions_;
  }
  [[nodiscard]] const std::vector<SplitDecision>& splits() const noexcept {
    return splits_;
  }
  /// All clearing records for one job, in clearing order (re-auctions
  /// after a decline show up as later entries).
  [[nodiscard]] std::vector<const ClearingDecision*> for_job(
      std::uint64_t job) const;

  void write_json(std::ostream& out) const;

 private:
  std::vector<ClearingDecision> decisions_;
  std::vector<SplitDecision> splits_;
};

}  // namespace gridfed::obs
