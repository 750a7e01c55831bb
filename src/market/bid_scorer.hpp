#pragma once
// The scoring half of the auction engine, factored out so it can run
// *outside* the origin's clearing path — specifically inside interior
// tree relays, which score-and-prune the bid convergecast down to the
// decision-relevant rank prefix (transport/tree_transport.hpp).
//
// The engine and the relays MUST agree bit-for-bit on the rank order:
// the relays forward only the top-k bids per job, and clearing stays
// identical to the unpruned engine exactly when the surviving set is a
// superset of the engine's rank prefix.  Keeping the score, the
// admissibility filter, and the tie-break chain in this one class is
// what makes that agreement structural instead of a convention two
// files have to maintain in parallel.
//
// A relay does not hold the full cluster::Job — only the QoS envelope
// harvested from the solicitation that fanned out through it — so the
// scorer operates on the compact JobQos view instead of the Job.

#include <bit>
#include <cmath>
#include <cstdint>

#include "cluster/job.hpp"
#include "market/bid.hpp"
#include "sim/types.hpp"

namespace gridfed::market {

/// Log-scale shape bucket: values within ~`quantum` of each other map to
/// the same bin; quantum <= 0 degenerates to bit-exact matching.  The
/// convergecast delta encoder groups quotes by these bins.
[[nodiscard]] inline std::int64_t shape_bucket(double value,
                                               double quantum) noexcept {
  if (quantum <= 0.0) {
    return std::bit_cast<std::int64_t>(value);
  }
  return std::llround(std::log1p(std::max(0.0, value)) / quantum);
}

/// The slice of a job a bid is scored against: the QoS envelope (budget,
/// deadline window, submission instant) plus the optimization intent
/// that drives kPerJob scoring.  Everything a solicitation already
/// carries — no payload fields, so relays can retain it per job.
struct JobQos {
  double budget = 0.0;
  sim::SimTime deadline = 0.0;  ///< relative to submission, as in Job
  sim::SimTime submit = 0.0;
  cluster::Optimization opt = cluster::Optimization::kCost;

  [[nodiscard]] sim::SimTime absolute_deadline() const noexcept {
    return submit + deadline;
  }
  [[nodiscard]] static JobQos of(const cluster::Job& job) noexcept {
    return JobQos{job.budget, job.deadline, job.submit, job.opt};
  }
};

/// Scores and ranks sealed bids under the federation's active rule —
/// callable from the clearing engine and from overlay relays alike.
class BidScorer {
 public:
  BidScorer() = default;
  BidScorer(ScoringRule scoring, double time_weight, bool enforce_budget,
            bool enforce_deadline)
      : scoring_(scoring),
        time_weight_(time_weight),
        enforce_budget_(enforce_budget),
        enforce_deadline_(enforce_deadline) {}

  /// The rank key (lower is better).  kPrice returns the raw ask —
  /// exactly the legacy single-attribute key, so price-only clearing is
  /// bit-identical to the pre-scoring engine.  The blended rules
  /// normalize both attributes against the job's own QoS envelope; an
  /// attribute whose envelope is unset (zero budget / zero deadline)
  /// drops out of the blend instead of swamping the other term.
  [[nodiscard]] double score(const JobQos& job, const Bid& bid) const noexcept {
    double w = 0.0;
    switch (scoring_) {
      case ScoringRule::kPrice:
        return bid.ask;
      case ScoringRule::kCompletion:
        return bid.completion_estimate;
      case ScoringRule::kWeighted:
        w = time_weight_;
        break;
      case ScoringRule::kPerJob:
        w = job.opt == cluster::Optimization::kTime ? time_weight_ : 0.0;
        break;
    }
    const double price_norm = job.budget > 0.0 ? bid.ask / job.budget : 0.0;
    const double time_norm =
        job.deadline > 0.0
            ? (bid.completion_estimate - job.submit) / job.deadline
            : 0.0;
    return (1.0 - w) * price_norm + w * time_norm;
  }

  /// The clearing engine's feasibility filter: bidder-declared
  /// feasibility, the budget as the reserve price when enforced, the
  /// deadline when enforced.  A bid this rejects can never enter the
  /// award ranking, which is what licenses relays to tombstone it.
  [[nodiscard]] bool admissible(const JobQos& job,
                                const Bid& bid) const noexcept {
    if (!bid.feasible) return false;
    if (enforce_budget_ && bid.ask > job.budget) return false;
    if (enforce_deadline_ &&
        bid.completion_estimate > job.absolute_deadline()) {
      return false;
    }
    return true;
  }

  /// The engine's total order over scored bids: best score first, ties
  /// broken on the lower ask, then the earlier completion guarantee,
  /// then the lower participant id — deterministic for any arrival
  /// order.
  [[nodiscard]] static bool rank_less(double score_a, const Bid& a,
                                      double score_b,
                                      const Bid& b) noexcept {
    if (score_a != score_b) return score_a < score_b;
    if (a.ask != b.ask) return a.ask < b.ask;
    if (a.completion_estimate != b.completion_estimate) {
      return a.completion_estimate < b.completion_estimate;
    }
    return a.bidder < b.bidder;
  }

  [[nodiscard]] ScoringRule scoring() const noexcept { return scoring_; }
  [[nodiscard]] bool enforce_budget() const noexcept {
    return enforce_budget_;
  }

 private:
  ScoringRule scoring_ = ScoringRule::kPrice;
  double time_weight_ = 0.0;
  bool enforce_budget_ = false;
  bool enforce_deadline_ = false;
};

}  // namespace gridfed::market
