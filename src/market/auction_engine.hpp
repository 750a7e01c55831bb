#pragma once
// The sealed-bid reverse-auction engine: an order book that collects the
// asks solicited for one job, and the clearing logic that turns a closed
// book into a deterministic award ranking.
//
// Clearing filters the book down to *feasible* bids (bidder-declared
// feasibility, the job's deadline when enforced, and the job's budget as
// the reserve price when enforced), ranks them best-score-first with
// deterministic tie-breaking (score, then ask, then completion estimate,
// then bidder index), and prices every position under the configured rule:
//
//  * first-price — each award pays its own ask;
//  * Vickrey     — each award pays the *next* feasible ask (the classic
//    second-price payment for the winner), and the last-ranked award pays
//    the reserve price (the budget) when the budget is enforced, its own
//    ask otherwise.
//
// The score is the multi-attribute extension (ScoringRule): price-only
// reproduces the classic lowest-ask auction bit-for-bit; the completion
// and weighted rules rank bids by (a blend of) the completion guarantee,
// normalized against the job's budget/deadline envelope.  Under a
// non-price score the rank order and the ask order can disagree, so
// Vickrey payments are floored at the award's own ask — a
// generalized-second-price payment that preserves individual rationality
// (no provider is ever paid less than it asked), not an exact VCG
// transfer.
//
// The ranking is extracted lazily (Ranking): clearing heapifies the
// feasible bids in O(bids), and each award tried pops the best remaining
// one in O(log bids).  An award is only a *proposal* — the winner re-runs
// admission control at award time, and if its queue filled up since
// bidding, the origin falls through to the runner-up, whose payment must
// already be consistent with the rule — but a run tries about one award
// per book, so sorting the whole book would mostly order bids nobody
// reads.  The heap's pop order is the sorted order exactly: rank_less is
// a strict total order over a book's bids, whose bidders are distinct.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cluster/job.hpp"
#include "market/bid.hpp"
#include "market/bid_scorer.hpp"

namespace gridfed::market {

/// Order book for one job's auction round.  Tracks which solicited bidders
/// have answered so the origin can clear as soon as the book is complete
/// instead of always waiting out the bid timeout.
///
/// Books are designed to be pooled (see book_pool.hpp): reopen() rewinds
/// a cleared book for the next job while keeping every internal vector's
/// capacity, so back-to-back auctions of the same shape allocate nothing.
///
/// A bid finds its bidder's solicitation in O(1) through a direct-mapped,
/// linear-probed index keyed by the low bits of ParticipantId::value:
/// singleton ids are dense cluster indices and coalition ids are dense
/// above kCoalitionBase, so the low bits spread both, and every probe
/// compares the full id.  Building it is O(solicited), with no sort.
class AuctionBook {
 public:
  /// An unopened book (pool storage); reopen() before use.
  AuctionBook() = default;

  /// Opens the book for `job`; `solicited` lists every participant a
  /// call-for-bids went to (the origin itself included when it competes).
  AuctionBook(cluster::JobId job,
              std::vector<federation::ParticipantId> solicited);

  /// Rewinds this book for a new job, reusing the existing allocations.
  void reopen(cluster::JobId job,
              std::span<const federation::ParticipantId> solicited);

  /// Records a sealed bid.  Unsolicited or duplicate bids are ignored
  /// (stale answers after a timeout re-solicitation, byzantine bidders).
  /// Returns true when the bid entered the book.
  bool add(const Bid& bid);

  /// Records a *tombstoned* answer: an overlay relay scored `bidder`'s
  /// bid out of the decision-relevant rank prefix and forwarded only the
  /// marker (tree_transport.hpp).  The bidder counts as answered — the
  /// book still completes without waiting out the bid timeout — but no
  /// bid enters the ranking.  Returns true when the tombstone consumed
  /// the bidder's outstanding slot (duplicates/unsolicited ignored, as
  /// in add()).
  bool add_pruned(federation::ParticipantId bidder);

  /// True when every solicited bidder has answered.
  [[nodiscard]] bool complete() const noexcept { return outstanding_ == 0; }

  /// Answers that arrived as in-network prune tombstones.  bids().size()
  /// + pruned() is the number of bidders that actually answered — the
  /// figure the clearing report exposes, so auction telemetry is
  /// transport-invariant.
  [[nodiscard]] std::size_t pruned() const noexcept { return pruned_; }

  [[nodiscard]] cluster::JobId job() const noexcept { return job_; }
  [[nodiscard]] const std::vector<Bid>& bids() const noexcept { return bids_; }
  [[nodiscard]] std::size_t solicited() const noexcept {
    return solicited_.size();
  }
  /// The solicited participants, in solicitation order.
  [[nodiscard]] const std::vector<federation::ParticipantId>&
  solicited_list() const noexcept {
    return solicited_;
  }

 private:
  /// An index cell that maps no bidder.
  static constexpr std::uint32_t kFreeCell = ~std::uint32_t{0};

  /// Rebuilds index_ over solicited_: a power-of-two table at least
  /// twice the solicited count, so every probe chain ends at a free cell.
  void build_index();
  /// Marks `bidder` answered; false when it was never solicited or has
  /// already answered.  A participant solicited twice answers through
  /// its first slot, which probing always reaches first.
  bool answer(federation::ParticipantId bidder);

  cluster::JobId job_ = 0;
  std::vector<federation::ParticipantId> solicited_;
  std::vector<bool> answered_;  // parallel to solicited_
  /// Slot in solicited_ of each solicited bidder, at the cell its
  /// masked id probes to; kFreeCell elsewhere.
  std::vector<std::uint32_t> index_;
  std::size_t outstanding_ = 0;
  std::size_t pruned_ = 0;
  std::vector<Bid> bids_;
};

/// Telemetry for one cleared auction round (stats::AuctionStats input).
struct ClearingReport {
  cluster::JobId job = 0;
  std::size_t solicited = 0;  ///< bidders a call-for-bids reached
  std::size_t bids = 0;       ///< sealed bids in the book at clearing
  std::size_t feasible = 0;   ///< bids that survived the feasibility filter
  bool awarded = false;       ///< the ranking is non-empty
  federation::ParticipantId winner = federation::kNoParticipant;
  double winner_ask = 0.0;
  double payment = 0.0;  ///< what the top-ranked award would settle
};

/// A cleared book's award ranking, extracted best-first on demand: a
/// binary heap over the scored feasible bids under BidScorer::rank_less.
/// front() prices the best remaining award exactly as the fully sorted
/// ranking would at that position; pop() moves on to the runner-up.
class Ranking {
 public:
  /// An empty ranking (no award to try).
  Ranking() = default;

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  /// Awards still to try.
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// The best remaining award, priced under the clearing rule: Vickrey
  /// pays the runner-up's ask (floored at the own ask), or the budget
  /// reserve when no runner-up is left.  Precondition: !empty().
  [[nodiscard]] Award front() const;
  /// The bid ranked right after front()'s, or null when it is the last.
  [[nodiscard]] const Bid* runner_up() const noexcept;
  /// Drops the best remaining award.  Precondition: !empty().
  void pop();

 private:
  friend class AuctionEngine;

  struct Scored {
    Bid bid;
    double score;
  };
  /// Heap order: `a` ranks after `b` (the best award sits at the root).
  [[nodiscard]] static bool ranks_after(const Scored& a,
                                        const Scored& b) noexcept {
    return BidScorer::rank_less(b.score, b.bid, a.score, a.bid);
  }

  std::vector<Scored> heap_;
  ClearingRule rule_ = ClearingRule::kFirstPrice;
  /// Vickrey's last-ranked award pays this reserve (the budget) if set.
  std::optional<double> reserve_;
};

/// Clears closed books into award rankings.
class AuctionEngine {
 public:
  /// Classic price-only clearing (the single-attribute baseline).
  AuctionEngine(ClearingRule rule, bool enforce_budget, bool enforce_deadline)
      : AuctionEngine(rule, ScoringRule::kPrice, 0.0, enforce_budget,
                      enforce_deadline) {}

  /// Multi-attribute clearing: rank by `scoring` with `time_weight` on
  /// the completion term (kWeighted always, kPerJob for OFT jobs).
  /// Scoring, admissibility, and tie-breaking all delegate to the shared
  /// BidScorer, so the in-network pruning relays rank bids under the
  /// exact total order this engine clears by.
  AuctionEngine(ClearingRule rule, ScoringRule scoring, double time_weight,
                bool enforce_budget, bool enforce_deadline)
      : rule_(rule),
        scorer_(scoring, time_weight, enforce_budget, enforce_deadline) {}

  /// The lazily extracted award ranking for `job` over `bids` (see file
  /// comment).  Empty when no bid is feasible.
  [[nodiscard]] Ranking rank(const cluster::Job& job,
                             std::span<const Bid> bids) const;

  /// The whole award ranking, best first: rank() drained.
  [[nodiscard]] std::vector<Award> clear(const cluster::Job& job,
                                         const std::vector<Bid>& bids) const;

  /// The rank key of `bid` for `job` under this engine's scoring rule
  /// (lower is better; exposed for tests and telemetry).
  [[nodiscard]] double score(const cluster::Job& job, const Bid& bid) const {
    return scorer_.score(JobQos::of(job), bid);
  }

  [[nodiscard]] ClearingRule rule() const noexcept { return rule_; }
  [[nodiscard]] ScoringRule scoring() const noexcept {
    return scorer_.scoring();
  }
  [[nodiscard]] const BidScorer& scorer() const noexcept { return scorer_; }

 private:
  ClearingRule rule_;
  BidScorer scorer_;
};

}  // namespace gridfed::market
