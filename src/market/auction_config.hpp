#pragma once
// Knobs of the auction scheduling mode (SchedulingMode::kAuction).  One
// AuctionConfig rides inside FederationConfig; everything here only takes
// effect in auction mode.

#include <cstdint>

#include "market/bid.hpp"
#include "market/bid_pricing.hpp"
#include "sim/types.hpp"

namespace gridfed::market {

/// Parameters of the per-job sealed-bid reverse auction.
struct AuctionConfig {
  /// Payment rule the engine clears under.
  ClearingRule clearing = ClearingRule::kFirstPrice;

  /// Which score ranks the feasible bids (multi-attribute clearing).  The
  /// default is the classic price-only auction; kPerJob aligns the rule
  /// with each job's OFC/OFT Optimization so a time-optimizing user's
  /// auction actually buys completion time.
  ScoringRule scoring = ScoringRule::kPrice;

  /// Weight of the completion-time term in the weighted score (kWeighted
  /// always; kPerJob for OFT jobs).  0 degenerates to price-only, 1 to
  /// completion-only.
  double score_time_weight = 0.5;

  /// How providers turn true cost into a sealed ask.
  BidPricingStrategy bid_pricing = BidPricingStrategy::kTrueCost;

  /// Profit margin for BidPricingStrategy::kMarkup.
  double markup = 0.15;

  /// How long the origin keeps the book open before clearing with whatever
  /// bids arrived.  0 = clear only when every solicited bidder answered
  /// (sound under a lossless network; lossy runs must set a timeout).
  sim::SimTime bid_timeout = 0.0;

  /// Cap on the number of remote providers solicited per job, walked in
  /// cheapest-first directory order.  0 = solicit every eligible provider.
  std::uint32_t max_bidders = 0;

  /// Whether the origin cluster enters a (message-free) bid of its own.
  bool origin_bids = true;

  /// What happens when the book clears empty (or every award is declined):
  /// true = the job falls back to the paper's DBC rank walk; false = it is
  /// rejected outright.
  bool fallback_to_dbc = true;

  /// Perf extension: coalesce call-for-bids per (origin, provider) pair
  /// into one wire message carrying every job whose solicitation is
  /// queued at flush time (providers answer with one batched bid message
  /// per call).  Off by default: the unbatched protocol is the paper-
  /// faithful per-job broadcast, and per-auction stats are bit-identical
  /// to it.
  bool batch_solicitations = false;

  /// How long a job's solicitation may wait for batch companions before
  /// the queue is flushed.  0 still coalesces same-instant submissions
  /// (the flush runs at control priority after all same-tick arrivals).
  /// Only read when batch_solicitations is true.
  sim::SimTime solicit_batch_window = 0.0;

  /// A job's solicitation is never held longer than this fraction of its
  /// remaining deadline slack, so tight-deadline jobs flush (nearly)
  /// immediately while loose jobs ride out the full window.
  double solicit_hold_slack_fraction = 0.25;

  /// Piggyback kAward notifications on the batched solicitation flush:
  /// an award issued while a flush is already due within
  /// piggyback_hold_window is held for it and rides the coalesced
  /// call-for-bids to its winner for free (awards to providers the flush
  /// does not solicit go standalone at the flush).  Strictly
  /// opportunistic — an award never waits for a flush that is not
  /// already scheduled, because an award is an admission re-check and
  /// delaying it decays the winner's estimate (measured: anticipatory
  /// holding costs far more decline rounds than the saved messages).
  /// Only effective with batch_solicitations.
  bool piggyback_awards = false;

  /// Maximum imminence of the flush an award will wait for (see above).
  sim::SimTime piggyback_hold_window = 120.0;
};

}  // namespace gridfed::market
