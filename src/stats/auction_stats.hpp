#pragma once
// Per-auction accumulators for the market subsystem: how many rounds ran,
// how thick the books were, and what the market actually charged relative
// to asks and budgets.  Filled by the federation driver from the market
// engine's ClearingReports; surfaced in FederationResult.

#include <cstdint>
#include <map>

#include "market/auction_engine.hpp"
#include "stats/accumulator.hpp"

namespace gridfed::stats {

/// Aggregate view over every auction round of one federation run.
struct AuctionStats {
  std::uint64_t held = 0;     ///< auction rounds cleared (incl. empty books)
  std::uint64_t awarded = 0;  ///< rounds that produced at least one award
  std::uint64_t unfilled = 0; ///< rounds whose book cleared empty

  Accumulator solicited_per_auction;  ///< call-for-bids fan-out
  Accumulator bids_per_auction;       ///< sealed bids in the book
  Accumulator feasible_per_auction;   ///< bids surviving the filter
  Accumulator clearing_price;         ///< payment of the top-ranked award
  Accumulator winner_surplus;         ///< payment - winner ask (Vickrey premium)

  // Reputation input signals, keyed by the *participant* that gave the
  // broken promise (federation::ParticipantId::value — a singleton's key
  // equals its cluster index, a coalition's is its registered id).  The
  // ROADMAP's reputation-weighted bidding follow-on consumes these:
  // providers that decline awards or miss guarantees should see their
  // future bids discounted.
  std::map<std::uint32_t, std::uint64_t> award_declines;   ///< per provider
  std::map<std::uint32_t, std::uint64_t> guarantee_misses; ///< per provider
  std::uint64_t awards_declined = 0;    ///< declined or timed-out awards
  std::uint64_t guarantees_missed = 0;  ///< completions past the promise

  /// Folds one cleared round in.
  void record(const market::ClearingReport& report);

  /// Books one declined (or timed-out) award against `participant`.
  void record_decline(std::uint32_t participant);

  /// Books one completion-guarantee miss against `participant`.
  void record_miss(std::uint32_t participant);

  /// Fraction of rounds that found a winner, in [0, 1].
  [[nodiscard]] double fill_rate() const noexcept {
    return held ? static_cast<double>(awarded) / static_cast<double>(held)
                : 0.0;
  }
};

}  // namespace gridfed::stats
