#include "stats/auction_stats.hpp"

namespace gridfed::stats {

void AuctionStats::record(const market::ClearingReport& report) {
  held += 1;
  solicited_per_auction.add(static_cast<double>(report.solicited));
  bids_per_auction.add(static_cast<double>(report.bids));
  feasible_per_auction.add(static_cast<double>(report.feasible));
  if (report.awarded) {
    awarded += 1;
    clearing_price.add(report.payment);
    winner_surplus.add(report.payment - report.winner_ask);
  } else {
    unfilled += 1;
  }
}

void AuctionStats::record_decline(std::uint32_t participant) {
  ++award_declines[participant];
  ++awards_declined;
}

void AuctionStats::record_miss(std::uint32_t participant) {
  ++guarantee_misses[participant];
  ++guarantees_missed;
}

void AuctionStats::merge_from(const AuctionStats& other) {
  held += other.held;
  awarded += other.awarded;
  unfilled += other.unfilled;
  solicited_per_auction.merge(other.solicited_per_auction);
  bids_per_auction.merge(other.bids_per_auction);
  feasible_per_auction.merge(other.feasible_per_auction);
  clearing_price.merge(other.clearing_price);
  winner_surplus.merge(other.winner_surplus);
  awards_piggybacked += other.awards_piggybacked;
  for (const auto& [who, n] : other.award_declines) award_declines[who] += n;
  for (const auto& [who, n] : other.guarantee_misses) {
    guarantee_misses[who] += n;
  }
  awards_declined += other.awards_declined;
  guarantees_missed += other.guarantees_missed;
}

}  // namespace gridfed::stats
