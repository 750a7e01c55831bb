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

}  // namespace gridfed::stats
