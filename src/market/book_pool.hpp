#pragma once
// AuctionBook recycling.  Every job in auction mode opens a book whose
// vectors (solicited, answered, bids) and bidder index the old code
// allocated fresh and threw away a few events later.  Back-to-back jobs
// at the same origin solicit the same provider set ("the same shape"),
// so a released book's capacity is exactly what the next auction needs
// — the pool turns the per-auction allocations into plain vector
// rewinds.

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "cluster/job.hpp"
#include "market/auction_engine.hpp"

namespace gridfed::market {

/// Bounded free-list of AuctionBooks.  acquire() rehydrates a released
/// book (keeping its allocations) or default-constructs one; release()
/// returns a cleared book to the pool.
class BookPool {
 public:
  /// Books retained at most; concurrent open auctions beyond this many
  /// fall back to fresh allocation (release simply drops the extras).
  static constexpr std::size_t kMaxPooled = 64;

  [[nodiscard]] AuctionBook acquire(
      cluster::JobId job,
      std::span<const federation::ParticipantId> solicited) {
    AuctionBook book;
    if (!free_.empty()) {
      book = std::move(free_.back());
      free_.pop_back();
      ++reuses_;
    }
    book.reopen(job, solicited);
    return book;
  }

  void release(AuctionBook&& book) {
    if (free_.size() < kMaxPooled) free_.push_back(std::move(book));
  }

  /// How many acquires were served from the pool (telemetry/tests).
  [[nodiscard]] std::size_t reuses() const noexcept { return reuses_; }

 private:
  std::vector<AuctionBook> free_;
  std::size_t reuses_ = 0;
};

}  // namespace gridfed::market
