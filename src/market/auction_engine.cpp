#include "market/auction_engine.hpp"

#include <algorithm>
#include <bit>

#include "sim/check.hpp"

namespace gridfed::market {

AuctionBook::AuctionBook(cluster::JobId job,
                         std::vector<federation::ParticipantId> solicited)
    : job_(job),
      solicited_(std::move(solicited)),
      answered_(solicited_.size(), false),
      outstanding_(solicited_.size()) {
  build_index();
  bids_.reserve(solicited_.size());
}

void AuctionBook::reopen(cluster::JobId job,
                         std::span<const federation::ParticipantId> solicited) {
  job_ = job;
  solicited_.assign(solicited.begin(), solicited.end());
  answered_.assign(solicited_.size(), false);
  build_index();
  outstanding_ = solicited_.size();
  pruned_ = 0;
  bids_.clear();
  bids_.reserve(solicited_.size());
}

void AuctionBook::build_index() {
  index_.assign(std::bit_ceil(2 * solicited_.size()), kFreeCell);
  const auto mask = static_cast<std::uint32_t>(index_.size() - 1);
  for (std::uint32_t slot = 0; slot < solicited_.size(); ++slot) {
    std::uint32_t h = solicited_[slot].value & mask;
    while (index_[h] != kFreeCell) h = (h + 1) & mask;
    index_[h] = slot;
  }
}

bool AuctionBook::answer(federation::ParticipantId bidder) {
  if (index_.empty()) return false;  // never opened
  const auto mask = static_cast<std::uint32_t>(index_.size() - 1);
  for (std::uint32_t h = bidder.value & mask; index_[h] != kFreeCell;
       h = (h + 1) & mask) {
    const std::uint32_t slot = index_[h];
    if (solicited_[slot] != bidder) continue;
    if (answered_[slot]) return false;  // duplicate
    answered_[slot] = true;
    --outstanding_;
    return true;
  }
  return false;  // unsolicited
}

bool AuctionBook::add(const Bid& bid) {
  if (!answer(bid.bidder)) return false;
  bids_.push_back(bid);
  return true;
}

bool AuctionBook::add_pruned(federation::ParticipantId bidder) {
  // A re-delivered tombstone is a duplicate like a re-delivered bid.
  if (!answer(bidder)) return false;
  ++pruned_;
  return true;
}

const Bid* Ranking::runner_up() const noexcept {
  // The heap's second-best element is the better child of the root.
  if (heap_.size() < 2) return nullptr;
  if (heap_.size() == 2 || ranks_after(heap_[2], heap_[1])) {
    return &heap_[1].bid;
  }
  return &heap_[2].bid;
}

Award Ranking::front() const {
  GF_EXPECTS(!heap_.empty());
  const Bid& best = heap_.front().bid;
  double payment = best.ask;
  if (rule_ == ClearingRule::kVickrey) {
    if (const Bid* next = runner_up(); next != nullptr) {
      // Under a non-price score the next-ranked ask can undercut this
      // one; flooring at the own ask keeps the payment individually
      // rational (generalized second price, see file comment).
      payment = std::max(best.ask, next->ask);
    } else if (reserve_) {
      // Lone (or last-ranked) bidder: the reserve price — the user's
      // budget — plays the second bid, as in a Vickrey auction with a
      // reserve.  Without budget enforcement there is no reserve and the
      // ask itself is the only defensible payment.
      payment = *reserve_;
    }
  }
  return Award{best, payment};
}

void Ranking::pop() {
  GF_EXPECTS(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), ranks_after);
  heap_.pop_back();
}

Ranking AuctionEngine::rank(const cluster::Job& job,
                            std::span<const Bid> bids) const {
  const JobQos qos = JobQos::of(job);
  Ranking ranking;
  ranking.rule_ = rule_;
  if (scorer_.enforce_budget()) ranking.reserve_ = job.budget;
  ranking.heap_.reserve(bids.size());
  for (const Bid& bid : bids) {
    GF_EXPECTS(bid.ask >= 0.0 || !bid.feasible);
    if (!scorer_.admissible(qos, bid)) continue;
    ranking.heap_.push_back(Ranking::Scored{bid, scorer_.score(qos, bid)});
  }
  // Best score first under the scorer's shared total order (score, ask,
  // completion guarantee, participant id), so clearing is deterministic
  // for any arrival order of the bids — and identical to the rank order
  // the pruning relays preserve.  (Singleton ids equal their cluster
  // index, so solo clearing orders exactly as the pre-participant
  // engine did.)
  std::make_heap(ranking.heap_.begin(), ranking.heap_.end(),
                 Ranking::ranks_after);
  return ranking;
}

std::vector<Award> AuctionEngine::clear(const cluster::Job& job,
                                        const std::vector<Bid>& bids) const {
  Ranking ranking = rank(job, bids);
  std::vector<Award> awards;
  awards.reserve(ranking.size());
  for (; !ranking.empty(); ranking.pop()) awards.push_back(ranking.front());
  return awards;
}

}  // namespace gridfed::market
