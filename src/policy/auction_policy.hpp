#pragma once
// SchedulingMode::kAuction — the market extension's per-job sealed-bid
// reverse auction, both sides of it:
//
//  * origin side: solicit asks from the eligible providers (cheapest
//    directory order, one metered bulk query), collect the book, clear it
//    through market::AuctionEngine under the configured clearing +
//    scoring rules, and work through the award ranking; a book that
//    clears empty (or whose every award is declined) falls back to the
//    DBC walk when the config allows;
//  * provider side: answer call-for-bids with sealed asks (admission-
//    style completion estimate + the configured bid-pricing strategy).
//
// The policy owns every piece of auction-only state the Gfa god class
// used to carry: the open books, the batched-solicitation queue, the
// book pool and scratch buffers, the award ranking riding each Pending
// (as an AuctionJobState behind Pending::policy_state), and the held
// awards awaiting a piggyback flush.

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "market/book_pool.hpp"
#include "policy/dbc_policy.hpp"
#include "policy/scheduling_policy.hpp"

namespace gridfed::policy {

class AuctionPolicy final : public SchedulingPolicy {
 public:
  explicit AuctionPolicy(SchedulerContext& ctx);

  void schedule(core::Pending p) override;
  [[nodiscard]] double settled_cost(const core::Pending& p,
                                    cluster::ResourceIndex exec) const override;
  void on_call_for_bids(const core::Message& msg) override;
  void on_bid(const core::Message& msg) override;
  [[nodiscard]] PolicyCounters counters() const override { return counters_; }
  [[nodiscard]] std::size_t open_auctions() const override {
    return auctions_.size();
  }

  /// This cluster's solo sealed bid for `job` (provider side; also the
  /// origin's own message-free local bid): the LRMS's exact completion
  /// estimate, priced by the configured strategy.
  [[nodiscard]] market::Bid make_bid(const cluster::Job& job) override;

  /// The sealed bid this cluster answers a call-for-bids with: its own
  /// make_bid() in the solo market, or — when it represents a coalition —
  /// the coalition's joint bid aggregated over the members' pricing on
  /// the cheap intra-coalition links.
  [[nodiscard]] market::Bid participant_bid(const cluster::Job& job);

  /// Crash drain (membership churn): hands back the jobs in every open
  /// book and every undispatched held award and empties the solicitation
  /// queue.  Armed bid timeouts and flush wakes find nothing to act on
  /// afterwards.
  void drain_in_flight(
      const std::function<void(core::Pending)>& sink) override;

 private:
  /// Auction-mode extension of a Pending (lives behind policy_state).
  struct AuctionJobState final : core::PolicyState {
    /// Cleared award ranking still to try; awards[next_award] is next.
    std::vector<market::Award> awards;
    std::size_t next_award = 0;
    /// Payment agreed for the in-flight award; settled instead of the
    /// posted-price cost when the winner accepts.
    double award_payment = 0.0;
    /// Book cleared empty or every award declined: finish via the DBC
    /// walk (when the config allows) rather than re-auctioning.
    bool dbc_fallback = false;

    /// True while an auction award (not a DBC negotiate) is in flight.
    [[nodiscard]] bool awarding() const noexcept {
      return !awards.empty() && !dbc_fallback;
    }
  };

  /// An auction round collecting bids (origin side).
  struct OpenAuction {
    core::Pending pending;
    market::AuctionBook book;
  };

  /// An award waiting (bounded) for a solicitation flush to carry it.
  /// `target` is the wire address — the winning participant's
  /// representative cluster.
  struct HeldAward {
    core::Pending pending;
    cluster::ResourceIndex target = cluster::kNoResource;
    double payment = 0.0;
    bool dispatched = false;  ///< rode a flush or went standalone
  };

  [[nodiscard]] static AuctionJobState* state_of(const core::Pending& p);
  /// Ensures `p` carries an AuctionJobState, allocating on first touch.
  static AuctionJobState& ensure_state(core::Pending& p);

  /// The market participant `resource` acts as: its coalition when the
  /// run registered one, its singleton otherwise (and always the
  /// singleton when the coalition layer is off — the identity map the
  /// solo-parity digests pin down).
  [[nodiscard]] federation::ParticipantId participant_of(
      cluster::ResourceIndex resource);
  /// Wire address of `participant` (a singleton represents itself).
  [[nodiscard]] cluster::ResourceIndex representative_of(
      federation::ParticipantId participant);

  /// Opens the book: solicits bids from every eligible provider and
  /// enters the origin's own message-free bid when configured.
  void open_auction(core::Pending p);
  /// Batched solicitation: parks the job's call-for-bids until the flush
  /// deadline (bounded by the batch window and the job's deadline slack).
  void queue_solicitation(cluster::JobId id);
  /// Flush wake-up; a no-op unless the earliest queued deadline is due.
  void maybe_flush_solicitations();
  /// Sends one coalesced kCallForBids per provider covering every queued
  /// job (held awards ride along), then arms the per-job bid timeouts.
  void flush_solicitations();
  /// Closes the book, clears it through the engine, reports telemetry and
  /// starts awarding (or falls back / rejects on an empty ranking).
  void clear_auction(cluster::JobId id);
  /// Tries the next award in the cleared ranking; exhausted = fallback.
  void advance_awards(core::Pending p);
  void on_bid_timeout(cluster::JobId id);
  /// True when some queued (still-open) auction solicits `participant`,
  /// so the pending flush will actually send its representative a
  /// call-for-bids an award could ride.
  [[nodiscard]] bool flush_solicits(
      federation::ParticipantId participant) const;
  /// True when an undispatched held award targets `provider` — shared by
  /// the flush's run grouping (a provider carrying awards is carved into
  /// its own message) and the piggyback bookkeeping.
  [[nodiscard]] bool has_held_award(cluster::ResourceIndex provider) const;
  /// End of the maximal run [i, end) of flush providers that can share
  /// one multicast: equal job buckets and no held awards (a payload with
  /// piggybacked awards differs per provider).  The single place the
  /// equal-bucket grouping rule lives.
  [[nodiscard]] std::size_t solicit_run_end(std::size_t i) const;
  /// Exhausted every auction avenue: DBC walk or rejection per config.
  void fallback(core::Pending p);

  /// The DBC walk serving as the fallback chain (shares this context).
  DbcPolicy dbc_fallback_;

  std::unordered_map<cluster::JobId, OpenAuction> auctions_;

  // -- batched solicitation state (batch_solicitations) -------------------
  /// Jobs whose call-for-bids await the next flush, in submission order.
  std::vector<cluster::JobId> solicit_queue_;
  /// Earliest flush deadline among queued jobs (infinity when empty).
  sim::SimTime flush_deadline_ = sim::kTimeInfinity;
  /// Awards waiting to ride the next flush (piggyback_awards).
  std::vector<HeldAward> held_awards_;

  /// Cleared books are recycled here instead of reallocating per job.
  market::BookPool book_pool_;
  // Scratch buffers reused across auctions (hot path: one per job).
  std::vector<directory::Quote> scratch_quotes_;
  /// Participants entering the book (wire-solicited and local entrants).
  std::vector<federation::ParticipantId> scratch_entrants_;
  /// Wire targets of the solicitation: one representative per remote
  /// participant, cheapest-first order (group-addressed dissemination —
  /// a coalition is reached through its representative only).
  std::vector<cluster::ResourceIndex> scratch_targets_;
  std::vector<cluster::ResourceIndex> scratch_providers_;
  /// Per-provider job buckets built by flush_solicitations; parallel to
  /// scratch_providers_, capacity retained across flushes.
  std::vector<std::vector<const cluster::Job*>> scratch_buckets_;
  /// Provider cluster -> its index in scratch_providers_ during a flush
  /// (kNoBucket otherwise); the flush resets only the entries it set.
  static constexpr std::uint32_t kNoBucket =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> bucket_of_;

  PolicyCounters counters_;
};

}  // namespace gridfed::policy
