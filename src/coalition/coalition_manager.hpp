#pragma once
// Coalition formation and coordination over the participant layer
// (federation/participant.hpp).  One CoalitionManager rides a federation
// run in auction mode when CoalitionConfig::enabled is set:
//
//  * formation — clusters are ordered by their overlay ring keys (the
//    TreeTransport's heap order) and consecutive latency-proximity
//    buckets of CoalitionConfig::bucket_size register as coalitions in
//    the ParticipantRegistry, each represented on the wire by its first
//    member in ring order;
//  * joint bidding — a call-for-bids reaching a coalition's
//    representative is answered ONCE: the manager collects each member's
//    solo pricing over the cheap intra-coalition links (counted in
//    local_messages, never in the wire ledger) and the best member's
//    ask/guarantee becomes the coalition's sealed bid.  A member equal to
//    the job's origin is excluded — the origin competes for its own job
//    with its message-free local bid, exactly as in the solo market;
//  * internal placement — an award won by the coalition is dispatched to
//    the member whose LRMS guarantees the earliest completion at award
//    time (admission re-check semantics unchanged: estimate, reserve,
//    hold), and the origin ships the payload straight to that member;
//  * surplus splitting — at settlement the coalition's payment is split
//    among the members under the configured SurplusRuleKind
//    (surplus_rule.hpp) and lands in the GridBank as one settlement per
//    member, so balanced() keeps holding member-by-member.
//
// The manager reaches the per-cluster machinery (LRMS estimates, sealed
// pricing, reservations) through CoalitionContext, implemented by the
// Federation driver — the same inversion the transport and policy layers
// use, keeping this subsystem free of any dependency on core/.

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/job.hpp"
#include "coalition/coalition_config.hpp"
#include "coalition/surplus_rule.hpp"
#include "economy/grid_bank.hpp"
#include "federation/participant.hpp"
#include "market/bid.hpp"
#include "obs/observer.hpp"
#include "sim/flat_map.hpp"

namespace gridfed::coalition {

/// Per-cluster services the manager coordinates through, implemented by
/// the federation driver (which owns every agent and LRMS).
class CoalitionContext {
 public:
  virtual ~CoalitionContext() = default;

  [[nodiscard]] virtual std::size_t sites() const = 0;
  [[nodiscard]] virtual const cluster::ResourceSpec& spec_of(
      cluster::ResourceIndex index) const = 0;

  /// `member`'s solo sealed bid for `job` — the same pricing the member
  /// would put on the wire bidding alone (AuctionPolicy::make_bid).
  [[nodiscard]] virtual market::Bid member_bid(cluster::ResourceIndex member,
                                               const cluster::Job& job) = 0;

  /// Provider-side admission at `member` (exact estimate; on acceptance
  /// the member reserves and holds, exactly as for a wire enquiry).
  /// Returns the completion estimate, or sim::kTimeInfinity on rejection.
  virtual sim::SimTime member_admit(cluster::ResourceIndex member,
                                    const cluster::Job& job) = 0;
};

/// Outcome of a coalition's internal placement for one award.
struct Placement {
  bool accepted = false;
  cluster::ResourceIndex member = cluster::kNoResource;
  sim::SimTime estimate = 0.0;
};

/// One settled coalition award (tests inspect these to pin budget
/// balance and individual rationality end-to-end).
struct SplitRecord {
  cluster::JobId job = 0;
  federation::ParticipantId coalition = federation::kNoParticipant;
  cluster::ResourceIndex executor = cluster::kNoResource;
  double executor_ask = 0.0;  ///< the executor's solo ask for the job
  double payment = 0.0;       ///< the coalition's cleared payment
  /// Member list the split ran over — snapshotted at PLACEMENT time, so
  /// a settlement after churn pays exactly the members who backed the
  /// bid (budget balance survives a mid-flight re-formation).
  std::vector<cluster::ResourceIndex> members;
  std::vector<double> shares;  ///< per member, parallel to `members`
};

/// One churn-driven re-formation of a coalition (tests pin that every
/// re-formation leaves a rational split rule in place).
struct ReformationRecord {
  sim::SimTime t = 0.0;
  federation::ParticipantId coalition = federation::kNoParticipant;
  cluster::ResourceIndex member = cluster::kNoResource;  ///< who churned
  bool departed = true;  ///< false: a rejoin re-entered at the bucket rule
  std::vector<cluster::ResourceIndex> members_after;
  cluster::ResourceIndex representative_after = cluster::kNoResource;
  /// The individual-rationality probe held: for every member as a
  /// hypothetical executor, the split is budget-balanced, every share is
  /// non-negative, and the executor recovers at least its ask.
  bool rational = true;
};

class CoalitionManager {
 public:
  /// Forms the ring-bucket coalitions over the federation's clusters
  /// (see file comment).  `ring_keys` orders the clusters; it is the
  /// overlay ring hash of the cluster names, passed in so formation
  /// matches the TreeTransport's layout without depending on it.
  /// `observer` is the run's observability umbrella, or null when
  /// ObsConfig is all-off (formation and re-formation instants land per
  /// cluster track).
  CoalitionManager(CoalitionContext& ctx, const CoalitionConfig& config,
                   std::span<const std::uint64_t> ring_keys,
                   obs::Observer* observer);

  [[nodiscard]] const federation::ParticipantRegistry& registry()
      const noexcept {
    return registry_;
  }
  [[nodiscard]] const CoalitionConfig& config() const noexcept {
    return config_;
  }

  /// The coalition's joint sealed bid for `job`: the best member pricing
  /// over the members that could run it, excluding the job's origin
  /// (which bids for itself locally).  bidder == `id`.
  [[nodiscard]] market::Bid joint_bid(federation::ParticipantId id,
                                      const cluster::Job& job);

  /// Internal placement of an award won by coalition `id`: admits on the
  /// member with the earliest completion guarantee (origin excluded, as
  /// in the joint bid).  On acceptance the member holds a reservation
  /// and the pending settlement is noted for the eventual split.
  [[nodiscard]] Placement place_award(federation::ParticipantId id,
                                      const cluster::Job& job);

  /// Settles `payment` for `job` (executed on `executor`) against the
  /// coalition noted at placement: one GridBank settlement per member
  /// share.  Returns false — caller settles solo — when no matching note
  /// exists (the job was ultimately placed outside the coalition, e.g.
  /// after a lossy-network re-schedule).
  bool settle(economy::GridBank& bank, cluster::JobId job,
              cluster::ResourceIndex executor,
              cluster::ResourceIndex consumer_home, std::uint32_t user,
              double payment);

  /// Drops any pending placement note for `job`.  Called by the driver
  /// when the job reached a terminal state outside the coalition path —
  /// a solo settlement or a rejection after a lossy award was abandoned
  /// — so stale notes do not accumulate for the rest of the run.
  void forget(cluster::JobId job) { notes_.erase(job); }

  /// Intra-coalition control messages exchanged on the local links
  /// (member pricing enquiries and placement RPCs; never in the wire
  /// ledger — this is the representative-fan-out cost the README's
  /// byte/message tradeoff discussion quantifies).
  [[nodiscard]] std::uint64_t local_messages() const noexcept {
    return local_messages_;
  }

  /// Every settled coalition award, settlement order.
  [[nodiscard]] const std::vector<SplitRecord>& splits() const noexcept {
    return splits_;
  }

  // -- membership churn ---------------------------------------------------
  /// `member` left or was confirmed dead: its coalition re-forms without
  /// it — the member reverts to its singleton, a departed representative
  /// is replaced by the surviving member first in ring order, and the
  /// individual-rationality probe re-runs over the survivors.  In-flight
  /// settlements are untouched (they split over the placement-time
  /// snapshot).  The LAST member of a group is never removed: an
  /// all-departed coalition keeps its shell, which no live directory
  /// entry resolves to.
  void on_member_departed(cluster::ResourceIndex member, sim::SimTime now);
  /// A kJoin churn event brought `member` back: it re-enters its home
  /// coalition at the bucket rule (ascending member order, first member
  /// in ring order represents).
  void on_member_rejoined(cluster::ResourceIndex member, sim::SimTime now);
  /// Every churn-driven re-formation, application order.
  [[nodiscard]] const std::vector<ReformationRecord>& reformations()
      const noexcept {
    return reformations_;
  }

 private:
  /// One member priced for an award's internal placement.
  struct Candidate {
    sim::SimTime estimate = 0.0;
    cluster::ResourceIndex member = cluster::kNoResource;
    double ask = 0.0;
  };
  /// Pending settlement noted at placement time.
  struct AwardNote {
    federation::ParticipantId coalition = federation::kNoParticipant;
    cluster::ResourceIndex executor = cluster::kNoResource;
    double executor_ask = 0.0;
    /// Member snapshot backing the eventual split (see SplitRecord).
    std::vector<cluster::ResourceIndex> members;
  };

  /// The surviving member first in ring order (formation's layout rule).
  [[nodiscard]] cluster::ResourceIndex first_in_ring(
      federation::ParticipantId id) const;
  /// The individual-rationality probe of ReformationRecord::rational.
  [[nodiscard]] bool rational_split(federation::ParticipantId id);
  void record_reformation(federation::ParticipantId id,
                          cluster::ResourceIndex member, bool departed,
                          sim::SimTime now);

  CoalitionContext& ctx_;
  obs::Observer* const observer_;
  CoalitionConfig config_;
  federation::ParticipantRegistry registry_;
  sim::FlatMap<cluster::JobId, AwardNote> notes_;
  std::vector<SplitRecord> splits_;
  std::vector<ReformationRecord> reformations_;
  std::uint64_t local_messages_ = 0;
  /// Ring key per cluster (formation order; re-formation reuses it).
  std::vector<std::uint64_t> ring_keys_;
  /// Each cluster's formation-time coalition (kNoParticipant when it
  /// formed none) — the home a rejoiner re-enters.
  std::vector<federation::ParticipantId> home_coalition_;
  // Scratch reused across placements/settlements.
  std::vector<Candidate> scratch_candidates_;
  std::vector<double> scratch_weights_;
};

/// The participant `resource` acts as under an optional coalition layer:
/// its registered coalition, or its singleton when `manager` is null
/// (the solo market) or it joined no group.  The ONE definition of the
/// "no layer == identity" rule the solo-parity digests rely on — the
/// protocol engine, the policies and the transports all map through
/// here (or through the registry directly) rather than re-deriving it.
[[nodiscard]] inline federation::ParticipantId participant_of(
    const CoalitionManager* manager, cluster::ResourceIndex resource) {
  if (manager == nullptr) return federation::ParticipantId{resource};
  return manager->registry().participant_of(resource);
}

/// Wire address of `participant` under an optional coalition layer (a
/// singleton represents itself; null manager == identity).
[[nodiscard]] inline cluster::ResourceIndex representative_of(
    const CoalitionManager* manager, federation::ParticipantId participant) {
  if (manager == nullptr) return participant.cluster();
  return manager->registry().representative(participant);
}

}  // namespace gridfed::coalition
