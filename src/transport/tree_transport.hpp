#pragma once
// Overlay-tree delivery: the call-for-bids fan-out rides a k-ary
// dissemination tree built over the federation's Chord ring keys, and
// the bid replies aggregate on the convergecast path — the
// "gossip/tree overlay for the call-for-bids fan-out itself" scale
// follow-on from the ROADMAP.
//
// Why a tree reduces *wire messages* when every provider must still
// receive every solicitation: per-(origin, provider) batching (PR 2)
// cannot merge traffic from different origins, so at 50 clusters each
// flush still costs ~2 messages per (origin, provider) pair.  The tree
// gives all origins one shared edge set (N-1 edges, degree <= k+1), and
// the transport releases queued fan-outs at epoch boundaries
// (TransportOptions::tree_epoch): every payload crossing a tree edge in
// the same instant shares one wire message, so an epoch's whole
// federation-wide solicitation load costs O(edges), not O(origins x
// providers).  Replies come back the same way: all bids for an epoch's
// solicitations leave their providers in the same instant, and relays
// coalesce them per edge-direction on the paths back to their origins.
//
// Topology: nodes are ordered by (overlay::ring_hash(name), index) —
// the ChordRing's node ids — and the tree is the k-ary heap layout over
// that order: parent(i) = (i-1)/k.  Deterministic, balanced (depth
// ceil(log_k n)), and rebuilt trivially because federation membership
// is quasi-static per run (as in the paper's experiments).
//
// Every other protocol leg (negotiate, reply, award, the job payload
// and its completion) stays point-to-point: those are latency-critical
// admission messages, and delaying them is exactly the anticipatory
// holding PR 3 measured to destroy acceptance.
//
// Accounting: edge messages carry payloads of many origins, so they are
// booked through MessageLedger::record_relay (counted once
// federation-wide, relay load at both endpoints) and delivered payloads
// are flagged via_overlay so per-job policy counters do not double-book
// them.  Loss injection applies per *edge message*: a lost edge loses
// the whole subtree behind it, exactly as a real overlay would.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "market/bid_scorer.hpp"
#include "transport/transport.hpp"

namespace gridfed::transport {

class TreeTransport final : public Transport {
 public:
  TreeTransport(TransportContext& ctx,
                std::optional<network::LatencyModel> wan);

  /// kBid joins the same-instant convergecast; everything else goes
  /// point-to-point.  (The call-for-bids fan-out always arrives through
  /// multicast() — both the batched flush and the per-job broadcast —
  /// so a unicast kCallForBids would simply be delivered directly.)
  void unicast(core::Message&& msg) override;

  /// Queues the fan-out for the next epoch boundary (never past
  /// `not_after`).  Returns 0: the shared edge messages land in the
  /// ledger's relay counters at flush time.
  std::uint64_t multicast(core::Message&& msg,
                          std::span<const cluster::ResourceIndex> targets,
                          sim::SimTime not_after) override;

  // ---- membership churn: self-repair -------------------------------------
  /// Confirmed death of a relay: excise its position (orphaned subtrees
  /// re-parent on the ring order — consecutive survivors on each path
  /// become the repaired edges) and replay every retained solicitation
  /// the dead relay swallowed, so no call-for-bids from a live origin is
  /// silently lost.
  void on_member_dead(cluster::ResourceIndex index) override;
  /// Cooperative departure: stop routing through the member.  Its own
  /// in-flight relays completed normally, so nothing needs replay.
  void on_member_left(cluster::ResourceIndex index) override;
  void on_member_joined(cluster::ResourceIndex index) override;

  // ---- topology introspection (tests, diagnostics) -----------------------
  /// Tree parent of `owner` (the root returns itself).
  [[nodiscard]] cluster::ResourceIndex parent_of(
      cluster::ResourceIndex owner) const;
  /// Edges on the unique tree path between two nodes.
  [[nodiscard]] std::uint32_t path_hops(cluster::ResourceIndex from,
                                        cluster::ResourceIndex to) const;
  [[nodiscard]] cluster::ResourceIndex root() const { return owner_at_[0]; }
  /// True when `owner` relays for a subtree without being the root —
  /// the interesting crash target for repair tests.
  [[nodiscard]] bool interior_relay(cluster::ResourceIndex owner) const;

  // ---- convergecast aggregation telemetry ----------------------------------
  /// Bid entries scored out of the decision-relevant rank prefix and
  /// forwarded as tombstones (TransportOptions::bid_prune_k).
  [[nodiscard]] std::uint64_t bids_pruned() const noexcept override {
    return bids_pruned_;
  }
  /// Wire bytes the prune + delta encoding saved against forwarding
  /// every bid payload whole on every edge.
  [[nodiscard]] std::uint64_t bid_prune_bytes_saved() const noexcept override {
    return prune_bytes_saved_;
  }

  // ---- repair telemetry ----------------------------------------------------
  [[nodiscard]] std::uint64_t repairs() const noexcept { return repairs_; }
  [[nodiscard]] std::uint64_t replayed_solicitations() const noexcept {
    return replayed_;
  }
  /// Wire (relay edge) messages spent on replays — the repair cost the
  /// bench reports and test_membership.cpp reconciles with the ledger.
  [[nodiscard]] std::uint64_t repair_relay_messages() const noexcept {
    return repair_relay_msgs_;
  }

 private:
  /// One queued fan-out awaiting the epoch flush.
  struct PendingFanout {
    core::Message msg;
    std::vector<cluster::ResourceIndex> targets;
  };
  /// One payload-to-destination segment of a relay flush.  Segments of
  /// one fan-out payload share a payload_id: the payload crosses a
  /// shared edge once however many targets sit behind it.
  struct RelayItem {
    const core::Message* payload = nullptr;
    cluster::ResourceIndex target = cluster::kNoResource;
    std::uint32_t payload_id = 0;
  };
  /// One directed tree edge touched by the current relay flush.
  struct EdgeUse {
    std::uint32_t from_pos = 0;
    std::uint32_t to_pos = 0;
    std::uint64_t bytes = 0;
    std::uint32_t last_payload = 0;  ///< dedups per-payload byte booking
    bool alive = true;
    bool down = false;  ///< dead because an endpoint crashed (not lottery)
  };
  /// One solicitation segment a crashed-but-unconfirmed relay swallowed,
  /// retained until the failure detector confirms the death and
  /// on_member_dead replays it over the repaired topology.
  struct LostSolicitation {
    sim::SimTime at = 0.0;
    core::Message msg;  ///< .to already set to the final target
  };

  // ---- convergecast score-and-prune + delta encoding ----------------------
  /// Relative log-bucket width of the delta encoder's shape keys: jobs
  /// whose length and comm overhead agree within ~5% share a base quote.
  static constexpr double kShapeQuantum = 0.05;

  /// What a relay knows about a job it forwarded the solicitation for:
  /// the QoS envelope the scorer ranks against, and the log-bucket shape
  /// key the delta encoder groups quotes by.  Harvested from every
  /// kCallForBids that fans out through the tree; retained for the run
  /// (a few dozen bytes per job — the solicitations themselves dwarf
  /// it), because bids for a job may convergecast in several waves.
  struct JobFacts {
    market::JobQos qos;
    std::uint64_t shape = 0;
  };
  /// Per bid entry of a queued convergecast payload: the hop index of
  /// the first edge the entry is pruned on (path-length = never), and
  /// its job's shape key for the per-edge delta grouping.
  struct BidEntryMeta {
    std::uint32_t prune_hop = 0;
    std::uint64_t shape = 0;
  };
  /// Per-edge tallies of the compact convergecast frame, parallel to
  /// scratch_edges_ while an encoded kBid relay is in flight.
  struct EdgeFrame {
    std::uint64_t naive_bytes = 0;  ///< what whole-payload forwarding costs
    std::uint32_t sources = 0;      ///< merged provider→origin streams
    std::uint32_t bases = 0;        ///< first quote of a shape group
    std::uint32_t deltas = 0;       ///< same-shape follower quotes
    std::uint32_t tombstones = 0;   ///< pruned-bid markers
  };

  [[nodiscard]] std::uint32_t parent_pos(std::uint32_t pos) const noexcept {
    return (pos - 1) / fanout_;
  }
  /// Node-position sequence of the unique tree path a -> b (inclusive).
  void path_positions(std::uint32_t a, std::uint32_t b,
                      std::vector<std::uint32_t>& out) const;
  /// path_positions with confirmed-dead interior relays excised:
  /// consecutive survivors form the repaired edges (a dead parent's
  /// children are adopted by the grandparent on the ring order).
  /// Identical to path_positions while no member is dead.
  void relay_path(std::uint32_t a, std::uint32_t b,
                  std::vector<std::uint32_t>& out) const;
  /// Drops retained losses older than the confirmation bound (their
  /// relay's death would have been confirmed and replayed by now).
  void prune_retained();

  void schedule_fanout_wake(sim::SimTime not_after);
  void maybe_flush_fanout();
  void flush_fanout();
  void flush_convergecast();

  /// Remembers every job a call-for-bids carries (QoS envelope + shape
  /// key), so the convergecast relays can score and delta-group the
  /// bids coming back.
  void harvest_job_facts(const core::Message& msg);
  void remember_job(const cluster::Job& job);
  /// The tentpole: ranks each job's queued bids under the engine's
  /// exact total order and computes, per bid, the first path edge it
  /// falls out of the per-edge top-k on (see .cpp for why per-edge
  /// top-k equals top-k of the bids crossing the edge).  Fills
  /// scratch_entry_meta_ and marks pruned deliveries in `queue`.
  void prune_convergecast(std::vector<core::Message>& queue);
  /// Edge count key for the per-(job, edge) rank counters.
  [[nodiscard]] std::uint64_t edge_key(std::uint32_t from_pos,
                                       std::uint32_t to_pos) const noexcept {
    return static_cast<std::uint64_t>(from_pos) * owner_at_.size() + to_pos;
  }

  /// The shared relay machinery: books one wire message per directed
  /// edge used this flush (loss lottery per edge), then delivers every
  /// payload whose whole path survived, after the summed per-hop
  /// latency.
  void relay(std::span<const RelayItem> items, core::MessageType type);

  std::uint32_t fanout_ = 4;
  std::vector<cluster::ResourceIndex> owner_at_;  ///< position -> resource
  std::vector<std::uint32_t> pos_of_;             ///< resource -> position

  // Membership churn state (all empty/false in static-roster runs).
  std::vector<std::uint8_t> dead_pos_;  ///< positions routed around
  bool any_dead_ = false;
  std::vector<LostSolicitation> retained_losses_;
  std::vector<core::Message> replay_storage_;
  std::uint64_t repairs_ = 0;
  std::uint64_t replayed_ = 0;
  std::uint64_t repair_relay_msgs_ = 0;

  std::vector<PendingFanout> fanout_queue_;
  sim::SimTime fanout_due_ = sim::kTimeInfinity;
  /// Trace id of the fan-out epoch currently accumulating (spans the
  /// first queued fan-out to its flush); monotone per run.
  std::uint64_t epoch_seq_ = 0;

  std::vector<core::Message> convergecast_queue_;
  bool convergecast_armed_ = false;

  // Convergecast score-and-prune + delta encoding state.
  std::uint32_t prune_k_ = 0;      ///< 0 = forward every bid whole
  bool encode_bids_ = false;       ///< compact per-edge frame accounting
  market::BidScorer scorer_;       ///< the engine's exact rank order
  std::unordered_map<cluster::JobId, JobFacts> job_facts_;
  std::uint64_t bids_pruned_ = 0;
  std::uint64_t prune_bytes_saved_ = 0;
  /// True while relay() runs on a convergecast flush whose entry meta
  /// (scratch_entry_meta_) is populated — switches the kBid edge byte
  /// accounting to the compact frame model.
  bool bid_frame_relay_ = false;

  // Scratch reused across flushes (hot path at 50 clusters).
  std::vector<RelayItem> scratch_items_;
  std::vector<EdgeUse> scratch_edges_;
  std::unordered_map<std::uint64_t, std::uint32_t> scratch_edge_index_;
  std::vector<std::uint32_t> scratch_path_;
  /// path_positions is logically const (path_hops introspection).
  mutable std::vector<std::uint32_t> scratch_up_;
  // Convergecast scratch: per-payload entry meta (indexed payload_id-1),
  // per-job rank candidates, per-(job, edge) better-ranked counters, and
  // the per-edge shape groups / frame tallies of the current relay.
  std::vector<std::vector<BidEntryMeta>> scratch_entry_meta_;
  std::unordered_map<std::uint64_t, std::uint32_t> scratch_rank_counts_;
  std::vector<EdgeFrame> scratch_edge_frames_;
  std::unordered_set<std::uint64_t> scratch_shape_seen_;
};

}  // namespace gridfed::transport
