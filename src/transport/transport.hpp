#pragma once
// The pluggable message-delivery layer.  The paper's GFAs coordinate over
// a P2P substrate, but until this layer existed every message went
// through one hard-wired point-to-point seam in Federation::send(); the
// per-job call-for-bids broadcast therefore stayed the dominant message
// cost at 20-50 clusters even after batched solicitation coalesced it
// per (origin, provider).  This layer makes the delivery path itself a
// swappable component:
//
//  * the *protocol* (Gfa, policies) decides what to say to whom — it
//    hands the transport unicasts and multicast-to-set requests;
//  * a Transport decides how the bits move: per-message point-to-point
//    (DirectTransport, the paper's model, bit-identical to the old
//    seam), or along a k-ary overlay tree with epoch-batched fan-out
//    and convergecast-aggregated replies (TreeTransport).
//
// The transport owns the delivery substrate's whole state: the WAN
// latency model (previously a Federation member), the failure-injection
// lotteries (loss on the best-effort enquiry channel, duplication on
// the idempotent acknowledgement legs), and the ledger bookkeeping for
// every wire message it emits.  The environment it operates in comes
// through TransportContext, implemented by the Federation driver.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/message.hpp"
#include "federation/participant.hpp"
#include "network/latency_model.hpp"
#include "obs/observer.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

namespace gridfed::transport {

/// Environment a transport operates in, implemented by the Federation
/// driver: the event kernel, the message ledger, the peer catalog, and
/// the delivery sink.
class TransportContext {
 public:
  virtual ~TransportContext() = default;

  [[nodiscard]] virtual const core::FederationConfig& config() const = 0;
  [[nodiscard]] virtual sim::Simulation& sim() = 0;
  [[nodiscard]] virtual core::MessageLedger& ledger() = 0;
  [[nodiscard]] virtual std::size_t sites() const = 0;
  [[nodiscard]] virtual const cluster::ResourceSpec& spec_of(
      cluster::ResourceIndex index) const = 0;

  /// Hands a message that reached its destination to the owning GFA.
  virtual void deliver(const core::Message& msg) = 0;

  /// One message lost to the failure-injection channel (telemetry).
  virtual void message_dropped() = 0;

  /// Deterministic lottery streams (loss / duplication injection).
  [[nodiscard]] virtual sim::Rng& drop_rng() = 0;
  [[nodiscard]] virtual sim::Rng& duplicate_rng() = 0;

  /// Schedules a delivery `delay` seconds from now on sim().
  virtual void post_delivery(core::Message&& msg, sim::SimTime delay) = 0;

  /// The observability umbrella, or null when disabled (GF_OBS sites
  /// branch on it; overlay records land on the tracer's transport track).
  [[nodiscard]] virtual obs::Observer* observer() { return nullptr; }

  /// Ground-truth liveness: false once `index` has crashed (membership
  /// churn).  A relay through a crashed site physically fails even
  /// before the failure detector confirms the death.  Always true in
  /// static-roster runs.
  [[nodiscard]] virtual bool site_up(cluster::ResourceIndex index) const {
    (void)index;
    return true;
  }
};

/// One delivery substrate.  Constructed at federation wiring time; owns
/// the WAN model for the run.
class Transport {
 public:
  Transport(TransportContext& ctx, std::optional<network::LatencyModel> wan)
      : ctx_(ctx), wan_(std::move(wan)) {}
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Delivers one point-to-point message (ledger + loss lottery +
  /// latency applied).
  virtual void unicast(core::Message&& msg) = 0;

  /// Delivers one payload to every target in `targets` (msg.to is
  /// overwritten per target).  `not_after` bounds any delivery batching
  /// the transport applies (TreeTransport's fan-out epoch); kDirect
  /// sends immediately and ignores it.  Returns the wire messages
  /// charged to the caller immediately — one per target for kDirect,
  /// 0 for kTree, whose shared edge messages land in the ledger's relay
  /// counters instead — so per-job message attribution stays honest.
  virtual std::uint64_t multicast(
      core::Message&& msg, std::span<const cluster::ResourceIndex> targets,
      sim::SimTime not_after) = 0;

  /// The WAN model of this run (null under the paper's constant-latency
  /// assumption).  Federation::payload_staging_time consults it.
  [[nodiscard]] const network::LatencyModel* wan() const noexcept {
    return wan_ ? &*wan_ : nullptr;
  }

  /// Group-addressed dissemination: with a participant registry wired
  /// in, every multicast target set is collapsed to ONE delivery per
  /// participant — a coalition is reached through its representative
  /// alone, and the intra-coalition fan-out rides the coalition layer's
  /// local links instead of the wire.  A null registry (the solo
  /// market, and every non-auction mode) leaves target sets untouched,
  /// so the solo path stays bit-identical.  `registry` must outlive the
  /// transport.
  void set_group_registry(const federation::ParticipantRegistry* registry) {
    groups_ = registry;
  }

  // ---- overlay aggregation telemetry (0 for non-aggregating transports) -----

  /// Bid entries the overlay tombstoned in-network (convergecast
  /// score-and-prune); lands in FederationResult::bids_pruned.
  [[nodiscard]] virtual std::uint64_t bids_pruned() const noexcept {
    return 0;
  }
  /// Wire bytes the convergecast prune + delta encoding saved against
  /// forwarding every payload whole; FederationResult::bid_prune_bytes_saved.
  [[nodiscard]] virtual std::uint64_t bid_prune_bytes_saved() const noexcept {
    return 0;
  }

  // ---- membership churn hooks (no-ops for topology-free transports) ---------

  /// The failure detector confirmed `index` dead: route around it and
  /// replay any in-flight dissemination it swallowed.
  virtual void on_member_dead(cluster::ResourceIndex index) { (void)index; }

  /// `index` departed cooperatively: stop routing through it (it stays
  /// reachable for its own in-flight legs, so nothing needs replay).
  virtual void on_member_left(cluster::ResourceIndex index) { (void)index; }

  /// `index` rejoined: restore it to the topology.
  virtual void on_member_joined(cluster::ResourceIndex index) {
    (void)index;
  }

 protected:
  /// The best-effort enquiry channel: these legs may be lost when
  /// failure injection is on; payload transfers are reliable
  /// (see core/config.hpp).
  [[nodiscard]] static bool droppable(core::MessageType type) noexcept {
    return type == core::MessageType::kNegotiate ||
           type == core::MessageType::kReply ||
           type == core::MessageType::kCallForBids ||
           type == core::MessageType::kBid ||
           type == core::MessageType::kAward ||
           type == core::MessageType::kGossip;
  }

  /// Idempotent acknowledgement legs safe to deliver twice: a second
  /// reply finds its enquiry already resolved, a duplicate bid is
  /// rejected by the book.
  [[nodiscard]] static bool duplicable(core::MessageType type) noexcept {
    return type == core::MessageType::kReply ||
           type == core::MessageType::kBid;
  }

  /// Loss lottery for one wire message (after it was recorded — lost
  /// messages still cost their send, as in the seed).
  [[nodiscard]] bool lost(core::MessageType type) {
    const auto& cfg = ctx_.config();
    if (!droppable(type) || cfg.message_drop_rate <= 0.0) return false;
    if (!ctx_.drop_rng().bernoulli(cfg.message_drop_rate)) return false;
    ctx_.message_dropped();
    return true;
  }

  /// Duplication lottery (see TransportOptions::duplicate_rate).
  [[nodiscard]] bool duplicated(core::MessageType type) {
    const double rate = ctx_.config().transport.duplicate_rate;
    if (!duplicable(type) || rate <= 0.0) return false;
    return ctx_.duplicate_rng().bernoulli(rate);
  }

  /// One-way point-to-point delay for `msg`: constant latency without a
  /// WAN model; under one, the size-aware control delay — or, for the
  /// job payload, Eq. 1's data volume over the bottleneck access link.
  [[nodiscard]] sim::SimTime delay_for(const core::Message& msg) const;

  /// Schedules `msg` to arrive at its destination after `delay`.
  void schedule_delivery(core::Message&& msg, sim::SimTime delay);

  /// The seed's point-to-point path: record, loss lottery, latency,
  /// deliver — plus the duplication lottery on the idempotent legs.
  /// DirectTransport is exactly this; TreeTransport uses it for every
  /// leg it does not carry over the overlay.
  void direct_unicast(core::Message&& msg);

  /// The multicast half of group addressing: maps each target to its
  /// participant's representative and dedups (first-seen order kept, so
  /// the wire order stays deterministic).  Identity without a registry.
  /// Idempotent over the AuctionPolicy's own representative mapping —
  /// the policy addresses representatives anyway because its book slots
  /// are per-participant — so this pass normally
  /// finds nothing to collapse; it exists so group addressing is a
  /// property of the substrate, enforced for every caller, not a
  /// convention each caller must re-implement.  O(targets) per
  /// multicast, and only in coalition runs (null registry returns the
  /// input span untouched).
  /// The returned span views scratch storage valid until the next call.
  [[nodiscard]] std::span<const cluster::ResourceIndex> collapse_groups(
      std::span<const cluster::ResourceIndex> targets);

  TransportContext& ctx_;
  std::optional<network::LatencyModel> wan_;
  const federation::ParticipantRegistry* groups_ = nullptr;
  std::vector<cluster::ResourceIndex> group_scratch_;
};

/// Builds the transport `options.kind` selects (the only place the kind
/// dispatch lives).
[[nodiscard]] std::unique_ptr<Transport> make_transport(
    TransportContext& ctx, std::optional<network::LatencyModel> wan);

}  // namespace gridfed::transport
