#pragma once
// GFA — the Grid Federation Agent (paper §2.0.3), the new RMS layer that
// turns an autonomous cluster into a federation member.  It is a two-layer
// system:
//
//  * the *distributed information manager* talks to the shared federation
//    directory (subscribe/quote/query) to discover the r-th
//    cheapest/fastest cluster for a job;
//  * the *resource manager* performs local superscheduling, runs the
//    admission-control negotiation with remote GFAs, and manages remote
//    jobs on the local LRMS.
//
// Since the policy extraction, the Gfa itself is only the *protocol
// engine*: it routes messages, parks in-flight enquiries and arms their
// timeouts, holds remote reservations between negotiate-accept and
// payload arrival, and keeps the per-job message accounting honest.  WHERE
// a job goes — the paper's DBC rank walk (§2.2), the no-economy
// fastest-first walk, the local-only baseline, or the market extension's
// sealed-bid reverse auction — is decided by a policy::SchedulingPolicy
// constructed from the configured mode (policy/scheduling_policy.hpp).
// The Gfa hands the policy its services by implementing
// policy::SchedulerContext, and the policy hands jobs back through the
// placement actions (execute_here / send_negotiate / send_award /
// reject).
//
// Admission control: the remote resource manager asks its LRMS for an
// exact completion-time estimate; on acceptance it *reserves* the
// processors immediately, which is what makes the returned guarantee
// binding even with nonzero message latency.

#include <cstdint>
#include <memory>
#include <span>

#include "cluster/lrms.hpp"
#include "coalition/coalition_manager.hpp"
#include "core/config.hpp"
#include "core/message.hpp"
#include "core/outcome.hpp"
#include "core/pending.hpp"
#include "directory/federation_directory.hpp"
#include "federation/participant.hpp"
#include "obs/observer.hpp"
#include "policy/scheduling_policy.hpp"
#include "sim/entity.hpp"
#include "sim/flat_map.hpp"

namespace gridfed::core {

/// Environment a GFA operates in, implemented by the Federation driver:
/// message routing, the peer catalog, configuration, and outcome sinks.
class GfaHost {
 public:
  virtual ~GfaHost() = default;

  /// Routes a message to its destination GFA (records it in the message
  /// ledger and applies the configured network latency).
  virtual void send(Message&& msg) = 0;

  /// Routes one payload to every target through the configured
  /// transport (msg.to is overwritten per target).  `not_after` bounds
  /// any fan-out batching the transport applies.  Returns the wire
  /// messages charged to the sender immediately (one per target on the
  /// direct transport; 0 on the tree, whose shared edge messages land
  /// in the ledger's relay counters).
  virtual std::uint64_t multicast(Message&& msg,
                                  std::span<const cluster::ResourceIndex>
                                      targets,
                                  sim::SimTime not_after) = 0;

  /// Resource description of any federation member.
  [[nodiscard]] virtual const cluster::ResourceSpec& spec_of(
      cluster::ResourceIndex index) const = 0;

  [[nodiscard]] virtual const FederationConfig& config() const = 0;

  /// Staging delay before `job`'s input data is available at `site`
  /// (0 without the WAN model or for the job's own origin).  The remote
  /// resource manager folds this into its admission estimate — a job
  /// cannot start before its data lands (Eq. 1).
  [[nodiscard]] virtual sim::SimTime payload_staging_time(
      const cluster::Job& job, cluster::ResourceIndex site) const = 0;

  /// A job finished (successfully scheduled earlier).
  virtual void job_completed(const JobOutcome& outcome) = 0;

  /// A job was dropped: no cluster in the federation could satisfy it.
  virtual void job_rejected(const cluster::Job& job,
                            std::uint32_t negotiations,
                            std::uint64_t messages) = 0;

  /// Auction-mode telemetry: one call per cleared book (kAuction only).
  virtual void auction_report(const market::ClearingReport& report) {
    (void)report;
  }

  /// The coalition layer of this run, or null when coalitions are off
  /// (every participant a singleton — the solo market).
  [[nodiscard]] virtual coalition::CoalitionManager* coalitions() {
    return nullptr;
  }

  /// An empty buffer for a batched kBid answer's asks.  The Federation
  /// hands out the cleared buffer of an answer it already delivered
  /// (capacity kept) when it has one; see
  /// policy::SchedulerContext::bid_buffer.
  [[nodiscard]] virtual std::vector<BatchedBid> bid_buffer() = 0;

  /// The observability umbrella of this run (obs/observer.hpp), or null
  /// when disabled.  Instrumentation goes through the GF_OBS macro, so
  /// the null path is a single branch per site.
  [[nodiscard]] virtual obs::Observer* observer() { return nullptr; }

  /// Reputation input signals (the reputation-weighted bidding
  /// follow-on attaches to participants): an award `provider` declined
  /// or let time out, and a completed job that missed the completion
  /// guarantee `provider` gave at admission.
  virtual void award_declined(federation::ParticipantId provider) {
    (void)provider;
  }
  virtual void guarantee_missed(federation::ParticipantId provider) {
    (void)provider;
  }
};

/// The Grid Federation Agent for one cluster: the protocol engine the
/// configured SchedulingPolicy schedules through.
class Gfa final : public sim::Entity, public policy::SchedulerContext {
 public:
  Gfa(sim::Simulation& sim, sim::EntityId id, cluster::ResourceIndex index,
      cluster::Lrms& lrms, directory::FederationDirectory& dir, GfaHost& host);

  [[nodiscard]] cluster::ResourceIndex index() const noexcept {
    return index_;
  }
  [[nodiscard]] const cluster::Lrms& lrms() const noexcept { return lrms_; }

  /// Entry point for the local user population: schedule this job per the
  /// configured mode.  Must be invoked at job.submit (the federation
  /// driver schedules the arrival event).
  void submit_local(cluster::Job job);

  /// Message delivery (called by the host's router).
  void receive(const Message& msg);

  /// Wired by the federation driver to the LRMS completion callback.
  void on_lrms_completion(const cluster::CompletedJob& done);

  /// Publishes the current instantaneous load into the directory (the
  /// §2.3 coordination extension; driven periodically by the federation).
  void publish_load_hint();

  /// Jobs this GFA accepted on behalf of remote GFAs (Table 3's "remote
  /// jobs processed" is derived from outcomes; this counter cross-checks).
  [[nodiscard]] std::uint64_t remote_jobs_accepted() const noexcept {
    return remote_accepted_;
  }

  // -- membership churn (driven by the Federation's churn hooks) ----------
  /// Fail-stop: this cluster crashed.  Every job the engine holds in
  /// flight dies with the machine — pending enquiries, open policy state
  /// (auction books), placed-and-awaiting jobs, and remote
  /// holds — and each of OUR origin jobs still produces exactly one
  /// (rejected) outcome; the run-level outcome accounting depends on it.
  /// Later arrivals from this cluster's users bounce until a rejoin.
  void on_crash();
  /// Graceful departure: in-flight work runs to completion, but new local
  /// submissions bounce and new remote admissions are refused.
  void on_leave();
  /// A kJoin churn event brought the cluster back (after a crash or a
  /// leave): lift the gates.  The engine's maps were drained at crash
  /// time, so the rejoin starts clean.
  void on_rejoin();
  /// The failure detector confirmed `peer` dead: abandon enquiries parked
  /// on it (the job resumes its policy walk) and re-schedule jobs placed
  /// there whose completion will never come (kJobsOrphaned).
  void on_peer_dead(cluster::ResourceIndex peer);
  [[nodiscard]] bool down() const noexcept { return down_; }
  [[nodiscard]] bool leaving() const noexcept { return leaving_; }

  /// The policy scheduling this agent's jobs (telemetry, tests).
  [[nodiscard]] const policy::SchedulingPolicy& scheduling_policy()
      const noexcept {
    return *policy_;
  }

 private:
  /// A reservation held on behalf of a remote GFA between negotiate-accept
  /// and payload arrival (cancelled if the payload never comes).  The
  /// token distinguishes successive reservations for the same job — a
  /// lossy network can re-deliver the enquiry after our reply was lost,
  /// and the superseded reservation's timeout must not touch the live
  /// hold.
  struct RemoteHold {
    cluster::Reservation reservation;
    std::uint64_t token = 0;
    bool submitted = false;
  };
  /// A scheduled job awaiting its completion notification.
  struct Awaiting {
    cluster::Job job;
    std::uint32_t negotiations = 0;
    std::uint64_t messages = 0;
    double cost = 0.0;
    cluster::ResourceIndex exec = 0;
    /// Completion guarantee given at admission (infinity when none was
    /// promised, e.g. local execution), compared at finalize for the
    /// guarantee-miss reputation signal.
    sim::SimTime promise = sim::kTimeInfinity;
    /// The promise came from an auction award (misses are booked only
    /// against awarded providers, keeping AuctionStats auction-only).
    bool via_award = false;
    /// The placement went through a coalition's internal dispatch (see
    /// JobOutcome::via_coalition — this gates the surplus split).
    bool via_coalition = false;
  };

  // -- policy::SchedulerContext -------------------------------------------
  [[nodiscard]] cluster::ResourceIndex self() const override {
    return index_;
  }
  [[nodiscard]] const FederationConfig& config() const override {
    return host_.config();
  }
  [[nodiscard]] const cluster::ResourceSpec& spec_of(
      cluster::ResourceIndex index) const override {
    return host_.spec_of(index);
  }
  [[nodiscard]] directory::FederationDirectory& directory() override {
    return dir_;
  }
  [[nodiscard]] cluster::Lrms& lrms() override { return lrms_; }
  [[nodiscard]] sim::Simulation& sim() override { return simulation(); }
  [[nodiscard]] sim::SimTime now() const noexcept override {
    return Entity::now();
  }
  [[nodiscard]] sim::SimTime payload_staging_time(
      const cluster::Job& job, cluster::ResourceIndex site) const override {
    return host_.payload_staging_time(job, site);
  }
  /// True when this cluster can complete the job within its deadline.
  [[nodiscard]] bool local_deadline_ok(
      const cluster::Job& job) const override;
  /// Cost of running `job` on the cluster advertised by `quote` (uses only
  /// information the quote carries — this is the static budget check a GFA
  /// can do without any negotiation).
  [[nodiscard]] double cost_from_quote(
      const cluster::Job& job, const directory::Quote& quote) const override;
  /// Reserves the job on the local LRMS and records it as awaiting.  The
  /// settled amount is the posted-price cost unless `price` >= 0 overrides
  /// it (auction self-award: the cleared payment).
  void execute_here(Pending p, double price) override;
  void send_negotiate(Pending p, cluster::ResourceIndex target) override;
  void send_award(Pending p, cluster::ResourceIndex target,
                  double payment) override;
  void place_in_coalition(Pending p, federation::ParticipantId coalition,
                          double payment) override;
  void reject(Pending p) override;
  [[nodiscard]] coalition::CoalitionManager* coalitions() override {
    return host_.coalitions();
  }
  [[nodiscard]] std::vector<BatchedBid> bid_buffer() override {
    return host_.bid_buffer();
  }
  void send(Message&& msg) override { host_.send(std::move(msg)); }
  std::uint64_t multicast(Message&& msg,
                          std::span<const cluster::ResourceIndex> targets,
                          sim::SimTime not_after) override {
    return host_.multicast(std::move(msg), targets, not_after);
  }
  void auction_report(const market::ClearingReport& report) override {
    host_.auction_report(report);
  }
  [[nodiscard]] obs::Observer* observer() override {
    return host_.observer();
  }

  // -- enquiry seam (DBC negotiate + auction award) -----------------------
  /// Shared enquiry plumbing: parks the job in pending_, sends `type`
  /// (kNegotiate or kAward) to `target`, and arms the reply timeout when
  /// the config enables it.  Replies resume in handle_reply.
  void park_enquiry(Pending p, cluster::ResourceIndex target,
                    MessageType type, double price);
  /// Fires when no reply arrived in time: abandon the enquiry, hand the
  /// job back to the policy.
  void on_negotiate_timeout(cluster::JobId id, std::uint64_t attempt);
  /// Fires when a held reservation saw no payload: cancel it.  `token`
  /// pins the timeout to the reservation it was armed for.
  void on_hold_timeout(cluster::JobId id, std::uint64_t token);

  // -- message handlers ----------------------------------------------------
  void handle_reply(const Message& msg);
  void handle_submission(const Message& msg);
  void handle_completion(const Message& msg);

  /// Provider-side admission shared by kNegotiate and kAward: exact LRMS
  /// estimate, reserve on acceptance, answer with a kReply.  A kAward
  /// addressed to a coalition this cluster represents instead places the
  /// job internally (best member guarantee) and answers for the group.
  void admit_and_reply(const Message& msg);

 public:
  /// The reserve-and-hold half of admission, wire-reply-free: exact LRMS
  /// estimate for `job`, reservation + remote hold on acceptance.
  /// Returns the completion guarantee, or sim::kTimeInfinity on
  /// rejection.  Called for wire enquiries by admit_and_reply and for
  /// intra-coalition placement by the federation driver on behalf of the
  /// coalition manager (the member-side admission of a group award).
  sim::SimTime admit_remote(const cluster::Job& job);

  /// This cluster's solo sealed bid for `job` (the policy's pricing);
  /// the coalition manager aggregates member bids through this.
  [[nodiscard]] market::Bid provider_bid(const cluster::Job& job) {
    return policy_->make_bid(job);
  }

 private:
  /// The participant `resource` acts as (its singleton without a
  /// coalition layer) — reputation signals attach to participants.
  [[nodiscard]] federation::ParticipantId participant_of(
      cluster::ResourceIndex resource) const;

  void finalize(cluster::JobId id, cluster::ResourceIndex exec,
                sim::SimTime start, sim::SimTime completion);

  cluster::ResourceIndex index_;
  cluster::Lrms& lrms_;
  directory::FederationDirectory& dir_;
  GfaHost& host_;
  /// The configured mode's brain (constructed last: it schedules through
  /// the members above, and its constructor already reads self(),
  /// config(), lrms() and coalitions() through them).
  std::unique_ptr<policy::SchedulingPolicy> policy_;

  sim::FlatMap<cluster::JobId, Pending> pending_;
  sim::FlatMap<cluster::JobId, Awaiting> awaiting_;
  sim::FlatMap<cluster::JobId, RemoteHold> holds_;
  std::uint64_t next_hold_token_ = 0;
  std::uint64_t remote_accepted_ = 0;
  bool down_ = false;     ///< crashed (kCrash churn); lifts on rejoin
  bool leaving_ = false;  ///< departing gracefully (kLeave churn)
};

}  // namespace gridfed::core
