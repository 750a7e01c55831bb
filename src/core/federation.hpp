#pragma once
// The Grid-Federation driver: owns the simulation engine, the clusters,
// the agents, the directory, the bank and the ledgers; feeds a workload,
// streaming each job's arrival into the event list as the clock reaches
// it; runs it to completion; and aggregates the per-job outcomes into a
// FederationResult.
//
// Typical use (this is the public API the examples exercise):
//
// ```
// auto specs = cluster::table1_specs();
// core::FederationConfig cfg;                       // economy mode
// core::Federation fed(cfg, specs);
// auto traces = workload::generate_federation_workload(specs, cfg.window,
//                                                      cfg.seed);
// fed.load_workload(traces, workload::PopulationProfile{30});
// core::FederationResult result = fed.run();
// ```

#include <memory>
#include <optional>
#include <vector>

#include "cluster/lrms.hpp"
#include "coalition/coalition_manager.hpp"
#include "core/config.hpp"
#include "core/gfa.hpp"
#include "core/message.hpp"
#include "core/outcome.hpp"
#include "core/result.hpp"
#include "directory/federation_directory.hpp"
#include "economy/dynamic_pricing.hpp"
#include "economy/grid_bank.hpp"
#include "membership/membership_service.hpp"
#include "obs/observer.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "stats/auction_stats.hpp"
#include "transport/transport.hpp"
#include "workload/population.hpp"
#include "workload/trace.hpp"

namespace gridfed::core {

/// One federation instance: construction wires every entity, subscribes
/// quotes, and arms the periodic extension behaviours the config enables.
/// Message delivery is delegated to the configured transport
/// (config.transport.kind); the Federation is the transport's
/// environment (transport::TransportContext) and its delivery sink.
class Federation final : public GfaHost,
                         private transport::TransportContext,
                         private coalition::CoalitionContext,
                         private membership::MembershipContext {
 public:
  Federation(FederationConfig config,
             std::vector<cluster::ResourceSpec> specs);
  ~Federation() override;
  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  /// Converts raw traces into federation jobs (Eqs. 1-3 split, Eqs. 7/8
  /// QoS fabrication), applies the population profile (economy runs), and
  /// queues them in arrival order; nothing is scheduled until run().  May
  /// be called multiple times before run().
  void load_workload(const std::vector<workload::ResourceTrace>& traces,
                     std::optional<workload::PopulationProfile> profile);

  /// Streams the loaded jobs in as the clock reaches each submit time,
  /// runs the simulation until every accepted job has completed, then
  /// aggregates.  Call once.
  [[nodiscard]] FederationResult run();

  // ---- GfaHost ----------------------------------------------------------
  /// compose() and send() satisfy both GfaHost and MembershipContext: the
  /// agents' messages and the membership digests take the one send path.
  [[nodiscard]] Outgoing compose(MessageType type, cluster::ResourceIndex from,
                                 cluster::ResourceIndex to,
                                 const cluster::Job& job) override {
    return transport_->compose(type, from, to, job);
  }
  void send(Outgoing msg) override;
  std::uint64_t multicast(Outgoing msg,
                          std::span<const cluster::ResourceIndex> targets,
                          sim::SimTime not_after) override;
  /// Satisfies both GfaHost and TransportContext.
  [[nodiscard]] const cluster::ResourceSpec& spec_of(
      cluster::ResourceIndex index) const override;
  [[nodiscard]] const FederationConfig& config() const override {
    return cfg_;
  }
  [[nodiscard]] sim::SimTime payload_staging_time(
      const cluster::Job& job, cluster::ResourceIndex site) const override;
  void job_completed(const JobOutcome& outcome) override;
  void job_rejected(const cluster::Job& job, std::uint32_t negotiations,
                    std::uint64_t messages) override;
  void auction_report(const market::ClearingReport& report) override;
  /// The coalition layer of this run (null with the extension disabled:
  /// every participant is a singleton and the market runs solo,
  /// bit-identical to the pre-participant code).
  [[nodiscard]] coalition::CoalitionManager* coalitions() override {
    return coalitions_.get();
  }
  [[nodiscard]] std::vector<BatchedBid> bid_buffer() override {
    return transport_->bid_buffer();
  }
  void award_declined(federation::ParticipantId provider) override {
    auction_stats_.record_decline(provider.value);
    GF_OBS(observer(), count_decline(provider.is_coalition()
                                         ? sites()
                                         : provider.value));
  }
  void guarantee_missed(federation::ParticipantId provider) override {
    auction_stats_.record_miss(provider.value);
    GF_OBS(observer(), count_miss(provider.is_coalition()
                                      ? sites()
                                      : provider.value));
  }
  /// The run's one Observer, or null when config.obs is all-off (the
  /// dark path).  Every instrumented layer got the same pointer at
  /// construction; this accessor is for the callers that read the
  /// artifacts after the run.
  [[nodiscard]] obs::Observer* observer() noexcept { return observer_.get(); }

  // ---- introspection (examples, tests) -----------------------------------
  [[nodiscard]] std::size_t size() const noexcept { return gfas_.size(); }
  [[nodiscard]] sim::Simulation& simulation() noexcept { return sim_; }
  [[nodiscard]] Gfa& gfa(cluster::ResourceIndex i);
  [[nodiscard]] cluster::Lrms& lrms(cluster::ResourceIndex i);
  [[nodiscard]] const directory::FederationDirectory& directory()
      const noexcept {
    return dir_;
  }
  [[nodiscard]] const economy::GridBank& bank() const noexcept {
    return bank_;
  }
  [[nodiscard]] const MessageLedger& ledger() const noexcept {
    return ledger_;
  }
  /// The delivery substrate this run was wired with (tests inspect the
  /// tree topology through it).
  [[nodiscard]] const transport::Transport& transport() const noexcept {
    return *transport_;
  }
  /// Raw per-job outcomes (accepted and rejected) after run().
  [[nodiscard]] const std::vector<JobOutcome>& outcomes() const noexcept {
    return outcomes_;
  }

  /// Messages lost to the failure-injection channel (0 unless
  /// config.message_drop_rate > 0).
  [[nodiscard]] std::uint64_t messages_dropped() const noexcept {
    return messages_dropped_;
  }

  /// Events the simulation engine dispatched.
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return sim_.events_executed();
  }

  /// Per-auction accumulators (all-zero outside kAuction runs).
  [[nodiscard]] const stats::AuctionStats& auction_stats() const noexcept {
    return auction_stats_;
  }

  /// The membership runtime of this run, or null when
  /// config.membership.active() is false (static membership — the
  /// bit-identical golden path).
  [[nodiscard]] const membership::MembershipService* membership()
      const noexcept {
    return membership_.get();
  }

 private:
  void arm_periodic_behaviours();
  /// Schedules the next loaded job's arrival event, which submits it at
  /// its home agent and arms the one after.
  void arm_arrival();
  [[nodiscard]] FederationResult aggregate() const;

  // ---- transport::TransportContext --------------------------------------
  // (config() and spec_of() above satisfy both interfaces.)
  [[nodiscard]] sim::Simulation& sim() override { return sim_; }
  [[nodiscard]] MessageLedger& ledger() override { return ledger_; }
  [[nodiscard]] std::size_t sites() const override { return specs_.size(); }
  void deliver(const Message& msg) override;
  void message_dropped() override { ++messages_dropped_; }
  [[nodiscard]] sim::Rng& drop_rng() override { return drop_rng_; }
  [[nodiscard]] sim::Rng& duplicate_rng() override { return dup_rng_; }
  /// Ground truth for the transports: a crashed site's edges are down.
  /// Left members stay reachable endpoints (their in-flight work drains
  /// gracefully); membership off degenerates to the base's constant true.
  [[nodiscard]] bool site_up(cluster::ResourceIndex i) const override {
    return membership_ == nullptr || !membership_->crashed(i);
  }

  // ---- membership::MembershipContext --------------------------------------
  // (config(), sim(), sites(), compose() and send() above satisfy this
  // interface too.)  The churn hooks apply ground truth the instant an
  // event fires; member_confirmed_dead applies the detection-driven
  // consequences when the gossip views converge on a genuine crash.
  void churn_join(cluster::ResourceIndex site) override;
  void churn_leave(cluster::ResourceIndex site) override;
  void churn_crash(cluster::ResourceIndex site) override;
  void member_confirmed_dead(cluster::ResourceIndex site) override;

  // ---- coalition::CoalitionContext ---------------------------------------
  // (sites() and spec_of() above satisfy this interface too.)  The
  // manager reaches each member's per-cluster machinery through the
  // owning agent: its solo pricing for joint bids, and the reserve-and-
  // hold half of admission for internal placement.
  [[nodiscard]] market::Bid member_bid(cluster::ResourceIndex member,
                                       const cluster::Job& job) override;
  sim::SimTime member_admit(cluster::ResourceIndex member,
                            const cluster::Job& job) override;

  FederationConfig cfg_;
  std::vector<cluster::ResourceSpec> specs_;
  sim::Simulation sim_;
  directory::FederationDirectory dir_;
  MessageLedger ledger_;
  economy::GridBank bank_;
  std::vector<std::unique_ptr<cluster::Lrms>> lrms_;
  std::vector<std::unique_ptr<Gfa>> gfas_;
  /// The delivery substrate; owns the WAN model.  Constructed after the
  /// agents (it delivers into them).
  std::unique_ptr<transport::Transport> transport_;
  /// The coalition extension (null unless config.coalitions.enabled in
  /// auction mode).  Constructed before the agents: each auction policy
  /// keeps the pointer from its constructor on.  Joint bids and internal
  /// placement reach the members through the agents, but only once the
  /// run is under way.
  std::unique_ptr<coalition::CoalitionManager> coalitions_;
  /// The membership runtime (null when config.membership is inactive).
  /// Constructed after the transport — gossip rides its unicast legs.
  std::unique_ptr<membership::MembershipService> membership_;
  std::vector<economy::DynamicPricer> pricers_;
  std::vector<double> pricer_last_area_;

  /// The observability umbrella (null unless config.obs enables a
  /// facility).  Constructed before every other layer, which each keep
  /// the pointer, and before arm_periodic_behaviours() so the metrics
  /// sampler can be armed alongside the other periodic events.
  std::unique_ptr<obs::Observer> observer_;
  std::vector<JobOutcome> outcomes_;
  stats::AuctionStats auction_stats_;
  std::vector<double> util_at_window_;
  sim::Rng drop_rng_;
  sim::Rng dup_rng_;
  std::uint64_t messages_dropped_ = 0;
  /// Every loaded job in (submit, id) order; ids follow load order, so
  /// jobs sharing an instant arrive in load order.  run() streams them
  /// through one kArrival event at a time, the only users of that
  /// priority class, and frees the vector after the last arrival.
  std::vector<cluster::Job> arrivals_;
  std::uint64_t next_arrival_ = 0;  ///< arrivals dispatched so far
  cluster::JobId next_job_id_ = 1;
  std::uint64_t jobs_loaded_ = 0;
  bool ran_ = false;
};

}  // namespace gridfed::core
