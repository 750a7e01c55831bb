#pragma once
// The Grid-Federation driver: owns the simulation engine, the clusters,
// the agents, the directory, the bank and the ledgers; feeds a workload;
// runs it to completion; and aggregates the per-job outcomes into a
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

#include <atomic>
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
#include "federation/shard_plan.hpp"
#include "membership/membership_service.hpp"
#include "obs/observer.hpp"
#include "sim/parallel.hpp"
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
  /// schedules every arrival.  May be called multiple times before run().
  void load_workload(const std::vector<workload::ResourceTrace>& traces,
                     std::optional<workload::PopulationProfile> profile);

  /// Runs the simulation until every accepted job has completed, then
  /// aggregates.  Call once.
  [[nodiscard]] FederationResult run();

  // ---- GfaHost ----------------------------------------------------------
  void send(Message&& msg) override;
  std::uint64_t multicast(Message&& msg,
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
  void award_declined(federation::ParticipantId provider) override {
    lane_auction_stats().record_decline(provider.value);
    GF_OBS(observer(), count_decline(provider.is_coalition()
                                         ? sites()
                                         : provider.value));
  }
  void guarantee_missed(federation::ParticipantId provider) override {
    lane_auction_stats().record_miss(provider.value);
    GF_OBS(observer(), count_miss(provider.is_coalition()
                                      ? sites()
                                      : provider.value));
  }
  /// One Observer per run, satisfying the seam on GfaHost,
  /// TransportContext and CoalitionContext at once.  Null when
  /// config.obs is all-off (the dark path) or the instrumentation is
  /// compiled out.  Under the parallel kernel each worker lane gets its
  /// own Observer (merged into the main one in sim order at run end), so
  /// GF_OBS sites never race across shards.
  [[nodiscard]] obs::Observer* observer() override {
#if GRIDFED_TRACE
    if (parallel_active()) {
      const int lane = sim::ParallelEngine::current_lane();
      if (lane >= 0) {
        return parallel_->lanes[static_cast<std::size_t>(lane)]
            .observer.get();
      }
    }
    return observer_.get();
#else
    return nullptr;
#endif
  }

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
    return messages_dropped_.load(std::memory_order_relaxed);
  }

  /// Worker shards the conservative-parallel kernel runs on: 0 when the
  /// run uses the seed's sequential engine (config.threads <= 1, a
  /// zero-lookahead network, or too few clusters to shard).
  [[nodiscard]] std::uint32_t parallel_shards() const noexcept {
    return parallel_ ? parallel_->plan.shards : 0;
  }
  /// Safe windows the parallel kernel executed (0 sequentially).
  [[nodiscard]] std::uint64_t parallel_windows() const noexcept {
    return parallel_ ? parallel_->engine->windows() : 0;
  }
  /// Events dispatched across every lane (== the sequential engine's
  /// count for the same run, up to boundary-tie scheduling).
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return parallel_ ? parallel_->engine->events_executed()
                     : sim_.events_executed();
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
  [[nodiscard]] FederationResult aggregate() const;

  // ---- conservative-parallel kernel (sim/parallel.hpp) -------------------
  /// One terminal job event deferred by a lane.  Settlement mutates the
  /// shared GridBank and the outcome vector, so the parallel run defers
  /// every terminal event and replays them in job-id order after the
  /// engine drains — a total order independent of the worker count and
  /// of the nondeterministic cross-shard completion interleaving, which
  /// keeps bank balances and outcome digests bitwise identical for every
  /// thread count.
  struct DeferredOutcome {
    JobOutcome outcome;
    sim::SimTime at = 0.0;  ///< lane clock at the terminal event
    bool accepted = false;
  };
  /// Mergeable per-worker-lane sinks.  The global lane writes the main
  /// ledger_/auction_stats_/observer_ directly; each shard lane gets its
  /// own copies here and they collapse into the main ones at run end
  /// (every column is a sum or a sim-time-sortable record stream).
  struct LaneState {
    explicit LaneState(std::size_t n_sites) : ledger(n_sites) {}
    MessageLedger ledger;
    stats::AuctionStats stats;
    std::vector<DeferredOutcome> deferred;
#if GRIDFED_TRACE
    std::unique_ptr<obs::Observer> observer;
#endif
  };
  struct ParallelRuntime {
    federation::ShardPlan plan;
    std::unique_ptr<sim::ParallelEngine> engine;
    std::vector<LaneState> lanes;  ///< one per shard
    std::vector<DeferredOutcome> global_deferred;
    /// Per-site lottery streams: concurrent shards must never race on
    /// the shared drop/dup generators, and a site's draw sequence (its
    /// own sends, in its own execution order) is worker-count-invariant.
    std::vector<sim::Rng> site_drop;
    std::vector<sim::Rng> site_dup;
    /// Set once the lane sinks merged into the main ones at run end;
    /// from then on the accessors read the main sinks only.
    bool collapsed = false;
  };

  [[nodiscard]] bool parallel_active() const noexcept {
    return parallel_ != nullptr && !parallel_->collapsed;
  }
  /// The engine lane that owns `site`'s agent and LRMS.
  [[nodiscard]] sim::Simulation& site_sim(std::size_t site) noexcept {
    if (parallel_ == nullptr) return sim_;
    return parallel_->engine->shard(parallel_->plan.shard_of[site]);
  }
  [[nodiscard]] MessageLedger& lane_ledger() noexcept;
  [[nodiscard]] stats::AuctionStats& lane_auction_stats() noexcept;
  /// The seed's job_completed body: coalition split / solo settlement,
  /// forensics, and the outcome append, stamped with sim-time `at`.
  void settle_completion(const JobOutcome& outcome, sim::SimTime at);
  /// The seed's job_rejected tail: stale-note cleanup + outcome append.
  void record_rejection(JobOutcome outcome);
  /// Replays every lane's deferred terminal events in job-id order.
  void apply_deferred();
#if GRIDFED_TRACE
  /// Ledger columns + gauges for one metrics sample, summed over every
  /// live lane ledger (the merged main ledger alone once collapsed).
  void fill_ledger_sample(obs::MetricsSample& sample);
#endif

  // ---- transport::TransportContext --------------------------------------
  // (config() and spec_of() above satisfy both interfaces.)  sim() is the
  // GLOBAL lane: everything the transports schedule through it directly
  // (tree flushes, repair replays) is centralized state that the parallel
  // kernel keeps on the coordinator.  Shard-originated wire traffic comes
  // through post_delivery / post_transport_op instead, which route by the
  // calling lane.
  [[nodiscard]] sim::Simulation& sim() override { return sim_; }
  [[nodiscard]] MessageLedger& ledger() override { return lane_ledger(); }
  [[nodiscard]] std::size_t sites() const override { return specs_.size(); }
  void deliver(const Message& msg) override;
  void message_dropped() override {
    messages_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] sim::Rng& drop_rng() override { return drop_rng_; }
  [[nodiscard]] sim::Rng& duplicate_rng() override { return dup_rng_; }
  [[nodiscard]] sim::Rng& drop_rng(cluster::ResourceIndex from) override;
  [[nodiscard]] sim::Rng& duplicate_rng(cluster::ResourceIndex from) override;
  /// Sequentially the message waits in the delivery slab (below) and
  /// the event captures only its slot; the parallel kernel's mailbox
  /// posts capture the message itself.
  void post_delivery(Message&& msg, sim::SimTime delay) override;
  /// Delivers the message parked in slab `slot` and frees the slot.
  void deliver_slot(std::uint32_t slot);
  void post_transport_op(cluster::ResourceIndex from,
                         sim::EventPriority priority,
                         sim::InlineFunction op) override;
  /// Ground truth for the transports: a crashed site's edges are down.
  /// Left members stay reachable endpoints (their in-flight work drains
  /// gracefully); membership off degenerates to the base's constant true.
  [[nodiscard]] bool site_up(cluster::ResourceIndex i) const override {
    return membership_ == nullptr || !membership_->crashed(i);
  }

  // ---- membership::MembershipContext --------------------------------------
  // (config(), sim(), sites() and observer() above satisfy this interface
  // too.)  The churn hooks apply ground truth the instant an event fires;
  // member_confirmed_dead applies the detection-driven consequences when
  // the gossip views converge on a genuine crash.
  void gossip_send(Message&& msg) override;
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
  /// The global (coordinator) lane — the seed's single engine, and the
  /// only engine at all when `parallel_` is null.
  sim::Simulation sim_;
  /// The sharded kernel runtime (null = sequential run).  Declared right
  /// after sim_ so the worker pool outlives every entity scheduled on
  /// its shard engines and is joined only after all of them are gone.
  std::unique_ptr<ParallelRuntime> parallel_;
  directory::FederationDirectory dir_;
  MessageLedger ledger_;
  economy::GridBank bank_;
  std::vector<std::unique_ptr<cluster::Lrms>> lrms_;
  std::vector<std::unique_ptr<Gfa>> gfas_;
  /// The delivery substrate; owns the WAN model.  Constructed after the
  /// agents (it delivers into them).
  std::unique_ptr<transport::Transport> transport_;
  /// The coalition extension (null unless config.coalitions.enabled in
  /// auction mode).  Constructed after the agents (joint bids and
  /// internal placement reach members through them).
  std::unique_ptr<coalition::CoalitionManager> coalitions_;
  /// The membership runtime (null when config.membership is inactive).
  /// Constructed after the transport — gossip rides its unicast legs.
  std::unique_ptr<membership::MembershipService> membership_;
  std::vector<economy::DynamicPricer> pricers_;
  std::vector<double> pricer_last_area_;

#if GRIDFED_TRACE
  /// The observability umbrella (null unless config.obs enables a
  /// facility).  Constructed before arm_periodic_behaviours() so the
  /// metrics sampler can be armed alongside the other periodic events.
  std::unique_ptr<obs::Observer> observer_;
#endif
  std::vector<JobOutcome> outcomes_;
  stats::AuctionStats auction_stats_;
  std::vector<double> util_at_window_;
  sim::Rng drop_rng_;
  sim::Rng dup_rng_;
  /// Delivery slab of the sequential engine: one slot per in-flight
  /// message, recycled through free_slots_.  A delivery may post more
  /// messages and grow the slab, so deliver_slot() moves its message out
  /// before delivering; no reference into the slab outlives a call.
  std::vector<Message> in_flight_;
  std::vector<std::uint32_t> free_slots_;
  /// Relaxed atomic: a pure total, bumped from concurrent shard lanes.
  std::atomic<std::uint64_t> messages_dropped_{0};
  cluster::JobId next_job_id_ = 1;
  std::uint64_t jobs_loaded_ = 0;
  bool ran_ = false;
};

}  // namespace gridfed::core
