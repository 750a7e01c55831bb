#pragma once
// The pluggable scheduling-policy layer.  The paper's DBC algorithm
// (§2.2) and the market extension's reverse auction are two instances of
// one negotiation skeleton — rank candidates, enquire, admit, fall back —
// and this layer makes the variable part (candidate ranking, admission
// scoring, fallback chaining) a swappable component, as mechanism-design
// treatments of federated scheduling assume it to be (Xie et al.'s
// mechanism-driven optimization, Guazzone et al.'s coalition formation).
//
// Division of labour:
//
//  * the GFA (core/gfa.hpp) stays the *protocol engine*: it routes
//    messages, parks in-flight enquiries, arms timeouts, holds remote
//    reservations, and keeps the ledger honest;
//  * a SchedulingPolicy decides *where a job goes next*: which directory
//    order to walk, which candidates to skip, when to run locally, when to
//    open an auction, and what to do when every avenue is exhausted.
//
// The engine hands a policy its services through SchedulerContext and
// never inspects mode-specific state: policies stash per-job extension
// state behind Pending::policy_state (core/pending.hpp).

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cluster/job.hpp"
#include "cluster/lrms.hpp"
#include "core/config.hpp"
#include "core/message.hpp"
#include "core/pending.hpp"
#include "directory/federation_directory.hpp"
#include "federation/participant.hpp"
#include "market/auction_engine.hpp"
#include "obs/observer.hpp"
#include "sim/simulation.hpp"

namespace gridfed::coalition {
class CoalitionManager;
}  // namespace gridfed::coalition

namespace gridfed::policy {

/// Protocol-engine services a policy schedules through.  Implemented by
/// core::Gfa; policies hold a reference and never outlive it.
class SchedulerContext {
 public:
  virtual ~SchedulerContext() = default;

  // -- identity and environment -------------------------------------------
  [[nodiscard]] virtual cluster::ResourceIndex self() const = 0;
  [[nodiscard]] virtual const core::FederationConfig& config() const = 0;
  [[nodiscard]] virtual const cluster::ResourceSpec& spec_of(
      cluster::ResourceIndex index) const = 0;
  [[nodiscard]] virtual directory::FederationDirectory& directory() = 0;
  [[nodiscard]] virtual cluster::Lrms& lrms() = 0;
  [[nodiscard]] virtual sim::Simulation& sim() = 0;
  [[nodiscard]] virtual sim::SimTime now() const = 0;
  /// Staging delay before `job`'s input data lands at `site` (WAN model).
  [[nodiscard]] virtual sim::SimTime payload_staging_time(
      const cluster::Job& job, cluster::ResourceIndex site) const = 0;
  /// The coalition layer of this run, or null when coalitions are
  /// disabled — in which case every participant is a singleton and
  /// participant_of() degenerates to the identity.
  [[nodiscard]] virtual coalition::CoalitionManager* coalitions() = 0;
  /// An empty buffer to fill with a batched kBid answer's asks.  It may
  /// carry the capacity of an answer already delivered (the host
  /// recycles those), so filling it usually allocates nothing.
  [[nodiscard]] virtual std::vector<core::BatchedBid> bid_buffer() = 0;

  // -- feasibility predicates ---------------------------------------------
  /// True when the local LRMS can complete `job` within its deadline.
  [[nodiscard]] virtual bool local_deadline_ok(
      const cluster::Job& job) const = 0;
  /// Static budget check computable from a directory quote alone.
  [[nodiscard]] virtual double cost_from_quote(
      const cluster::Job& job, const directory::Quote& quote) const = 0;

  // -- placement actions (each consumes the Pending) ----------------------
  /// Reserves on the local LRMS; `price` < 0 settles the posted-price
  /// cost, >= 0 settles that amount (an auction's cleared payment).
  virtual void execute_here(core::Pending p, double price) = 0;
  /// DBC admission enquiry: parks `p`, sends kNegotiate, arms the timeout.
  virtual void send_negotiate(core::Pending p,
                              cluster::ResourceIndex target) = 0;
  /// Auction award enquiry through the same seam (kAward + payment).
  virtual void send_award(core::Pending p, cluster::ResourceIndex target,
                          double payment) = 0;
  /// An award won by a coalition the origin itself represents: internal
  /// placement runs locally (no wire enquiry), then the payload ships
  /// straight to the chosen member — or, if every member declines, `p`
  /// is handed back through schedule() like a declined reply.
  virtual void place_in_coalition(core::Pending p,
                                  federation::ParticipantId coalition,
                                  double payment) = 0;
  /// Every avenue exhausted: report the rejection.
  virtual void reject(core::Pending p) = 0;

  // -- raw protocol services ----------------------------------------------
  /// Routes one message through the host (ledger + latency applied).
  virtual void send(core::Message&& msg) = 0;
  /// Routes one payload to every target through the host's transport
  /// (msg.to overwritten per target; `not_after` bounds transport-level
  /// fan-out batching).  Returns the wire messages charged immediately —
  /// see core::GfaHost::multicast.
  virtual std::uint64_t multicast(core::Message&& msg,
                                  std::span<const cluster::ResourceIndex>
                                      targets,
                                  sim::SimTime not_after) = 0;
  /// Auction telemetry sink (host's ClearingReport channel).
  virtual void auction_report(const market::ClearingReport& report) = 0;
  /// The observability umbrella, or null when disabled (GF_OBS sites
  /// branch on it; see obs/observer.hpp).
  [[nodiscard]] virtual obs::Observer* observer() { return nullptr; }
};

/// One scheduling mode's brain.  Constructed per GFA at wiring time; the
/// engine calls schedule() at submission and again whenever an enquiry
/// ends without a placement (decline or timeout), and routes the
/// auction-only message legs to on_call_for_bids()/on_bid().  The
/// constructor reads the context's fixed facts (self_, cfg_, lrms_)
/// once, so the context must already answer self(), config() and lrms()
/// when it builds its policy.
class SchedulingPolicy {
 public:
  explicit SchedulingPolicy(SchedulerContext& ctx)
      : ctx_(ctx), self_(ctx.self()), cfg_(ctx.config()), lrms_(ctx.lrms()) {}
  virtual ~SchedulingPolicy() = default;
  SchedulingPolicy(const SchedulingPolicy&) = delete;
  SchedulingPolicy& operator=(const SchedulingPolicy&) = delete;

  /// Drives `p` one step: place it locally, send an enquiry, open an
  /// auction, or reject — exactly one of which must eventually happen.
  virtual void schedule(core::Pending p) = 0;

  /// Amount settled when `exec` accepted the in-flight enquiry for `p`.
  /// Default: the posted-price cost of the executing cluster; auction
  /// awards override with the cleared payment.
  [[nodiscard]] virtual double settled_cost(const core::Pending& p,
                                            cluster::ResourceIndex exec) const;

  /// Auction-only protocol legs; the default ignores them (a stray
  /// call-for-bids at a non-auction GFA is dropped, not a crash).
  virtual void on_call_for_bids(const core::Message& msg);
  virtual void on_bid(const core::Message& msg);

  /// This cluster's solo sealed bid for `job` (provider-side pricing).
  /// The coalition layer aggregates member bids through this seam; the
  /// default is an unconditional infeasible bid (non-auction policies
  /// price nothing).
  [[nodiscard]] virtual market::Bid make_bid(const cluster::Job& job);

  /// Membership churn: this GFA's cluster crashed.  Hand every job the
  /// policy is holding in flight (open auction books) to `sink` and drop
  /// the machinery around them — armed timeouts must find nothing to act
  /// on afterwards.  Policies without job-holding state need nothing
  /// (the engine drains its own pending enquiries separately).
  virtual void drain_in_flight(
      const std::function<void(core::Pending)>& sink) {
    (void)sink;
  }

  /// Auction books currently open at this policy (the metrics layer's
  /// book-depth gauge; 0 for policies without a market).
  [[nodiscard]] virtual std::size_t open_auctions() const { return 0; }

 protected:
  SchedulerContext& ctx_;
  // Facts fixed for the agent's lifetime, read once at construction
  // instead of through a virtual call at every use.
  const cluster::ResourceIndex self_;  ///< ctx_.self()
  const core::FederationConfig& cfg_;  ///< ctx_.config()
  cluster::Lrms& lrms_;                ///< ctx_.lrms()
};

/// Builds the policy for `mode` (the only place mode dispatch survives).
[[nodiscard]] std::unique_ptr<SchedulingPolicy> make_policy(
    core::SchedulingMode mode, SchedulerContext& ctx);

}  // namespace gridfed::policy
