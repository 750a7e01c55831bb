#pragma once
// Federation-wide configuration.  One FederationConfig fully determines a
// simulation run (together with the workload traces and the population
// profile), covering the three resource-sharing environments of the
// paper's evaluation and the extension toggles.

#include <cstdint>
#include <optional>

#include "cluster/lrms.hpp"
#include "coalition/coalition_config.hpp"
#include "economy/cost_model.hpp"
#include "economy/dynamic_pricing.hpp"
#include "market/auction_config.hpp"
#include "membership/membership_config.hpp"
#include "network/latency_model.hpp"
#include "obs/obs_config.hpp"
#include "sim/types.hpp"
#include "transport/transport_options.hpp"
#include "workload/calibration.hpp"
#include "workload/trace.hpp"

namespace gridfed::core {

/// The paper's three resource-sharing environments (§3.1) plus the market
/// extension's per-job reverse auction (market/).
enum class SchedulingMode : std::uint8_t {
  kIndependent,          ///< Experiment 1: no federation, local-only
  kFederationNoEconomy,  ///< Experiment 2: local first, then fastest-first
  kEconomy,              ///< Experiments 3-5: DBC superscheduling (OFC/OFT)
  kAuction,              ///< market extension: sealed-bid reverse auctions
};

[[nodiscard]] constexpr const char* to_string(SchedulingMode mode) noexcept {
  // Exhaustive: -Wswitch flags any mode added without a name here.
  switch (mode) {
    case SchedulingMode::kIndependent:
      return "independent";
    case SchedulingMode::kFederationNoEconomy:
      return "federation";
    case SchedulingMode::kEconomy:
      return "federation+economy";
    case SchedulingMode::kAuction:
      return "federation+auction";
  }
  __builtin_unreachable();
}

/// Everything that parameterizes one federation run.
struct FederationConfig {
  SchedulingMode mode = SchedulingMode::kEconomy;

  /// How owners charge (see economy/cost_model.hpp for why per-MI is the
  /// default).
  economy::CostModel cost_model = economy::CostModel::kPerMi;

  /// Eqs. 7/8 fabrication factors (2x in the paper).
  economy::QosFactors qos = {};

  /// Fraction of measured runtime that is communication (paper: 10%).
  double comm_fraction = workload::kDefaultCommFraction;

  /// QoS constraints the admission control actually enforces.  The paper
  /// enforces the deadline via negotiation and the budget via the quote.
  bool enforce_deadline = true;
  bool enforce_budget = true;

  /// LRMS dispatch discipline (FCFS in the paper; backfilling is X3).
  cluster::QueuePolicy queue_policy = cluster::QueuePolicy::kFcfs;

  /// Workload window; statistics (utilization) are evaluated at this
  /// horizon while jobs in flight run to completion.
  sim::SimTime window = workload::kTwoDays;

  /// One-way inter-GFA message latency in seconds (0 = the paper's
  /// instantaneous-negotiation assumption).  Ignored when `wan` is set.
  sim::SimTime network_latency = 0.0;

  /// WAN model extension: per-pair control latencies plus Eq. 1 payload
  /// transfer times; a migrated job's execution cannot start before its
  /// input data lands (the admission estimate accounts for it).  Unset =
  /// the paper's zero-cost network.
  std::optional<network::NetworkConfig> wan;

  /// Failure-injection extension: probability that a negotiate or reply
  /// message is lost in transit.  Payload transfers (job-submission and
  /// job-completion) are modelled as reliable (TCP-style retransmission);
  /// only the best-effort enquiry channel drops.  Requires
  /// negotiate_timeout > 0 when nonzero.
  double message_drop_rate = 0.0;

  /// How long a GFA waits for a negotiation reply before abandoning the
  /// enquiry and walking to the next rank; also bounds how long a remote
  /// GFA holds a negotiate-accept reservation awaiting the job payload
  /// (it cancels at 2x this value).  0 disables timeouts (the paper's
  /// lossless setting).
  sim::SimTime negotiate_timeout = 0.0;

  /// Coordination extension (paper §2.3 future work): GFAs periodically
  /// publish load hints; the rank walk skips sites hinted above the
  /// threshold.
  bool use_load_hints = false;
  double load_hint_threshold = 0.95;
  sim::SimTime load_hint_period = 600.0;

  /// Dynamic-pricing extension (paper §5 future work).
  bool dynamic_pricing = false;
  economy::DynamicPricingConfig pricing = {};

  /// Auction-mode knobs (only read when mode == kAuction).  A lossy
  /// network (message_drop_rate > 0) additionally requires
  /// auction.bid_timeout > 0 so a book missing a dropped bid still clears.
  market::AuctionConfig auction = {};

  /// Coalition extension (participant layer): latency-proximity groups
  /// of clusters bid as one participant, place awards internally and
  /// split the surplus (only read in auction mode).  Disabled = every
  /// participant is a singleton, bit-identical to the solo market.
  coalition::CoalitionConfig coalitions = {};

  /// Delivery substrate (transport/): kDirect reproduces the paper's
  /// point-to-point messaging bit-identically; kTree rides the
  /// call-for-bids fan-out over a k-ary overlay tree with epoch-batched
  /// dissemination and convergecast-aggregated bids.  In auction mode a
  /// nonzero bid_timeout must then also outlast the fan-out epoch.
  transport::TransportOptions transport = {};

  /// Dynamic membership (src/membership/): a gossip failure detector
  /// plus a scripted ChurnSchedule injecting join/leave/crash events
  /// mid-run.  Inactive (the default) keeps the static-roster path
  /// bit-identical to the seed: no gossip events, no extra RNG draws.
  /// When active, negotiate_timeout must be nonzero outside
  /// kIndependent (and auction.bid_timeout nonzero in auction mode):
  /// dead-provider recovery rides the timeout machinery.
  membership::MembershipOptions membership = {};

  /// Observability (src/obs/): sim-time tracing, the metrics
  /// time-series, and the auction forensics ledger.  All off by default;
  /// the dark path is bit-identical to a build without the subsystem
  /// (and GRIDFED_TRACE=0 compiles the instrumentation out entirely).
  obs::ObsConfig obs = {};

  /// Master seed for workload generation and population assignment.
  std::uint64_t seed = 0x9042005ULL;
};

}  // namespace gridfed::core
