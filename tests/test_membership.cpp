// Membership-churn suite: the gossip failure detector, the scripted
// churn schedule, and the federation-wide consequences of mid-run
// membership change.  Pins, in order:
//
//  * MembershipView merge/staleness semantics (the SWIM-flavoured unit
//    surface: incarnation precedence, sticky terminal verdicts,
//    self-refutation);
//  * the static-membership golden path: churn off reproduces the seed
//    digests bit-identically for all four scheduling modes, and pure
//    gossip dissemination (enabled, empty schedule) is outcome-
//    invisible — only the wire ledger sees the digests;
//  * graceful degradation under a crash sweep: every loaded job still
//    terminates exactly once, the bank balances, and each crashed
//    cluster costs at most its proportional share of acceptance
//    (within 5 points);
//  * TreeTransport self-repair: a confirmed-dead interior relay is
//    excised, retained solicitations replay over the repaired
//    topology, and the replay cost reconciles with the message ledger;
//  * coalition re-formation: a crashed representative is replaced by
//    the survivor first in ring order, a rejoiner re-enters at the
//    bucket rule, and every re-formation passes the individual-
//    rationality probe;
//  * construction-time validation of the membership/timeout knobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "cluster/catalog.hpp"
#include "core/experiment.hpp"
#include "core/outcome.hpp"
#include "membership/membership_view.hpp"
#include "sim/check.hpp"
#include "transport/tree_transport.hpp"
#include "workload/synthetic.hpp"

namespace gridfed {
namespace {

using membership::ChurnEvent;
using membership::ChurnKind;
using membership::GossipRecord;
using membership::MembershipView;
using membership::MemberStatus;

// ---- MembershipView unit surface -------------------------------------------

TEST(MembershipView, StalenessSuspectsThenDeclaresDead)
{
  MembershipView view(4, 0);
  std::vector<MembershipView::Transition> transitions;
  const std::uint32_t suspect_after = 4;
  const std::uint32_t dead_after = 3;
  // Member 1 heartbeats through round 2, then goes silent; 2 and 3 keep
  // beating (their records keep arriving).
  for (std::uint64_t round = 1; round <= 12; ++round) {
    view.beat(round);
    if (round <= 2) {
      (void)view.merge_record(GossipRecord{1, 0, round, MemberStatus::kAlive},
                              round, transitions);
    }
    (void)view.merge_record(GossipRecord{2, 0, round, MemberStatus::kAlive},
                            round, transitions);
    (void)view.merge_record(GossipRecord{3, 0, round, MemberStatus::kAlive},
                            round, transitions);
    view.advance(round, suspect_after, dead_after, transitions);
  }
  // Stale since round 2: suspect once stale > 4 (round 7), dead once
  // stale > 7 (round 10).
  EXPECT_EQ(view.status(1), MemberStatus::kDead);
  EXPECT_EQ(view.status(2), MemberStatus::kAlive);
  EXPECT_EQ(view.status(3), MemberStatus::kAlive);
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0],
            (MembershipView::Transition{1, MemberStatus::kSuspect}));
  EXPECT_EQ(transitions[1],
            (MembershipView::Transition{1, MemberStatus::kDead}));
}

TEST(MembershipView, FresherHeartbeatLiftsSuspicionButNotDeath) {
  MembershipView view(3, 0);
  std::vector<MembershipView::Transition> transitions;
  // Locally suspected at the same incarnation...
  (void)view.merge_record(GossipRecord{1, 0, 1, MemberStatus::kSuspect}, 1,
                          transitions);
  EXPECT_EQ(view.status(1), MemberStatus::kSuspect);
  // ...a fresher heartbeat refutes the suspicion...
  (void)view.merge_record(GossipRecord{1, 0, 2, MemberStatus::kAlive}, 2,
                          transitions);
  EXPECT_EQ(view.status(1), MemberStatus::kAlive);
  // ...but a dead verdict is sticky per incarnation: no heartbeat at the
  // same incarnation undoes it.
  (void)view.merge_record(GossipRecord{1, 0, 3, MemberStatus::kDead}, 3,
                          transitions);
  (void)view.merge_record(GossipRecord{1, 0, 9, MemberStatus::kAlive}, 4,
                          transitions);
  EXPECT_EQ(view.status(1), MemberStatus::kDead);
  // Only a higher incarnation (the member rejoining) overrides.
  (void)view.merge_record(GossipRecord{1, 1, 1, MemberStatus::kAlive}, 5,
                          transitions);
  EXPECT_EQ(view.status(1), MemberStatus::kAlive);
  EXPECT_EQ(view.incarnation(1), 1u);
}

TEST(MembershipView, SelfRefutesRumoredDeath) {
  MembershipView view(3, 1);
  std::vector<MembershipView::Transition> transitions;
  view.beat(1);
  // A rumor of our own death at our current incarnation: refute by
  // bumping the incarnation (the only writer of it is ourselves).
  EXPECT_TRUE(view.merge_record(GossipRecord{1, 0, 0, MemberStatus::kDead},
                                2, transitions));
  EXPECT_EQ(view.status(1), MemberStatus::kAlive);
  EXPECT_EQ(view.incarnation(1), 1u);
  // A stale rumor below our incarnation changes nothing.
  EXPECT_FALSE(view.merge_record(GossipRecord{1, 0, 0, MemberStatus::kDead},
                                 3, transitions));
  EXPECT_EQ(view.incarnation(1), 1u);
}

TEST(MembershipView, MergeIsCommutativeOnStatusRank) {
  // dead > left > suspect > alive at equal incarnation, any arrival
  // order.
  std::vector<GossipRecord> records = {
      GossipRecord{1, 0, 5, MemberStatus::kAlive},
      GossipRecord{1, 0, 3, MemberStatus::kLeft},
      GossipRecord{1, 0, 4, MemberStatus::kDead},
  };
  std::sort(records.begin(), records.end(),
            [](const GossipRecord& a, const GossipRecord& b) {
              return a.heartbeat < b.heartbeat;
            });
  do {
    MembershipView view(2, 0);
    std::vector<MembershipView::Transition> transitions;
    (void)view.merge(records, 1, transitions);
    EXPECT_EQ(view.status(1), MemberStatus::kDead);
    EXPECT_EQ(view.heartbeat(1), 5u);
  } while (std::next_permutation(
      records.begin(), records.end(),
      [](const GossipRecord& a, const GossipRecord& b) {
        return a.heartbeat < b.heartbeat;
      }));
}

// ---- run helpers ------------------------------------------------------------

/// Checks the exactly-once contract on a finished federation and
/// returns the outcome hash.
std::uint64_t expect_exactly_once(const core::Federation& fed,
                                  std::uint64_t loaded) {
  EXPECT_EQ(fed.outcomes().size(), loaded);
  std::set<cluster::JobId> seen;
  for (const auto& o : fed.outcomes()) {
    EXPECT_TRUE(seen.insert(o.job.id).second) << "job " << o.job.id;
  }
  return core::outcome_digest(fed.outcomes());
}

struct ChurnRun {
  std::uint64_t hash = 0;
  std::uint64_t loaded = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  bool balanced = false;
  membership::MembershipService::Telemetry tel;
  std::uint64_t gossip_on_wire = 0;
};

/// Runs `cfg` on `n` replicated clusters with the standard synthetic
/// workload and returns the common churn facts.  `inspect` (optional)
/// sees the finished federation for suite-specific assertions.
template <typename Inspect = void (*)(core::Federation&)>
ChurnRun churn_run(
    const core::FederationConfig& cfg, std::size_t n, std::uint32_t oft,
    Inspect inspect = [](core::Federation&) {}) {
  auto specs = cluster::replicated_specs(n);
  core::Federation fed(cfg, specs);
  const auto traces =
      workload::generate_federation_workload(specs, cfg.window, cfg.seed);
  std::uint64_t loaded = 0;
  for (const auto& t : traces) loaded += t.jobs.size();
  std::optional<workload::PopulationProfile> profile;
  if (cfg.mode == core::SchedulingMode::kEconomy ||
      cfg.mode == core::SchedulingMode::kAuction) {
    profile = workload::PopulationProfile{oft};
  }
  fed.load_workload(traces, profile);
  const auto result = fed.run();
  ChurnRun run;
  run.loaded = loaded;
  run.accepted = result.total_accepted;
  run.rejected = result.total_rejected;
  run.balanced = fed.bank().balanced();
  run.hash = expect_exactly_once(fed, loaded);
  run.gossip_on_wire =
      std::as_const(fed).ledger().count_of(core::MessageType::kGossip);
  if (fed.membership() != nullptr) run.tel = fed.membership()->telemetry();
  inspect(fed);
  return run;
}

/// Timeouts generous enough for every transport/mode combination the
/// suite exercises (the tree's bid-timeout bound is hop- and
/// epoch-aware).
core::FederationConfig churn_config(core::SchedulingMode mode,
                                    std::uint64_t seed = 0x9042005ULL) {
  auto cfg = core::make_config(mode, seed);
  cfg.negotiate_timeout = 200.0;
  cfg.network_latency = 1.0;
  cfg.auction.bid_timeout = 200.0;
  cfg.membership.enabled = true;
  return cfg;
}

void crash_at(core::FederationConfig& cfg, sim::SimTime t,
              cluster::ResourceIndex site) {
  cfg.membership.churn.events.push_back(
      ChurnEvent{t, site, ChurnKind::kCrash});
}

// ---- the static-membership golden path --------------------------------------
// Same goldens as tests/test_policy.cpp and tests/test_transport.cpp:
// with churn off the membership layer must not exist at all (no gossip
// events, no extra RNG draws, bit-identical outcomes).

TEST(StaticMembership, IndependentReproducesSeed) {
  auto cfg = core::make_config(core::SchedulingMode::kIndependent);
  ASSERT_FALSE(cfg.membership.active());
  const auto run = churn_run(cfg, 8, 0, [](core::Federation& fed) {
    EXPECT_EQ(fed.membership(), nullptr);
  });
  EXPECT_EQ(run.hash, 0x6ec2c1006e3a08ebULL);
}

TEST(StaticMembership, NoEconomyReproducesSeed) {
  const auto run = churn_run(
      core::make_config(core::SchedulingMode::kFederationNoEconomy), 8, 0);
  EXPECT_EQ(run.hash, 0xbaf2d890e647929cULL);
}

TEST(StaticMembership, DbcReproducesSeed) {
  const auto run =
      churn_run(core::make_config(core::SchedulingMode::kEconomy), 8, 30);
  EXPECT_EQ(run.hash, 0x2514c40b32638affULL);
}

TEST(StaticMembership, AuctionReproducesSeed) {
  const auto run =
      churn_run(core::make_config(core::SchedulingMode::kAuction), 8, 30);
  EXPECT_EQ(run.hash, 0xade2c15285cc51f7ULL);
}

TEST(StaticMembership, GossipAloneIsOutcomeInvisible) {
  // Membership enabled with an EMPTY churn schedule: the anti-entropy
  // rounds ride the wire (the ledger must see them) but perturb no
  // job outcome — detection without churn decides nothing.
  auto off = churn_config(core::SchedulingMode::kAuction);
  off.membership.enabled = false;
  auto on = churn_config(core::SchedulingMode::kAuction);
  const auto base = churn_run(off, 8, 30);
  const auto gossiping = churn_run(on, 8, 30);
  EXPECT_EQ(base.gossip_on_wire, 0u);
  EXPECT_GT(gossiping.gossip_on_wire, 0u);
  EXPECT_GT(gossiping.tel.rounds, 0u);
  EXPECT_EQ(gossiping.tel.suspicions, 0u);  // nobody actually failed
  EXPECT_EQ(gossiping.tel.confirmations, 0u);
  EXPECT_EQ(gossiping.hash, base.hash);
  EXPECT_EQ(gossiping.accepted, base.accepted);
  // Exact wire accounting: every digest the service sent is in the
  // ledger, once.
  EXPECT_EQ(gossiping.gossip_on_wire, gossiping.tel.gossip_messages);
}

// ---- graceful degradation under a crash sweep -------------------------------

TEST(ChurnSweep, CrashesDegradeAcceptanceProportionally) {
  // k = 0, 1, 2 crashed clusters out of 8 (up to 25% loss).  Every
  // loaded job must still terminate exactly once, the bank must stay
  // balanced, and acceptance may lose at most each dead cluster's
  // proportional share plus 5 points.
  std::vector<ChurnRun> runs;
  for (int k = 0; k <= 2; ++k) {
    auto cfg = churn_config(core::SchedulingMode::kAuction);
    if (k >= 1) crash_at(cfg, 40000.0, 2);
    if (k >= 2) crash_at(cfg, 90000.0, 5);
    runs.push_back(churn_run(cfg, 8, 30));
  }
  for (int k = 0; k <= 2; ++k) {
    EXPECT_TRUE(runs[k].balanced) << "k=" << k;
    EXPECT_EQ(runs[k].accepted + runs[k].rejected, runs[k].loaded)
        << "k=" << k;
    EXPECT_EQ(runs[k].tel.confirmations, static_cast<std::uint64_t>(k))
        << "k=" << k;
    EXPECT_EQ(runs[k].tel.churn_applied, static_cast<std::uint64_t>(k))
        << "k=" << k;
  }
  const auto acceptance = [](const ChurnRun& run) {
    return 100.0 * static_cast<double>(run.accepted) /
           static_cast<double>(run.loaded);
  };
  for (int k = 1; k <= 2; ++k) {
    EXPECT_GE(acceptance(runs[k]),
              acceptance(runs[0]) - (100.0 * k / 8.0 + 5.0))
        << "k=" << k;
    EXPECT_LT(acceptance(runs[k]), acceptance(runs[0])) << "k=" << k;
  }
}

TEST(ChurnSweep, ReplayIsDeterministic) {
  auto cfg = churn_config(core::SchedulingMode::kAuction);
  crash_at(cfg, 40000.0, 2);
  crash_at(cfg, 90000.0, 5);
  const auto a = churn_run(cfg, 8, 30);
  const auto b = churn_run(cfg, 8, 30);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.gossip_on_wire, b.gossip_on_wire);
  EXPECT_EQ(a.tel.suspicions, b.tel.suspicions);
  EXPECT_EQ(a.tel.confirmations, b.tel.confirmations);
}

TEST(ChurnSweep, CooperativeLeaveDrainsGracefully) {
  auto cfg = churn_config(core::SchedulingMode::kAuction);
  cfg.membership.churn.events.push_back(
      ChurnEvent{40000.0, 3, ChurnKind::kLeave});
  const auto run =
      churn_run(cfg, 8, 30, [](core::Federation& fed) {
        EXPECT_TRUE(fed.gfa(3).leaving());
        EXPECT_FALSE(fed.gfa(3).down());
        // Announced, not detected: a leave is never a confirmation.
        EXPECT_FALSE(fed.membership()->confirmed_dead(3));
      });
  EXPECT_TRUE(run.balanced);
  EXPECT_EQ(run.accepted + run.rejected, run.loaded);
  EXPECT_EQ(run.tel.churn_applied, 1u);
  EXPECT_EQ(run.tel.confirmations, 0u);
}

TEST(ChurnSweep, RejoinedClusterAcceptsWorkAgain) {
  auto cfg = churn_config(core::SchedulingMode::kAuction);
  crash_at(cfg, 40000.0, 2);
  cfg.membership.churn.events.push_back(
      ChurnEvent{100000.0, 2, ChurnKind::kJoin});
  const auto run =
      churn_run(cfg, 8, 30, [](core::Federation& fed) {
        EXPECT_FALSE(fed.gfa(2).down());
        EXPECT_FALSE(fed.lrms(2).down());
        EXPECT_TRUE(fed.membership()->live(2));
        // Confirmation history survives, but the rejoined member's own
        // acceptance after t=100000 proves the resurrect propagated.
        std::uint64_t late_accepts = 0;
        for (const auto& o : fed.outcomes()) {
          if (o.accepted && o.executed_on == 2 && o.start > 100000.0) {
            ++late_accepts;
          }
        }
        EXPECT_GT(late_accepts, 0u);
      });
  EXPECT_TRUE(run.balanced);
  EXPECT_EQ(run.accepted + run.rejected, run.loaded);
  EXPECT_EQ(run.tel.churn_applied, 2u);
}

// ---- TreeTransport self-repair ----------------------------------------------

TEST(TreeRepair, DeadInteriorRelayIsExcisedAndReplayed) {
  auto cfg = churn_config(core::SchedulingMode::kAuction);
  cfg.transport.kind = transport::TransportKind::kTree;
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 300.0;
  // Probe the deterministic topology for an interior relay (the
  // schedule is config, so the target must be known up front).
  const std::size_t n = 20;
  cluster::ResourceIndex victim = cluster::kNoResource;
  {
    auto probe_cfg = cfg;
    probe_cfg.membership.enabled = false;
    core::Federation probe(probe_cfg, cluster::replicated_specs(n));
    const auto* tree =
        dynamic_cast<const transport::TreeTransport*>(&probe.transport());
    ASSERT_NE(tree, nullptr);
    for (cluster::ResourceIndex i = 0; i < n; ++i) {
      if (tree->interior_relay(i)) {
        victim = i;
        break;
      }
    }
  }
  ASSERT_NE(victim, cluster::kNoResource);

  crash_at(cfg, 40000.0, victim);
  const auto run = churn_run(
      cfg, n, 30, [victim](core::Federation& fed) {
        const auto* tree = dynamic_cast<const transport::TreeTransport*>(
            &fed.transport());
        ASSERT_NE(tree, nullptr);
        EXPECT_GE(tree->repairs(), 1u);
        // The relay died with solicitations in flight during the
        // detection window; the repair replayed them — none were
        // silently lost (the termination check below is the proof) and
        // the replay cost is booked in the wire ledger's relay
        // counters.
        EXPECT_GT(tree->replayed_solicitations(), 0u);
        EXPECT_GT(tree->repair_relay_messages(), 0u);
        EXPECT_GE(std::as_const(fed).ledger().relay_total(),
                  tree->repair_relay_messages());
        EXPECT_TRUE(fed.membership()->confirmed_dead(victim));
      });
  EXPECT_TRUE(run.balanced);
  EXPECT_EQ(run.accepted + run.rejected, run.loaded);
  EXPECT_EQ(run.tel.confirmations, 1u);
}

// ---- coalition re-formation -------------------------------------------------

core::FederationConfig coalition_churn_config() {
  auto cfg = churn_config(core::SchedulingMode::kAuction, 90210);
  cfg.auction.clearing = market::ClearingRule::kVickrey;
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 300.0;
  cfg.transport.kind = transport::TransportKind::kTree;
  cfg.coalitions.enabled = true;
  cfg.coalitions.bucket_size = 4;
  return cfg;
}

TEST(CoalitionReformation, CrashedRepresentativeIsReplacedThenRejoins) {
  auto cfg = coalition_churn_config();
  const std::size_t n = 20;
  // Probe the deterministic formation for the first coalition's
  // representative.
  cluster::ResourceIndex rep = cluster::kNoResource;
  federation::ParticipantId coalition = federation::kNoParticipant;
  {
    auto probe_cfg = cfg;
    probe_cfg.membership.enabled = false;
    core::Federation probe(probe_cfg, cluster::replicated_specs(n));
    ASSERT_NE(probe.coalitions(), nullptr);
    coalition = federation::ParticipantId{federation::kCoalitionBase};
    rep = probe.coalitions()->registry().representative(coalition);
  }
  ASSERT_NE(rep, cluster::kNoResource);

  crash_at(cfg, 40000.0, rep);
  cfg.membership.churn.events.push_back(
      ChurnEvent{120000.0, rep, ChurnKind::kJoin});
  const auto run = churn_run(
      cfg, n, 30, [rep, coalition](core::Federation& fed) {
        ASSERT_NE(fed.coalitions(), nullptr);
        const auto& reformations = fed.coalitions()->reformations();
        ASSERT_GE(reformations.size(), 2u);
        // Every re-formation leaves a rational split rule in place.
        for (const auto& r : reformations) {
          EXPECT_TRUE(r.rational) << "coalition " << r.coalition.value;
          EXPECT_FALSE(r.members_after.empty());
        }
        // First: the confirmed death removed the representative and the
        // survivor first in ring order took over.
        const auto& death = reformations.front();
        EXPECT_EQ(death.coalition, coalition);
        EXPECT_EQ(death.member, rep);
        EXPECT_TRUE(death.departed);
        EXPECT_NE(death.representative_after, rep);
        EXPECT_EQ(std::find(death.members_after.begin(),
                            death.members_after.end(), rep),
                  death.members_after.end());
        // Last: the rejoin re-entered at the bucket rule — the member
        // first in ring order represents, which is the rejoiner itself
        // (it was the representative precisely because it is first).
        const auto& rejoin = reformations.back();
        EXPECT_EQ(rejoin.coalition, coalition);
        EXPECT_EQ(rejoin.member, rep);
        EXPECT_FALSE(rejoin.departed);
        EXPECT_EQ(rejoin.representative_after, rep);
        EXPECT_NE(std::find(rejoin.members_after.begin(),
                            rejoin.members_after.end(), rep),
                  rejoin.members_after.end());
        // The live registry agrees with the last record.
        EXPECT_EQ(fed.coalitions()->registry().representative(coalition),
                  rep);
      });
  EXPECT_TRUE(run.balanced);
  EXPECT_EQ(run.accepted + run.rejected, run.loaded);
}

TEST(CoalitionReformation, MidFlightSettlementsSplitOverTheSnapshot) {
  // A representative crash between placement and settlement must not
  // unbalance the bank: splits run over the placement-time member
  // snapshot.  balanced() plus per-split share reconciliation pins it.
  auto cfg = coalition_churn_config();
  cfg.obs.forensics = true;  // the ledger records every split
  const std::size_t n = 20;
  crash_at(cfg, 40000.0, 0);
  crash_at(cfg, 80000.0, 7);
  const auto run = churn_run(cfg, n, 30, [](core::Federation& fed) {
    ASSERT_NE(fed.coalitions(), nullptr);
    for (const obs::SplitDecision& split :
         fed.observer()->forensics()->splits()) {
      // The (member, share) pairs are the placement-time snapshot: the
      // executor is among them even if churn has since re-formed the
      // group.
      EXPECT_NE(std::find_if(split.shares.begin(), split.shares.end(),
                             [&split](const auto& entry) {
                               return entry.first == split.executor;
                             }),
                split.shares.end())
          << "job " << split.job;
      double sum = 0.0;
      for (const auto& [member, share] : split.shares) {
        EXPECT_GE(share, 0.0);
        sum += share;
      }
      EXPECT_NEAR(sum, split.payment, 1e-6) << "job " << split.job;
    }
  });
  EXPECT_TRUE(run.balanced);
  EXPECT_EQ(run.accepted + run.rejected, run.loaded);
}

// ---- construction-time validation -------------------------------------------

TEST(MembershipValidation, AuctionTimeoutBoundsOnBothTransports) {
  // Every kNegotiate, kAward and kReply travels point to point on either
  // transport (the tree relays only kBid), so the negotiate timeout must
  // outlast one enquiry+reply round trip, 2 * latency, and nothing more.
  const auto specs = cluster::replicated_specs(8);
  for (const auto kind :
       {transport::TransportKind::kDirect, transport::TransportKind::kTree}) {
    auto cfg = core::make_config(core::SchedulingMode::kAuction);
    cfg.transport.kind = kind;
    cfg.network_latency = 1.0;
    cfg.auction.bid_timeout = 200.0;
    cfg.negotiate_timeout = 2.0;  // exactly one round trip: too tight
    EXPECT_THROW(core::Federation(cfg, specs), sim::ContractViolation);
    cfg.negotiate_timeout = 2.5;
    EXPECT_NO_THROW(core::Federation(cfg, specs));
  }

  // The tree's bid timeout still clears the relayed call-for-bids + bid
  // round trip (4 * depth hops) plus a full fan-out epoch.
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.transport.kind = transport::TransportKind::kTree;
  cfg.network_latency = 1.0;
  cfg.negotiate_timeout = 2.5;
  const double depth = transport::tree_depth(specs.size(),
                                             cfg.transport.tree_fanout);
  const double bid_bound = 4.0 * depth * cfg.network_latency +
                           cfg.transport.tree_epoch;  // 128 s at depth 2
  cfg.auction.bid_timeout = bid_bound;
  EXPECT_THROW(core::Federation(cfg, specs), sim::ContractViolation);
  cfg.auction.bid_timeout = bid_bound + 0.5;
  EXPECT_NO_THROW(core::Federation(cfg, specs));

  // A tree auction whose negotiate timeout covers one round trip but
  // not the relay path and a fan-out epoch ((2 * depth + 1) * latency +
  // tree_epoch = 125 s) runs sound over a lossy network: every job
  // terminates exactly once and the bank balances.
  cfg.auction.bid_timeout = 200.0;
  cfg.message_drop_rate = 0.1;
  const auto run = churn_run(cfg, specs.size(), 30);
  EXPECT_EQ(run.accepted + run.rejected, run.loaded);
  EXPECT_GT(run.accepted, 0u);
  EXPECT_TRUE(run.balanced);
}

TEST(MembershipValidation, ActiveMembershipNeedsTimeouts) {
  // Churn without negotiate timeouts would strand enquiries addressed
  // to a crashed peer forever.
  auto cfg = core::make_config(core::SchedulingMode::kEconomy);
  cfg.membership.enabled = true;
  EXPECT_THROW(core::Federation(cfg, cluster::replicated_specs(8)),
               sim::ContractViolation);
  cfg.negotiate_timeout = 30.0;
  cfg.network_latency = 1.0;
  EXPECT_NO_THROW(core::Federation(cfg, cluster::replicated_specs(8)));
}

TEST(MembershipValidation, AuctionChurnNeedsBidTimeout) {
  auto cfg = churn_config(core::SchedulingMode::kAuction);
  cfg.auction.bid_timeout = 0.0;  // a dead bidder would hold books open
  crash_at(cfg, 40000.0, 2);
  EXPECT_THROW(core::Federation(cfg, cluster::replicated_specs(8)),
               sim::ContractViolation);
}

TEST(MembershipValidation, RejectsMalformedSchedulesAndKnobs) {
  {
    auto cfg = churn_config(core::SchedulingMode::kAuction);
    crash_at(cfg, 40000.0, 8);  // site out of range for 8 clusters
    EXPECT_THROW(core::Federation(cfg, cluster::replicated_specs(8)),
                 sim::ContractViolation);
  }
  {
    auto cfg = churn_config(core::SchedulingMode::kAuction);
    crash_at(cfg, 0.0, 2);  // churn before the run starts
    EXPECT_THROW(core::Federation(cfg, cluster::replicated_specs(8)),
                 sim::ContractViolation);
  }
  {
    auto cfg = churn_config(core::SchedulingMode::kAuction);
    cfg.membership.gossip_fanout = 0;
    EXPECT_THROW(core::Federation(cfg, cluster::replicated_specs(8)),
                 sim::ContractViolation);
  }
  {
    auto cfg = churn_config(core::SchedulingMode::kAuction);
    cfg.membership.gossip_period = 0.0;
    EXPECT_THROW(core::Federation(cfg, cluster::replicated_specs(8)),
                 sim::ContractViolation);
  }
}

}  // namespace
}  // namespace gridfed
