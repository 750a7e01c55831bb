// Participant layer + coalition extension suite.
//
// Parity half: with coalitions disabled every participant is a
// singleton whose id equals its cluster index bit-for-bit, so all four
// scheduling modes must reproduce the pre-participant outcomes exactly.
// The golden digests below are the SAME values tests/test_policy.cpp
// pins (captured from the pre-refactor tree): core::outcome_digest over
// every job's (id, accepted, executed_on, start, completion, cost,
// negotiations, messages) tuple in job-id order.
//
// Feature half: surplus-rule properties (budget balance + individual
// rationality, the Guazzone et al. incentive-compatibility conditions),
// registry/formation invariants, and an end-to-end coalition market run
// where the GridBank stays balanced member-by-member while the
// group-addressed dissemination cuts wire messages per job.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "cluster/catalog.hpp"
#include "coalition/coalition_manager.hpp"
#include "coalition/surplus_rule.hpp"
#include "core/experiment.hpp"
#include "core/federation.hpp"
#include "core/outcome.hpp"
#include "sim/random.hpp"
#include "workload/synthetic.hpp"

namespace gridfed {
namespace {

// ---- surplus rules ----------------------------------------------------------

void expect_sound_split(coalition::SurplusRuleKind rule, double payment,
                        std::size_t executor_pos, double executor_ask,
                        const std::vector<double>& weights) {
  const std::vector<double> shares = coalition::split_surplus(
      rule, payment, executor_pos, executor_ask, weights);
  ASSERT_EQ(shares.size(), weights.size());
  double sum = 0.0;
  for (const double share : shares) {
    EXPECT_GE(share, 0.0);  // no member pays to be in the coalition
    sum += share;
  }
  // Budget balance: the shares settle exactly the payment (the executor
  // absorbs the floating-point remainder).
  EXPECT_NEAR(sum, payment, 1e-9 * std::max(1.0, payment));
  // Individual rationality: the executing member earns at least what it
  // would have been paid winning the same award solo under first-price
  // (its own ask, capped by the payment).
  EXPECT_GE(shares[executor_pos] + 1e-9 * std::max(1.0, payment),
            std::min(std::max(0.0, executor_ask), payment));
}

TEST(SurplusRule, PropertySweepBudgetBalancedAndIndividuallyRational) {
  sim::Rng rng(20260727);
  const coalition::SurplusRuleKind rules[] = {
      coalition::SurplusRuleKind::kProportional,
      coalition::SurplusRuleKind::kEqual};
  for (int trial = 0; trial < 2000; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 8));
    std::vector<double> weights(n);
    for (double& w : weights) {
      // Mix magnitudes and exact zeros (an idle member contributes no
      // capacity but may still hold a slot).
      w = rng.uniform01() < 0.2 ? 0.0 : rng.uniform01() * 1e5;
    }
    const double payment = rng.uniform01() * 1e4;
    // Asks below, at, and above the payment all occur in a real market
    // (Vickrey pays above the ask; a stale note can sit above payment).
    const double ask = rng.uniform01() * 1.5 * payment;
    const auto executor =
        static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    for (const coalition::SurplusRuleKind rule : rules) {
      expect_sound_split(rule, payment, executor, ask, weights);
    }
  }
}

TEST(SurplusRule, EqualRuleSplitsSurplusEvenly) {
  const std::vector<double> weights{10.0, 20.0, 30.0, 40.0};
  const auto shares = coalition::split_surplus(
      coalition::SurplusRuleKind::kEqual, 100.0, 1, 60.0, weights);
  // surplus = 40, split four ways; the executor adds its 60 base.
  EXPECT_DOUBLE_EQ(shares[0], 10.0);
  EXPECT_DOUBLE_EQ(shares[1], 70.0);
  EXPECT_DOUBLE_EQ(shares[2], 10.0);
  EXPECT_DOUBLE_EQ(shares[3], 10.0);
}

TEST(SurplusRule, ProportionalRuleFollowsCapacity) {
  const std::vector<double> weights{1.0, 3.0};
  const auto shares = coalition::split_surplus(
      coalition::SurplusRuleKind::kProportional, 100.0, 0, 20.0, weights);
  // surplus = 80 split 1:3; executor (weight 1) adds its 20 base.
  EXPECT_DOUBLE_EQ(shares[0], 40.0);
  EXPECT_DOUBLE_EQ(shares[1], 60.0);
}

TEST(SurplusRule, PaymentBelowAskClampsToBudgetBalance) {
  // A stale ask above the payment must not mint money: everything goes
  // to the executor, nothing to anyone else.
  const std::vector<double> weights{5.0, 5.0};
  const auto shares = coalition::split_surplus(
      coalition::SurplusRuleKind::kProportional, 30.0, 1, 50.0, weights);
  EXPECT_DOUBLE_EQ(shares[0], 0.0);
  EXPECT_DOUBLE_EQ(shares[1], 30.0);
}

// ---- participant registry ---------------------------------------------------

TEST(ParticipantRegistry, SingletonsAreTheIdentity) {
  federation::ParticipantRegistry registry(5);
  EXPECT_EQ(registry.participants(), 5u);
  EXPECT_EQ(registry.coalitions(), 0u);
  for (cluster::ResourceIndex r = 0; r < 5; ++r) {
    const federation::ParticipantId id = registry.participant_of(r);
    EXPECT_FALSE(id.is_coalition());
    EXPECT_EQ(id.value, r);  // bit-identical to the cluster index
    EXPECT_EQ(registry.representative(id), r);
    ASSERT_EQ(registry.members(id).size(), 1u);
    EXPECT_EQ(registry.members(id)[0], r);
    EXPECT_TRUE(registry.is_representative(r));
  }
}

TEST(ParticipantRegistry, CoalitionGroupsAndRepresents) {
  federation::ParticipantRegistry registry(6);
  const federation::ParticipantId id =
      registry.register_coalition({4, 1, 2}, 2);
  EXPECT_TRUE(id.is_coalition());
  EXPECT_EQ(registry.coalitions(), 1u);
  EXPECT_EQ(registry.participants(), 4u);  // 3 loose singletons + 1 group
  EXPECT_EQ(registry.representative(id), 2u);
  const auto members = registry.members(id);
  ASSERT_EQ(members.size(), 3u);
  EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
  for (const cluster::ResourceIndex member : {1u, 2u, 4u}) {
    EXPECT_EQ(registry.participant_of(member), id);
    EXPECT_EQ(registry.is_representative(member), member == 2u);
  }
  EXPECT_FALSE(registry.participant_of(0).is_coalition());
}

TEST(ParticipantRegistry, SentinelMatchesNoResource) {
  // kNoParticipant must flow through code that defaulted a "no cluster"
  // ResourceIndex unchanged.
  EXPECT_EQ(federation::kNoParticipant,
            federation::ParticipantId{cluster::kNoResource});
  EXPECT_FALSE(federation::kNoParticipant.is_coalition());
}

// ---- golden-digest parity (coalitions disabled == pre-participant) ----------

struct RunDigest {
  std::uint64_t hash = 0;
  std::uint64_t messages = 0;
  bool balanced = false;
};

RunDigest digest(const core::FederationConfig& cfg, std::size_t n,
                 std::uint32_t oft) {
  auto specs = cluster::replicated_specs(n);
  core::Federation fed(cfg, specs);
  const auto traces =
      workload::generate_federation_workload(specs, cfg.window, cfg.seed);
  std::optional<workload::PopulationProfile> profile;
  if (cfg.mode == core::SchedulingMode::kEconomy ||
      cfg.mode == core::SchedulingMode::kAuction) {
    profile = workload::PopulationProfile{oft};
  }
  fed.load_workload(traces, profile);
  const auto result = fed.run();
  return RunDigest{core::outcome_digest(fed.outcomes()),
                   result.total_messages, fed.bank().balanced()};
}

// The pre-refactor goldens from tests/test_policy.cpp: with every
// participant a singleton the new identity plumbing must not move a
// single bit of any mode's outcome.
TEST(SoloParity, IndependentMatchesPreParticipantGolden) {
  const auto d =
      digest(core::make_config(core::SchedulingMode::kIndependent), 8, 0);
  EXPECT_EQ(d.hash, 0x6ec2c1006e3a08ebULL);
  EXPECT_EQ(d.messages, 0u);
}

TEST(SoloParity, NoEconomyMatchesPreParticipantGolden) {
  const auto d = digest(
      core::make_config(core::SchedulingMode::kFederationNoEconomy), 8, 0);
  EXPECT_EQ(d.hash, 0xbaf2d890e647929cULL);
  EXPECT_EQ(d.messages, 5138u);
}

TEST(SoloParity, DbcMatchesPreParticipantGolden) {
  const auto d =
      digest(core::make_config(core::SchedulingMode::kEconomy), 8, 30);
  EXPECT_EQ(d.hash, 0x2514c40b32638affULL);
  EXPECT_EQ(d.messages, 14758u);
}

TEST(SoloParity, AuctionMatchesPreParticipantGolden) {
  const auto d =
      digest(core::make_config(core::SchedulingMode::kAuction), 8, 30);
  EXPECT_EQ(d.hash, 0xade2c15285cc51f7ULL);
  EXPECT_EQ(d.messages, 45550u);
}

TEST(SoloParity, CoalitionConfigIsInertOutsideAuctionMode) {
  // The extension only reads in auction mode: an economy run with the
  // flag set must still match the golden bit-for-bit (no manager is
  // even constructed).
  auto cfg = core::make_config(core::SchedulingMode::kEconomy);
  cfg.coalitions.enabled = true;
  const auto d = digest(cfg, 8, 30);
  EXPECT_EQ(d.hash, 0x2514c40b32638affULL);
  EXPECT_EQ(d.messages, 14758u);
}

// ---- end-to-end coalition market --------------------------------------------

struct CoalitionRun {
  core::FederationResult result;
  bool balanced = false;
  /// Every settled split, settlement order (the run's forensics ledger).
  std::vector<obs::SplitDecision> splits;
  std::size_t registered = 0;
  stats::AuctionStats stats;
};

/// Runs `cfg` with the forensics ledger on, which records each coalition
/// split with the member snapshot it ran over.
CoalitionRun coalition_run(core::FederationConfig cfg, std::size_t n,
                           std::uint32_t oft) {
  cfg.obs.forensics = true;
  auto specs = cluster::replicated_specs(n);
  core::Federation fed(cfg, specs);
  const auto traces =
      workload::generate_federation_workload(specs, cfg.window, cfg.seed);
  fed.load_workload(traces, workload::PopulationProfile{oft});
  CoalitionRun run;
  run.result = fed.run();
  run.balanced = fed.bank().balanced();
  run.stats = fed.auction_stats();
  run.splits = fed.observer()->forensics()->splits();
  if (const coalition::CoalitionManager* manager = fed.coalitions()) {
    run.registered = manager->registry().coalitions();
  }
  return run;
}

core::FederationConfig coalition_config(bool enabled) {
  auto cfg = core::make_config(core::SchedulingMode::kAuction, 90210);
  cfg.auction.clearing = market::ClearingRule::kVickrey;
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 300.0;
  cfg.transport.kind = transport::TransportKind::kTree;
  cfg.coalitions.enabled = enabled;
  cfg.coalitions.bucket_size = 4;
  return cfg;
}

TEST(CoalitionMarket, CutsWireMessagesAndKeepsTheBankBalanced) {
  const auto solo = coalition_run(coalition_config(false), 20, 30);
  const auto coop = coalition_run(coalition_config(true), 20, 30);

  EXPECT_EQ(coop.registered, 5u);  // 20 clusters in ring buckets of 4
  EXPECT_EQ(coop.result.coalitions_formed, 5u);
  EXPECT_GT(coop.result.coalition_awards, 0u);
  EXPECT_GT(coop.result.coalition_local_messages, 0u);

  // Group-addressed dissemination: one delivery per participant instead
  // of one per provider cuts the wire load per job substantially.
  EXPECT_LT(coop.result.wire_msgs_per_job(),
            0.8 * solo.result.wire_msgs_per_job());

  // The double-entry ledger holds even though coalition awards settle
  // as one share per member.
  EXPECT_TRUE(solo.balanced);
  EXPECT_TRUE(coop.balanced);

  // Acceptance must not pay for the message cut.
  EXPECT_GT(coop.result.acceptance_pct(),
            solo.result.acceptance_pct() - 1.0);
}

TEST(CoalitionMarket, EverySettledSplitIsSoundEndToEnd) {
  const auto coop = coalition_run(coalition_config(true), 20, 30);
  ASSERT_FALSE(coop.splits.empty());
  EXPECT_EQ(coop.splits.size(), coop.result.coalition_awards);
  for (const obs::SplitDecision& split : coop.splits) {
    double sum = 0.0;
    for (const auto& [member, share] : split.shares) {
      EXPECT_GE(share, 0.0);
      sum += share;
    }
    EXPECT_NEAR(sum, split.payment, 1e-9 * std::max(1.0, split.payment));
    EXPECT_TRUE(federation::ParticipantId(split.coalition).is_coalition());
  }
  // Surplus accounting in the aggregate mirrors the split records.
  double surplus = 0.0;
  for (const obs::SplitDecision& split : coop.splits) {
    surplus += split.payment - std::min(split.executor_ask, split.payment);
  }
  EXPECT_NEAR(coop.result.coalition_surplus, surplus, 1e-6);
}

TEST(CoalitionMarket, LossyRunSplitsOnlyCoalitionPlacedJobs) {
  // A lossy network abandons coalition awards whose reply was dropped;
  // the origin re-schedules, sometimes landing the job on the very
  // member the stale placement note recorded — through a SOLO path.
  // Such a job must settle solo: every surplus split must correspond to
  // a job that actually ran through the coalition placement.
  auto cfg = coalition_config(true);
  cfg.message_drop_rate = 0.1;
  cfg.negotiate_timeout = 200.0;  // > relayed hops + tree epoch hold
  cfg.network_latency = 1.0;
  cfg.auction.bid_timeout = 200.0;  // > round trip + tree epoch hold
  cfg.obs.forensics = true;  // the ledger records every split
  auto specs = cluster::replicated_specs(20);
  core::Federation fed(cfg, specs);
  const auto traces =
      workload::generate_federation_workload(specs, cfg.window, cfg.seed);
  fed.load_workload(traces, workload::PopulationProfile{30});
  (void)fed.run();
  EXPECT_TRUE(fed.bank().balanced());
  std::unordered_map<cluster::JobId, const core::JobOutcome*> by_id;
  for (const auto& outcome : fed.outcomes()) by_id[outcome.job.id] = &outcome;
  ASSERT_NE(fed.coalitions(), nullptr);
  const auto& splits = fed.observer()->forensics()->splits();
  ASSERT_FALSE(splits.empty());
  for (const obs::SplitDecision& split : splits) {
    const auto it = by_id.find(split.job);
    ASSERT_NE(it, by_id.end());
    EXPECT_TRUE(it->second->via_coalition);
    EXPECT_EQ(it->second->executed_on, split.executor);
    EXPECT_DOUBLE_EQ(it->second->cost, split.payment);
  }
}

TEST(CoalitionMarket, ReplayIsDeterministic) {
  const auto a = coalition_run(coalition_config(true), 20, 30);
  const auto b = coalition_run(coalition_config(true), 20, 30);
  EXPECT_EQ(a.result.total_messages, b.result.total_messages);
  EXPECT_EQ(a.result.total_accepted, b.result.total_accepted);
  EXPECT_EQ(a.result.coalition_awards, b.result.coalition_awards);
  EXPECT_EQ(a.result.coalition_local_messages,
            b.result.coalition_local_messages);
  EXPECT_DOUBLE_EQ(a.result.coalition_surplus, b.result.coalition_surplus);
}

// ---- reputation input counters (satellite for reputation-weighted bids) -----

TEST(ReputationSignals, PerProviderCountersSumToTotals) {
  // A lossy network times awards out and an honest market declines some
  // at the admission re-check: both must book against the awarded
  // participant.
  auto cfg = core::make_config(core::SchedulingMode::kAuction, 4242);
  cfg.message_drop_rate = 0.05;
  cfg.negotiate_timeout = 30.0;
  cfg.network_latency = 1.0;
  cfg.auction.bid_timeout = 30.0;
  const auto run = coalition_run(cfg, 8, 30);
  std::uint64_t declines = 0;
  for (const auto& [participant, count] : run.stats.award_declines) {
    EXPECT_LT(participant, federation::kCoalitionBase);  // solo run
    declines += count;
  }
  EXPECT_EQ(declines, run.stats.awards_declined);
  std::uint64_t misses = 0;
  for (const auto& [participant, count] : run.stats.guarantee_misses) {
    EXPECT_LT(participant, federation::kCoalitionBase);
    misses += count;
  }
  EXPECT_EQ(misses, run.stats.guarantees_missed);
  EXPECT_GT(run.stats.awards_declined, 0u);  // a lossy run times out awards
}

TEST(ReputationSignals, CoalitionDeclinesBookAgainstTheCoalition) {
  auto cfg = coalition_config(true);
  cfg.message_drop_rate = 0.05;
  cfg.negotiate_timeout = 200.0;  // > relayed hops + tree epoch hold
  cfg.network_latency = 1.0;
  cfg.auction.bid_timeout = 200.0;  // > round trip + tree epoch hold
  const auto run = coalition_run(cfg, 20, 30);
  bool any_coalition_key = false;
  for (const auto& [participant, count] : run.stats.award_declines) {
    (void)count;
    if (participant >= federation::kCoalitionBase) any_coalition_key = true;
  }
  // With 5 coalitions holding most capacity, a lossy run books at
  // least one decline against a coalition id.
  EXPECT_TRUE(any_coalition_key);
}

}  // namespace
}  // namespace gridfed
