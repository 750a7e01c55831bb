// Market subsystem tests: the auction engine's clearing rules and edge
// cases (zero bidders, budget-infeasible lone bids, deterministic
// tie-breaking), bid pricing strategies, and the end-to-end kAuction
// scheduling mode including the GridBank double-entry invariant under
// Vickrey settlements.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/federation.hpp"
#include "sim/random.hpp"
#include "economy/pricing.hpp"
#include "market/auction_engine.hpp"
#include "market/bid_pricing.hpp"
#include "market/book_pool.hpp"
#include "workload/trace.hpp"

namespace gridfed {
namespace {

// ---- AuctionBook ------------------------------------------------------------

TEST(AuctionBook, CompletesWhenEverySolicitedBidderAnswers) {
  market::AuctionBook book(7, {0, 1, 2});
  EXPECT_FALSE(book.complete());
  EXPECT_TRUE(book.add({0, 1.0, 10.0, true}));
  EXPECT_TRUE(book.add({2, 2.0, 20.0, true}));
  EXPECT_FALSE(book.complete());
  EXPECT_TRUE(book.add({1, 3.0, 30.0, false}));
  EXPECT_TRUE(book.complete());
  EXPECT_EQ(book.bids().size(), 3u);
}

TEST(AuctionBook, IgnoresUnsolicitedAndDuplicateBids) {
  market::AuctionBook book(7, {0, 1});
  EXPECT_FALSE(book.add({5, 1.0, 10.0, true}));  // never solicited
  EXPECT_TRUE(book.add({0, 1.0, 10.0, true}));
  EXPECT_FALSE(book.add({0, 0.5, 5.0, true}));  // second answer
  EXPECT_EQ(book.bids().size(), 1u);
  EXPECT_DOUBLE_EQ(book.bids()[0].ask, 1.0);  // the first answer stands
}

TEST(AuctionBook, EmptySolicitationIsCompleteImmediately) {
  market::AuctionBook book(7, {});
  EXPECT_TRUE(book.complete());
  EXPECT_TRUE(book.bids().empty());
}

// ---- AuctionEngine clearing -------------------------------------------------

cluster::Job auction_job(double budget = 100.0, double deadline = 1000.0) {
  cluster::Job job;
  job.id = 1;
  job.processors = 4;
  job.budget = budget;
  job.deadline = deadline;
  job.submit = 0.0;
  return job;
}

TEST(AuctionEngine, FirstPriceWinnerPaysOwnAsk) {
  const market::AuctionEngine engine(market::ClearingRule::kFirstPrice, true,
                                     true);
  const auto ranking = engine.clear(
      auction_job(), {{0, 30.0, 500.0, true}, {1, 20.0, 600.0, true}});
  ASSERT_EQ(ranking.size(), 2u);
  EXPECT_EQ(ranking[0].bid.bidder, 1u);
  EXPECT_DOUBLE_EQ(ranking[0].payment, 20.0);
  EXPECT_DOUBLE_EQ(ranking[1].payment, 30.0);
}

TEST(AuctionEngine, VickreyWinnerPaysSecondPrice) {
  const market::AuctionEngine engine(market::ClearingRule::kVickrey, true,
                                     true);
  const auto ranking = engine.clear(auction_job(),
                                    {{0, 30.0, 500.0, true},
                                     {1, 20.0, 600.0, true},
                                     {2, 50.0, 400.0, true}});
  ASSERT_EQ(ranking.size(), 3u);
  EXPECT_EQ(ranking[0].bid.bidder, 1u);
  EXPECT_DOUBLE_EQ(ranking[0].payment, 30.0);  // second-lowest ask
  // The runner-up's payment must already be consistent for re-awards.
  EXPECT_DOUBLE_EQ(ranking[1].payment, 50.0);
  // Last-ranked award: the reserve (budget) plays the next bid.
  EXPECT_DOUBLE_EQ(ranking[2].payment, 100.0);
}

TEST(AuctionEngine, VickreyLoneBidPaysBudgetReserve) {
  const market::AuctionEngine engine(market::ClearingRule::kVickrey, true,
                                     true);
  const auto ranking =
      engine.clear(auction_job(100.0), {{0, 30.0, 500.0, true}});
  ASSERT_EQ(ranking.size(), 1u);
  EXPECT_DOUBLE_EQ(ranking[0].payment, 100.0);
}

TEST(AuctionEngine, VickreyLoneBidWithoutBudgetEnforcementPaysAsk) {
  const market::AuctionEngine engine(market::ClearingRule::kVickrey, false,
                                     true);
  const auto ranking =
      engine.clear(auction_job(100.0), {{0, 30.0, 500.0, true}});
  ASSERT_EQ(ranking.size(), 1u);
  EXPECT_DOUBLE_EQ(ranking[0].payment, 30.0);
}

TEST(AuctionEngine, BudgetInfeasibleLoneBidClearsEmpty) {
  const market::AuctionEngine engine(market::ClearingRule::kFirstPrice, true,
                                     true);
  const auto ranking =
      engine.clear(auction_job(100.0), {{0, 150.0, 500.0, true}});
  EXPECT_TRUE(ranking.empty());
}

TEST(AuctionEngine, DeadlineAndDeclaredInfeasibilityFilter) {
  const market::AuctionEngine engine(market::ClearingRule::kFirstPrice, true,
                                     true);
  const auto ranking = engine.clear(auction_job(100.0, 1000.0),
                                    {{0, 10.0, 1500.0, true},    // too late
                                     {1, 20.0, 500.0, false},    // declined
                                     {2, 30.0, 500.0, true}});
  ASSERT_EQ(ranking.size(), 1u);
  EXPECT_EQ(ranking[0].bid.bidder, 2u);
}

TEST(AuctionEngine, DisabledDeadlineKeepsLateBids) {
  const market::AuctionEngine engine(market::ClearingRule::kFirstPrice, true,
                                     false);
  const auto ranking =
      engine.clear(auction_job(100.0, 1000.0), {{0, 10.0, 1500.0, true}});
  EXPECT_EQ(ranking.size(), 1u);
}

TEST(AuctionEngine, ZeroBiddersClearsEmpty) {
  const market::AuctionEngine engine(market::ClearingRule::kFirstPrice, true,
                                     true);
  EXPECT_TRUE(engine.clear(auction_job(), {}).empty());
}

TEST(AuctionEngine, TieBreaksOnEstimateThenIndex) {
  const market::AuctionEngine engine(market::ClearingRule::kFirstPrice, true,
                                     true);
  // Equal asks: the earlier completion guarantee wins.
  auto ranking = engine.clear(
      auction_job(), {{0, 20.0, 600.0, true}, {1, 20.0, 500.0, true}});
  ASSERT_EQ(ranking.size(), 2u);
  EXPECT_EQ(ranking[0].bid.bidder, 1u);
  // Equal asks and estimates: the lower resource index wins.
  ranking = engine.clear(
      auction_job(), {{3, 20.0, 500.0, true}, {2, 20.0, 500.0, true}});
  EXPECT_EQ(ranking[0].bid.bidder, 2u);
}

TEST(AuctionEngine, ClearingIsIndependentOfBidArrivalOrder) {
  const market::AuctionEngine engine(market::ClearingRule::kVickrey, true,
                                     true);
  const std::vector<market::Bid> bids = {{0, 30.0, 500.0, true},
                                         {1, 20.0, 600.0, true},
                                         {2, 20.0, 600.0, true}};
  std::vector<market::Bid> reversed(bids.rbegin(), bids.rend());
  const auto a = engine.clear(auction_job(), bids);
  const auto b = engine.clear(auction_job(), reversed);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].bid.bidder, b[i].bid.bidder) << i;
    EXPECT_DOUBLE_EQ(a[i].payment, b[i].payment) << i;
  }
}

// ---- multi-attribute scoring ------------------------------------------------

TEST(AuctionScoring, PriceScoringMatchesLegacyRanking) {
  // The explicit kPrice engine and the legacy two-argument-rule ctor must
  // produce identical award rankings and payments.
  const market::AuctionEngine legacy(market::ClearingRule::kVickrey, true,
                                     true);
  const market::AuctionEngine scored(market::ClearingRule::kVickrey,
                                     market::ScoringRule::kPrice, 0.7, true,
                                     true);
  const std::vector<market::Bid> bids = {{0, 30.0, 500.0, true},
                                         {1, 20.0, 600.0, true},
                                         {2, 50.0, 400.0, true}};
  const auto a = legacy.clear(auction_job(), bids);
  const auto b = scored.clear(auction_job(), bids);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].bid.bidder, b[i].bid.bidder) << i;
    EXPECT_DOUBLE_EQ(a[i].payment, b[i].payment) << i;
  }
}

TEST(AuctionScoring, CompletionScoringRanksByEstimate) {
  const market::AuctionEngine engine(market::ClearingRule::kFirstPrice,
                                     market::ScoringRule::kCompletion, 0.0,
                                     true, true);
  const auto ranking = engine.clear(auction_job(),
                                    {{0, 10.0, 900.0, true},
                                     {1, 90.0, 300.0, true},
                                     {2, 50.0, 600.0, true}});
  ASSERT_EQ(ranking.size(), 3u);
  EXPECT_EQ(ranking[0].bid.bidder, 1u);  // earliest guarantee, not cheapest
  EXPECT_EQ(ranking[1].bid.bidder, 2u);
  EXPECT_EQ(ranking[2].bid.bidder, 0u);
  EXPECT_DOUBLE_EQ(ranking[0].payment, 90.0);  // still pay-as-bid
}

TEST(AuctionScoring, PerJobScoringFollowsOptimization) {
  // Full time weight so the OFT ranking is purely by completion.
  const market::AuctionEngine engine(market::ClearingRule::kFirstPrice,
                                     market::ScoringRule::kPerJob, 1.0, true,
                                     true);
  const std::vector<market::Bid> bids = {{0, 10.0, 900.0, true},
                                         {1, 90.0, 300.0, true}};
  cluster::Job ofc = auction_job();
  ofc.opt = cluster::Optimization::kCost;
  cluster::Job oft = auction_job();
  oft.opt = cluster::Optimization::kTime;
  EXPECT_EQ(engine.clear(ofc, bids)[0].bid.bidder, 0u);  // cheapest wins
  EXPECT_EQ(engine.clear(oft, bids)[0].bid.bidder, 1u);  // earliest wins
}

TEST(AuctionScoring, WeightedBlendTradesPriceForTime) {
  // Bid 0: cheap but slow; bid 1: pricey but fast.  A mild time weight
  // keeps the cheap bid on top; a heavy one flips the ranking.
  const std::vector<market::Bid> bids = {{0, 10.0, 900.0, true},
                                         {1, 60.0, 200.0, true}};
  const market::AuctionEngine mild(market::ClearingRule::kFirstPrice,
                                   market::ScoringRule::kWeighted, 0.2, true,
                                   true);
  const market::AuctionEngine heavy(market::ClearingRule::kFirstPrice,
                                    market::ScoringRule::kWeighted, 0.9, true,
                                    true);
  EXPECT_EQ(mild.clear(auction_job(), bids)[0].bid.bidder, 0u);
  EXPECT_EQ(heavy.clear(auction_job(), bids)[0].bid.bidder, 1u);
}

TEST(AuctionScoring, VickreyPaymentFlooredAtOwnAskUnderTimeScoring) {
  // Completion scoring can rank a pricey-but-fast bid first with a
  // cheaper bid as runner-up; the Vickrey payment must not drop below the
  // winner's own ask (individual rationality).
  const market::AuctionEngine engine(market::ClearingRule::kVickrey,
                                     market::ScoringRule::kCompletion, 0.0,
                                     true, true);
  const auto ranking = engine.clear(
      auction_job(), {{0, 10.0, 900.0, true}, {1, 90.0, 300.0, true}});
  ASSERT_EQ(ranking.size(), 2u);
  EXPECT_EQ(ranking[0].bid.bidder, 1u);
  EXPECT_DOUBLE_EQ(ranking[0].payment, 90.0);  // max(own 90, next 10)
}

TEST(AuctionScoring, ScoreNormalizesAgainstQosEnvelope) {
  const market::AuctionEngine engine(market::ClearingRule::kFirstPrice,
                                     market::ScoringRule::kWeighted, 0.5,
                                     true, true);
  const cluster::Job job = auction_job(100.0, 1000.0);
  const market::Bid bid{0, 50.0, 500.0, true};
  // 0.5 * (50/100) + 0.5 * (500/1000) = 0.5
  EXPECT_DOUBLE_EQ(engine.score(job, bid), 0.5);
}

// ---- pruned-book clearing equivalence ---------------------------------------

// The license for in-network convergecast pruning (tree_transport.hpp):
// clearing a book pruned to the top-k admissible bids under the shared
// BidScorer rank order must award the same winner at the same payment as
// clearing the full book, for every scoring rule, whenever k >= 2 (the
// Vickrey payment needs the runner-up's ask).  Property-swept over
// random books rather than hand-picked ones so score ties, reserve
// pricing and inadmissible bids all get exercised.
TEST(PrunedClearing, VickreyWinnerAndPaymentMatchFullBook) {
  sim::Rng rng(0xb1dfeedULL);
  std::size_t deep_books = 0;  // books where pruning actually dropped bids
  for (const auto rule :
       {market::ScoringRule::kPrice, market::ScoringRule::kCompletion,
        market::ScoringRule::kWeighted, market::ScoringRule::kPerJob}) {
    const market::AuctionEngine engine(market::ClearingRule::kVickrey, rule,
                                       0.6, true, true);
    for (int trial = 0; trial < 200; ++trial) {
      cluster::Job job = auction_job(rng.uniform(50.0, 150.0),
                                     rng.uniform(400.0, 1200.0));
      job.opt = rng.bernoulli(0.5) ? cluster::Optimization::kTime
                                   : cluster::Optimization::kCost;
      const auto n = rng.uniform_int(1, 16);
      std::vector<market::Bid> bids;
      for (std::uint64_t b = 0; b < n; ++b) {
        bids.push_back({static_cast<federation::ParticipantId>(b),
                        rng.uniform(5.0, 160.0), rng.uniform(100.0, 1500.0),
                        rng.bernoulli(0.9)});
      }
      const auto full = engine.clear(job, bids);

      const std::size_t k = 2 + static_cast<std::size_t>(trial % 4);
      // What the relays deliver: the k best admissible bids (the rest
      // arrive as tombstones and never enter the book's ranking).
      const auto qos = market::JobQos::of(job);
      std::vector<market::Bid> kept;
      for (const auto& bid : bids) {
        if (engine.scorer().admissible(qos, bid)) kept.push_back(bid);
      }
      std::sort(kept.begin(), kept.end(),
                [&](const market::Bid& a, const market::Bid& b) {
                  return market::BidScorer::rank_less(
                      engine.scorer().score(qos, a), a,
                      engine.scorer().score(qos, b), b);
                });
      if (kept.size() > k) {
        kept.resize(k);
        ++deep_books;
      }
      const auto pruned = engine.clear(job, kept);

      ASSERT_EQ(pruned.size(), std::min(full.size(), k));
      for (std::size_t i = 0; i < pruned.size(); ++i) {
        EXPECT_EQ(pruned[i].bid.bidder, full[i].bid.bidder)
            << "rule " << static_cast<int>(rule) << " trial " << trial
            << " pos " << i;
        // The last kept position falls back to the reserve price when
        // the full book still had a next ask below it — every earlier
        // position (the winner included, since k >= 2) must settle
        // identically.
        if (i + 1 < pruned.size() || full.size() == pruned.size()) {
          EXPECT_DOUBLE_EQ(pruned[i].payment, full[i].payment)
              << "rule " << static_cast<int>(rule) << " trial " << trial
              << " pos " << i;
        }
      }
    }
  }
  // The sweep must actually have pruned something.
  EXPECT_GT(deep_books, 100u);
}

// ---- bid pricing ------------------------------------------------------------

TEST(BidPricing, TrueCostBidsExactlyCost) {
  EXPECT_DOUBLE_EQ(market::bid_price(market::BidPricingStrategy::kTrueCost,
                                     40.0, 0.9, 0.5, {}),
                   40.0);
}

TEST(BidPricing, MarkupAddsMargin) {
  EXPECT_DOUBLE_EQ(market::bid_price(market::BidPricingStrategy::kMarkup,
                                     40.0, 0.9, 0.25, {}),
                   50.0);
}

TEST(BidPricing, LoadAdaptiveScalesWithLoad) {
  const economy::DynamicPricingConfig pricing;  // eta 0.5, target 0.7
  const double busy = market::bid_price(
      market::BidPricingStrategy::kLoadAdaptive, 40.0, 1.0, 0.0, pricing);
  const double idle = market::bid_price(
      market::BidPricingStrategy::kLoadAdaptive, 40.0, 0.0, 0.0, pricing);
  const double at_target = market::bid_price(
      market::BidPricingStrategy::kLoadAdaptive, 40.0, 0.7, 0.0, pricing);
  EXPECT_GT(busy, 40.0);
  EXPECT_LT(idle, 40.0);
  EXPECT_DOUBLE_EQ(at_target, 40.0);
}

TEST(BidPricing, InvalidInputsRejected) {
  EXPECT_ANY_THROW((void)market::bid_price(
      market::BidPricingStrategy::kTrueCost, -1.0, 0.5, 0.0, {}));
  EXPECT_ANY_THROW((void)market::bid_price(
      market::BidPricingStrategy::kTrueCost, 1.0, 1.5, 0.0, {}));
}

TEST(MarketNames, ToStringCoversEveryValue) {
  EXPECT_STREQ(to_string(market::ClearingRule::kFirstPrice), "first-price");
  EXPECT_STREQ(to_string(market::ClearingRule::kVickrey), "vickrey");
  EXPECT_STREQ(to_string(market::BidPricingStrategy::kTrueCost), "true-cost");
  EXPECT_STREQ(to_string(market::BidPricingStrategy::kMarkup), "markup");
  EXPECT_STREQ(to_string(market::BidPricingStrategy::kLoadAdaptive),
               "load-adaptive");
  EXPECT_STREQ(to_string(core::SchedulingMode::kAuction),
               "federation+auction");
}

// ---- end-to-end kAuction mode ----------------------------------------------

std::vector<cluster::ResourceSpec> two_clusters() {
  std::vector<cluster::ResourceSpec> specs = {
      {"cheap", 64, 250.0, 1.0, 0.0},
      {"fast", 8, 400.0, 1.0, 0.0},
  };
  economy::apply_commodity_pricing(specs, 4.0);  // cheap=2.5, fast=4.0
  return specs;
}

core::FederationConfig auction_config(
    market::ClearingRule rule = market::ClearingRule::kFirstPrice) {
  core::FederationConfig cfg;
  cfg.mode = core::SchedulingMode::kAuction;
  cfg.auction.clearing = rule;
  cfg.window = 10000.0;
  return cfg;
}

workload::ResourceTrace one_job(cluster::ResourceIndex resource,
                                double submit, double runtime,
                                std::uint32_t procs,
                                std::uint32_t user = 0) {
  workload::ResourceTrace t;
  t.resource = resource;
  t.jobs.push_back(workload::TraceJob{submit, runtime, procs, user});
  return t;
}

TEST(AuctionMode, JobMigratesToCheapestBidder) {
  // A job originating at the expensive cluster: both clusters bid true
  // cost, "cheap" asks less and wins.  Message trail: call-for-bids + bid
  // + award + reply + submission + completion = 6.
  core::Federation fed(auction_config(), two_clusters());
  fed.load_workload({one_job(1, 0.0, 100.0, 4)},
                    workload::PopulationProfile{0});
  const auto result = fed.run();
  ASSERT_EQ(result.total_accepted, 1u);
  EXPECT_EQ(result.resources[1].migrated, 1u);
  EXPECT_EQ(result.resources[0].remote_processed, 1u);
  EXPECT_EQ(result.total_messages, 6u);
  EXPECT_EQ(result.messages_by_type[0], 0u);  // negotiate (DBC only)
  EXPECT_EQ(result.messages_by_type[1], 1u);  // reply
  EXPECT_EQ(result.messages_by_type[2], 1u);  // submission
  EXPECT_EQ(result.messages_by_type[3], 1u);  // completion
  EXPECT_EQ(result.messages_by_type[4], 1u);  // call-for-bids
  EXPECT_EQ(result.messages_by_type[5], 1u);  // bid
  EXPECT_EQ(result.messages_by_type[6], 1u);  // award
  // First price, true-cost bidding: the winner is paid its posted price.
  const auto& outcome = fed.outcomes().front();
  EXPECT_DOUBLE_EQ(outcome.cost, 2.5 * outcome.job.length_mi / 1000.0);
  EXPECT_EQ(result.auctions.held, 1u);
  EXPECT_EQ(result.auctions.awarded, 1u);
  EXPECT_DOUBLE_EQ(result.auctions.bids_per_auction.mean(), 2.0);
  EXPECT_TRUE(fed.bank().balanced());
}

TEST(AuctionMode, VickreyWinnerPaidSecondPriceAndBankBalances) {
  // Same scenario under Vickrey: "cheap" still wins but is paid the
  // second-lowest ask — the origin's own true cost (quote 4.0).
  core::Federation fed(auction_config(market::ClearingRule::kVickrey),
                       two_clusters());
  fed.load_workload({one_job(1, 0.0, 100.0, 4)},
                    workload::PopulationProfile{0});
  const auto result = fed.run();
  ASSERT_EQ(result.total_accepted, 1u);
  EXPECT_EQ(result.resources[1].migrated, 1u);
  const auto& outcome = fed.outcomes().front();
  EXPECT_DOUBLE_EQ(outcome.cost, 4.0 * outcome.job.length_mi / 1000.0);
  EXPECT_GT(result.auctions.winner_surplus.mean(), 0.0);
  EXPECT_TRUE(fed.bank().balanced());
  EXPECT_NEAR(result.total_incentive, outcome.cost, 1e-12);
}

TEST(AuctionMode, ZeroBiddersFallsBackToDbcWalk) {
  // A single-cluster federation with origin_bids off: the book closes
  // empty, the job falls back to the DBC walk and runs locally for free.
  auto cfg = auction_config();
  cfg.auction.origin_bids = false;
  core::Federation fed(cfg, {two_clusters()[0]});
  fed.load_workload({one_job(0, 0.0, 100.0, 4)},
                    workload::PopulationProfile{0});
  const auto result = fed.run();
  EXPECT_EQ(result.total_accepted, 1u);
  EXPECT_EQ(result.resources[0].processed_locally, 1u);
  EXPECT_EQ(result.total_messages, 0u);
  EXPECT_EQ(result.auctions.held, 1u);
  EXPECT_EQ(result.auctions.unfilled, 1u);
  EXPECT_EQ(result.auctions.awarded, 0u);
}

TEST(AuctionMode, ZeroBiddersRejectsWhenFallbackDisabled) {
  auto cfg = auction_config();
  cfg.auction.origin_bids = false;
  cfg.auction.fallback_to_dbc = false;
  core::Federation fed(cfg, {two_clusters()[0]});
  fed.load_workload({one_job(0, 0.0, 100.0, 4)},
                    workload::PopulationProfile{0});
  const auto result = fed.run();
  EXPECT_EQ(result.total_accepted, 0u);
  EXPECT_EQ(result.total_rejected, 1u);
  EXPECT_EQ(result.auctions.unfilled, 1u);
}

TEST(AuctionMode, BudgetInfeasibleBidsFallBackToDbc) {
  // A prohibitive markup prices every ask above the 2x fabricated budget:
  // the book clears empty and the DBC fallback (posted prices) serves the
  // job instead.
  auto cfg = auction_config();
  cfg.auction.bid_pricing = market::BidPricingStrategy::kMarkup;
  cfg.auction.markup = 10.0;  // ask = 11x cost > 2x budget everywhere
  cfg.auction.origin_bids = false;
  core::Federation fed(cfg, two_clusters());
  fed.load_workload({one_job(1, 0.0, 100.0, 4)},
                    workload::PopulationProfile{0});
  const auto result = fed.run();
  EXPECT_EQ(result.total_accepted, 1u);
  EXPECT_EQ(result.auctions.held, 1u);
  EXPECT_EQ(result.auctions.unfilled, 1u);
  // The fallback walked the posted-price ranking: a normal DBC settlement.
  const auto& outcome = fed.outcomes().front();
  EXPECT_DOUBLE_EQ(outcome.cost, 2.5 * outcome.job.length_mi / 1000.0);
  EXPECT_TRUE(fed.bank().balanced());
}

TEST(AuctionMode, TieBreakDeterministicAcrossSeeds) {
  // Three identical clusters: every remote ask ties, so the clearing
  // tie-break (lower index) decides — and the seed must not matter.
  for (const std::uint64_t seed : {1ULL, 42ULL, 999ULL}) {
    std::vector<cluster::ResourceSpec> specs = {
        {"a", 16, 300.0, 1.0, 3.0},
        {"b", 16, 300.0, 1.0, 3.0},
        {"c", 16, 300.0, 1.0, 3.0},
    };
    auto cfg = auction_config();
    cfg.auction.origin_bids = false;
    cfg.seed = seed;
    core::Federation fed(cfg, specs);
    fed.load_workload({one_job(2, 0.0, 100.0, 4)},
                      workload::PopulationProfile{0});
    (void)fed.run();
    ASSERT_EQ(fed.outcomes().size(), 1u);
    EXPECT_TRUE(fed.outcomes().front().accepted);
    EXPECT_EQ(fed.outcomes().front().executed_on, 0u) << "seed " << seed;
  }
}

TEST(AuctionMode, BankBalancedOverBusyVickreyRun) {
  // A saturating workload under Vickrey: every settlement (auction wins,
  // self-awards, DBC fallbacks) must keep the double-entry ledger exact.
  core::Federation fed(auction_config(market::ClearingRule::kVickrey),
                       two_clusters());
  std::vector<workload::ResourceTrace> traces;
  for (std::uint32_t i = 0; i < 40; ++i) {
    traces.push_back(one_job(i % 2, i * 20.0, 300.0 + 13.0 * i,
                             1u << (i % 4), i % 5));
  }
  fed.load_workload(traces, workload::PopulationProfile{30});
  const auto result = fed.run();
  EXPECT_EQ(result.total_jobs, 40u);
  EXPECT_TRUE(fed.bank().balanced());
  double cost_sum = 0.0;
  for (const auto& o : fed.outcomes()) {
    if (o.accepted) cost_sum += o.cost;
  }
  EXPECT_NEAR(result.total_incentive, cost_sum,
              1e-9 * std::max(1.0, cost_sum));
  EXPECT_EQ(result.auctions.held, 40u);
}

TEST(AuctionMode, AcceptedJobsMeetDeadlines) {
  core::Federation fed(auction_config(), two_clusters());
  std::vector<workload::ResourceTrace> traces;
  for (std::uint32_t i = 0; i < 30; ++i) {
    traces.push_back(one_job(i % 2, i * 15.0, 200.0 + 11.0 * i,
                             1u << (i % 4), i));
  }
  fed.load_workload(traces, workload::PopulationProfile{50});
  (void)fed.run();
  for (const auto& outcome : fed.outcomes()) {
    if (!outcome.accepted) continue;
    EXPECT_LE(outcome.completion, outcome.job.absolute_deadline() + 1e-6)
        << "job " << outcome.job.id;
  }
}

TEST(AuctionMode, PerJobMessagesSumToLedgerTotal) {
  core::Federation fed(auction_config(), two_clusters());
  std::vector<workload::ResourceTrace> traces;
  for (std::uint32_t i = 0; i < 30; ++i) {
    traces.push_back(one_job(i % 2, i * 25.0, 400.0, 4, i));
  }
  fed.load_workload(traces, workload::PopulationProfile{50});
  const auto result = fed.run();
  double per_job_sum = 0.0;
  for (const auto& o : fed.outcomes()) {
    per_job_sum += static_cast<double>(o.messages);
  }
  EXPECT_DOUBLE_EQ(per_job_sum, static_cast<double>(result.total_messages));
}

TEST(AuctionMode, MaxBiddersCapsSolicitation) {
  std::vector<cluster::ResourceSpec> specs = {
      {"a", 16, 300.0, 1.0, 0.0},
      {"b", 16, 310.0, 1.0, 0.0},
      {"c", 16, 320.0, 1.0, 0.0},
      {"d", 16, 330.0, 1.0, 0.0},
  };
  economy::apply_commodity_pricing(specs, 4.0);
  auto cfg = auction_config();
  cfg.auction.max_bidders = 2;
  cfg.auction.origin_bids = false;
  core::Federation fed(cfg, specs);
  fed.load_workload({one_job(3, 0.0, 100.0, 4)},
                    workload::PopulationProfile{0});
  const auto result = fed.run();
  EXPECT_EQ(result.total_accepted, 1u);
  EXPECT_DOUBLE_EQ(result.auctions.solicited_per_auction.mean(), 2.0);
  // 2 call-for-bids + 2 bids + award + reply + submission + completion.
  EXPECT_EQ(result.total_messages, 8u);
}

TEST(AuctionMode, DeterministicUnderDropsAndTimeouts) {
  // Lossy bids force timeout clearings; identical seeds must still agree.
  auto cfg = auction_config();
  cfg.message_drop_rate = 0.2;
  cfg.negotiate_timeout = 30.0;
  cfg.auction.bid_timeout = 30.0;
  cfg.network_latency = 1.0;
  cfg.seed = 4242;
  auto run_once = [&] {
    core::Federation fed(cfg, two_clusters());
    std::vector<workload::ResourceTrace> traces;
    for (std::uint32_t i = 0; i < 25; ++i) {
      traces.push_back(one_job(i % 2, i * 30.0, 250.0, 2, i));
    }
    fed.load_workload(traces, workload::PopulationProfile{40});
    return fed.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_accepted, b.total_accepted);
  EXPECT_DOUBLE_EQ(a.total_incentive, b.total_incentive);
  EXPECT_EQ(a.auctions.held, b.auctions.held);
  EXPECT_EQ(a.total_jobs, 25u);
}

TEST(AuctionMode, LossyAuctionRequiresBidTimeout) {
  auto cfg = auction_config();
  cfg.message_drop_rate = 0.1;
  cfg.negotiate_timeout = 30.0;
  cfg.auction.bid_timeout = 0.0;
  EXPECT_ANY_THROW(core::Federation(cfg, two_clusters()));
}

// ---- batched solicitation + book pool ---------------------------------------

TEST(AuctionBook, ReopenRewindsForTheNextJob) {
  market::AuctionBook book(7, {0, 1, 2});
  EXPECT_TRUE(book.add({0, 1.0, 10.0, true}));
  book.reopen(9, std::vector<federation::ParticipantId>{3u, 4u});
  EXPECT_EQ(book.job(), 9u);
  EXPECT_EQ(book.solicited(), 2u);
  EXPECT_TRUE(book.bids().empty());
  EXPECT_FALSE(book.complete());
  EXPECT_FALSE(book.add({0, 1.0, 10.0, true}));  // old bidder: unsolicited now
  EXPECT_TRUE(book.add({3, 2.0, 20.0, true}));
  EXPECT_TRUE(book.add({4, 2.5, 25.0, true}));
  EXPECT_TRUE(book.complete());
}

TEST(BookPool, ReusesReleasedBooks) {
  market::BookPool pool;
  auto a = pool.acquire(1, std::vector<federation::ParticipantId>{0u, 1u});
  EXPECT_EQ(pool.reuses(), 0u);
  pool.release(std::move(a));
  auto b = pool.acquire(2, std::vector<federation::ParticipantId>{0u, 1u, 2u});
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(b.job(), 2u);
  EXPECT_EQ(b.solicited(), 3u);
  EXPECT_FALSE(b.complete());
}

TEST(AuctionMode, SameTickSolicitationsCoalescePerProvider) {
  // Two jobs submitted at the same instant at the same origin: batching
  // folds their call-for-bids to each provider into ONE wire message and
  // the provider's answers into ONE bid message.
  auto cfg = auction_config();
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 0.0;  // same-tick coalescing only
  core::Federation fed(cfg, two_clusters());
  workload::ResourceTrace t;
  t.resource = 1;
  t.jobs.push_back(workload::TraceJob{0.0, 100.0, 4, 0});
  t.jobs.push_back(workload::TraceJob{0.0, 120.0, 4, 1});
  fed.load_workload({t}, workload::PopulationProfile{0});
  const auto result = fed.run();
  EXPECT_EQ(result.total_accepted, 2u);
  EXPECT_EQ(result.messages_by_type[4], 1u);  // call-for-bids: one batch
  EXPECT_EQ(result.messages_by_type[5], 1u);  // bid: one batched answer
  // Per-auction telemetry is batching-agnostic: both books saw the
  // provider's ask.
  EXPECT_EQ(result.auctions.held, 2u);
  EXPECT_DOUBLE_EQ(result.auctions.bids_per_auction.mean(), 2.0);
}

TEST(AuctionMode, WindowedSolicitationsCoalesceAcrossArrivals) {
  // Jobs 40 seconds apart coalesce under a 300 s batch window: the first
  // job's solicitation waits (its deadline slack allows it) and the
  // second's arrival rides in the same flush.
  auto cfg = auction_config();
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 300.0;
  core::Federation fed(cfg, two_clusters());
  workload::ResourceTrace t;
  t.resource = 1;
  t.jobs.push_back(workload::TraceJob{0.0, 2000.0, 4, 0});
  t.jobs.push_back(workload::TraceJob{40.0, 2400.0, 4, 1});
  fed.load_workload({t}, workload::PopulationProfile{0});
  const auto result = fed.run();
  EXPECT_EQ(result.total_accepted, 2u);
  EXPECT_EQ(result.messages_by_type[4], 1u);  // one coalesced call-for-bids
  EXPECT_EQ(result.messages_by_type[5], 1u);
}

TEST(AuctionMode, ZeroWindowBatchingMatchesUnbatchedOnSpreadArrivals) {
  // With a zero batch window and arrivals at distinct instants, batching
  // degenerates to the per-job protocol: every headline number must be
  // identical to the unbatched run with the same seed.
  auto traces = [] {
    std::vector<workload::ResourceTrace> ts;
    for (std::uint32_t i = 0; i < 20; ++i) {
      ts.push_back(one_job(i % 2, 13.0 + i * 37.0, 300.0, 4, i));
    }
    return ts;
  };
  auto run_with = [&](bool batched) {
    auto cfg = auction_config();
    cfg.auction.batch_solicitations = batched;
    cfg.auction.solicit_batch_window = 0.0;
    core::Federation fed(cfg, two_clusters());
    fed.load_workload(traces(), workload::PopulationProfile{30});
    return fed.run();
  };
  const auto unbatched = run_with(false);
  const auto batched = run_with(true);
  EXPECT_EQ(batched.total_messages, unbatched.total_messages);
  EXPECT_EQ(batched.total_accepted, unbatched.total_accepted);
  EXPECT_DOUBLE_EQ(batched.total_incentive, unbatched.total_incentive);
  EXPECT_EQ(batched.auctions.held, unbatched.auctions.held);
  EXPECT_DOUBLE_EQ(batched.auctions.bids_per_auction.mean(),
                   unbatched.auctions.bids_per_auction.mean());
}

TEST(AuctionMode, BatchedPerJobMessagesSumToLedgerTotal) {
  // The batch message is attributed to exactly one job, so the per-job
  // counters must still sum to the federation-wide ledger total.
  auto cfg = auction_config();
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 200.0;
  core::Federation fed(cfg, two_clusters());
  std::vector<workload::ResourceTrace> traces;
  for (std::uint32_t i = 0; i < 30; ++i) {
    traces.push_back(one_job(i % 2, i * 25.0, 400.0, 4, i));
  }
  fed.load_workload(traces, workload::PopulationProfile{50});
  const auto result = fed.run();
  double per_job_sum = 0.0;
  for (const auto& o : fed.outcomes()) {
    per_job_sum += static_cast<double>(o.messages);
  }
  EXPECT_DOUBLE_EQ(per_job_sum, static_cast<double>(result.total_messages));
  EXPECT_EQ(result.total_jobs, 30u);
}

TEST(AuctionMode, BatchingIsDeterministic) {
  auto run_once = [] {
    auto cfg = auction_config();
    cfg.auction.batch_solicitations = true;
    cfg.auction.solicit_batch_window = 250.0;
    cfg.seed = 777;
    core::Federation fed(cfg, two_clusters());
    std::vector<workload::ResourceTrace> traces;
    for (std::uint32_t i = 0; i < 40; ++i) {
      traces.push_back(one_job(i % 2, i * 11.0, 350.0, 2, i));
    }
    fed.load_workload(traces, workload::PopulationProfile{40});
    return fed.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_accepted, b.total_accepted);
  EXPECT_DOUBLE_EQ(a.total_incentive, b.total_incentive);
  EXPECT_EQ(a.auctions.held, b.auctions.held);
}

// ---- the book's bidder index against a linear scan --------------------------

/// The book's answer bookkeeping as a linear scan of the solicited list:
/// the reference the hashed bidder index must reproduce.
class ScanBook {
 public:
  void reopen(const std::vector<federation::ParticipantId>& solicited) {
    solicited_ = solicited;
    answered_.assign(solicited_.size(), false);
    outstanding_ = solicited_.size();
    pruned_ = 0;
    bids_.clear();
  }

  bool add(const market::Bid& bid) {
    for (std::size_t i = 0; i < solicited_.size(); ++i) {
      if (solicited_[i] != bid.bidder) continue;
      if (answered_[i]) return false;  // duplicate
      answered_[i] = true;
      --outstanding_;
      bids_.push_back(bid);
      return true;
    }
    return false;  // unsolicited
  }

  bool add_pruned(federation::ParticipantId bidder) {
    for (std::size_t i = 0; i < solicited_.size(); ++i) {
      if (solicited_[i] != bidder) continue;
      if (answered_[i]) return false;  // duplicate
      answered_[i] = true;
      --outstanding_;
      ++pruned_;
      return true;
    }
    return false;  // unsolicited
  }

  [[nodiscard]] bool complete() const { return outstanding_ == 0; }
  [[nodiscard]] std::size_t pruned() const { return pruned_; }
  [[nodiscard]] const std::vector<market::Bid>& bids() const { return bids_; }

 private:
  std::vector<federation::ParticipantId> solicited_;
  std::vector<bool> answered_;
  std::size_t outstanding_ = 0;
  std::size_t pruned_ = 0;
  std::vector<market::Bid> bids_;
};

/// A different id with `id`'s low bits under every index mask this test
/// reaches (tables of at most 1024 cells): the coalition across
/// kCoalitionBase from a cluster (kCoalitionBase + 3 beside cluster 3)
/// or the other way round, or `id` shifted by a multiple of 1024.
federation::ParticipantId low_bits_alias(sim::Rng& rng,
                                         federation::ParticipantId id) {
  federation::ParticipantId alias;
  alias.value =
      rng.bernoulli(0.5)
          ? id.value ^ federation::kCoalitionBase
          : id.value + 1024u * static_cast<std::uint32_t>(
                                   rng.uniform_int(1, 4));
  return alias;
}

/// `n` solicited participants: clusters, low-bits aliases of earlier
/// entries, and now and then an entry solicited twice.
std::vector<federation::ParticipantId> colliding_solicitation(
    sim::Rng& rng, std::size_t n) {
  std::vector<federation::ParticipantId> solicited;
  while (solicited.size() < n) {
    if (solicited.empty() || rng.bernoulli(0.5)) {
      solicited.emplace_back(
          static_cast<cluster::ResourceIndex>(rng.uniform_int(0, 199)));
      continue;
    }
    const auto earlier = solicited[rng.uniform_int(0, solicited.size() - 1)];
    solicited.push_back(rng.bernoulli(0.9) ? low_bits_alias(rng, earlier)
                                           : earlier);
  }
  return solicited;
}

TEST(AuctionBook, BidderIndexMatchesLinearScan) {
  sim::Rng rng(515);
  market::BookPool pool;
  ScanBook reference;
  // One pooled book throughout: it reopens smaller, then larger, first.
  const std::vector<std::size_t> first_sizes = {100, 3, 120, 0, 1, 64};
  constexpr std::size_t kRounds = 300;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::size_t n = round < first_sizes.size()
                              ? first_sizes[round]
                              : rng.uniform_int(0, 120);
    const auto solicited = colliding_solicitation(rng, n);
    market::AuctionBook book = pool.acquire(round, solicited);
    reference.reopen(solicited);
    ASSERT_EQ(book.complete(), reference.complete()) << "round " << round;
    for (std::size_t op = 0; op < 3 * n + 4; ++op) {
      // Solicited bidders (duplicates among them), unsolicited ids that
      // share a solicited id's low bits, and random ids.
      federation::ParticipantId bidder;
      const double u = rng.uniform01();
      if (n > 0 && u < 0.55) {
        bidder = solicited[rng.uniform_int(0, n - 1)];
      } else if (n > 0 && u < 0.9) {
        bidder = low_bits_alias(rng, solicited[rng.uniform_int(0, n - 1)]);
      } else {
        bidder.value = static_cast<std::uint32_t>(rng());
      }
      if (rng.bernoulli(0.25)) {
        ASSERT_EQ(book.add_pruned(bidder), reference.add_pruned(bidder))
            << "round " << round << " op " << op;
      } else {
        const market::Bid bid{bidder, rng.uniform(0.0, 100.0),
                              rng.uniform(0.0, 1e4), rng.bernoulli(0.8)};
        ASSERT_EQ(book.add(bid), reference.add(bid))
            << "round " << round << " op " << op;
      }
      ASSERT_EQ(book.complete(), reference.complete())
          << "round " << round << " op " << op;
      ASSERT_EQ(book.pruned(), reference.pruned())
          << "round " << round << " op " << op;
    }
    const auto& got = book.bids();
    const auto& want = reference.bids();
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].bidder, want[i].bidder) << "round " << round;
      ASSERT_EQ(got[i].ask, want[i].ask) << "round " << round;
      ASSERT_EQ(got[i].completion_estimate, want[i].completion_estimate);
      ASSERT_EQ(got[i].feasible, want[i].feasible);
    }
    pool.release(std::move(book));
  }
  EXPECT_EQ(pool.reuses(), kRounds - 1);
}

// ---- lazy ranking against a full sort ---------------------------------------

/// Clearing as a full sort of the feasible bids, priced position by
/// position: the reference the lazy Ranking must reproduce award by award.
std::vector<market::Award> sorted_clear(const market::BidScorer& scorer,
                                        market::ClearingRule rule,
                                        const cluster::Job& job,
                                        const std::vector<market::Bid>& bids) {
  struct Scored {
    market::Bid bid;
    double score;
  };
  const market::JobQos qos = market::JobQos::of(job);
  std::vector<Scored> feasible;
  feasible.reserve(bids.size());
  for (const market::Bid& bid : bids) {
    if (!scorer.admissible(qos, bid)) continue;
    feasible.push_back(Scored{bid, scorer.score(qos, bid)});
  }
  std::sort(feasible.begin(), feasible.end(),
            [](const Scored& a, const Scored& b) {
              return market::BidScorer::rank_less(a.score, a.bid, b.score,
                                                  b.bid);
            });
  std::vector<market::Award> ranking;
  ranking.reserve(feasible.size());
  for (std::size_t i = 0; i < feasible.size(); ++i) {
    double payment = feasible[i].bid.ask;
    if (rule == market::ClearingRule::kVickrey) {
      if (i + 1 < feasible.size()) {
        payment = std::max(feasible[i].bid.ask, feasible[i + 1].bid.ask);
      } else if (scorer.enforce_budget()) {
        payment = job.budget;
      }
    }
    ranking.push_back(market::Award{feasible[i].bid, payment});
  }
  return ranking;
}

TEST(AuctionRanking, LazyExtractionMatchesFullSort) {
  sim::Rng rng(4242);
  // Which rank_less key separated each adjacent pair of the reference:
  // score, ask, completion estimate, participant id.
  std::size_t decided_by[4] = {0, 0, 0, 0};
  std::size_t books = 0;
  for (const auto rule :
       {market::ClearingRule::kFirstPrice, market::ClearingRule::kVickrey}) {
    for (const auto scoring :
         {market::ScoringRule::kPrice, market::ScoringRule::kCompletion,
          market::ScoringRule::kWeighted, market::ScoringRule::kPerJob}) {
      for (const bool enforce_budget : {false, true}) {
        const market::AuctionEngine engine(rule, scoring, 0.5, enforce_budget,
                                           true);
        for (int b = 0; b < 25; ++b, ++books) {
          cluster::Job job = auction_job(50.0, 1000.0);
          job.opt = rng.bernoulli(0.5) ? cluster::Optimization::kTime
                                       : cluster::Optimization::kCost;
          // Distinct bidders, clusters and coalitions, on coarse ask and
          // completion grids so scores, asks and estimates all tie; some
          // asks exceed the budget and some estimates the deadline.
          const std::size_t n = rng.uniform_int(0, 120);
          std::vector<market::Bid> bids;
          for (std::uint32_t i = 0; i < n; ++i) {
            market::Bid bid;
            bid.bidder.value =
                rng.bernoulli(0.2) ? federation::kCoalitionBase + i : i;
            bid.ask = 10.0 * static_cast<double>(rng.uniform_int(0, 7));
            bid.completion_estimate =
                200.0 * static_cast<double>(rng.uniform_int(1, 6));
            bid.feasible = rng.bernoulli(0.9);
            bids.push_back(bid);
          }
          std::reverse(bids.begin(), bids.begin() + n / 2);

          const auto want = sorted_clear(engine.scorer(), rule, job, bids);
          for (std::size_t i = 0; i + 1 < want.size(); ++i) {
            const market::Bid& x = want[i].bid;
            const market::Bid& y = want[i + 1].bid;
            const std::size_t key =
                engine.score(job, x) != engine.score(job, y) ? 0
                : x.ask != y.ask                             ? 1
                : x.completion_estimate != y.completion_estimate ? 2
                                                                 : 3;
            ++decided_by[key];
          }

          market::Ranking ranking = engine.rank(job, bids);
          for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(ranking.size(), want.size() - i) << "book " << books;
            const market::Award got = ranking.front();
            ASSERT_EQ(got.bid.bidder, want[i].bid.bidder)
                << "book " << books << " award " << i;
            ASSERT_EQ(got.payment, want[i].payment)
                << "book " << books << " award " << i;
            const market::Bid* next = ranking.runner_up();
            ASSERT_EQ(next != nullptr, i + 1 < want.size());
            if (next != nullptr) {
              ASSERT_EQ(next->bidder, want[i + 1].bid.bidder);
            }
            ranking.pop();
          }
          ASSERT_TRUE(ranking.empty()) << "book " << books;

          const auto cleared = engine.clear(job, bids);
          ASSERT_EQ(cleared.size(), want.size()) << "book " << books;
          for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(cleared[i].bid.bidder, want[i].bid.bidder);
            ASSERT_EQ(cleared[i].bid.ask, want[i].bid.ask);
            ASSERT_EQ(cleared[i].bid.completion_estimate,
                      want[i].bid.completion_estimate);
            ASSERT_EQ(cleared[i].payment, want[i].payment)
                << "book " << books << " award " << i;
          }
        }
      }
    }
  }
  EXPECT_EQ(books, 400u);
  for (const std::size_t count : decided_by) EXPECT_GT(count, 0u);
}

}  // namespace
}  // namespace gridfed
