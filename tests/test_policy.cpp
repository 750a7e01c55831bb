// Per-mode policy parity suite.  The SchedulingPolicy extraction moved
// every mode's scheduling logic out of the Gfa god class; these tests pin
// each refactored mode to the *seed implementation's* per-job outcomes
// and message counts, bit-identically, on the determinism workload (8
// Table 1 resources, two-day calibrated synthetic traces, default seed).
//
// The golden hashes below were captured from the pre-refactor tree (the
// monolithic Gfa at commit "PR 2"): core::outcome_digest, an FNV-style
// digest over every job's (id, accepted, executed_on, start, completion,
// cost, negotiations, messages) tuple in job-id order.  Any behavioural drift in a policy —
// a different rank walk, a changed message count, a perturbed award
// ranking — changes the digest.
//
// Also covers the policy layer's own seams: the stray-message defaults
// and the award piggybacking counters.

#include <gtest/gtest.h>

#include "cluster/catalog.hpp"
#include "core/experiment.hpp"
#include "core/outcome.hpp"
#include "workload/synthetic.hpp"

namespace gridfed {
namespace {

struct RunDigest {
  std::uint64_t hash = 0;
  std::uint64_t messages = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  stats::AuctionStats auctions;
};

RunDigest digest(const core::FederationConfig& cfg, std::uint32_t oft) {
  auto specs = cluster::replicated_specs(8);
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
                   result.total_messages, result.total_accepted,
                   result.total_rejected, result.auctions};
}

void expect_seed_identical(const RunDigest& d, std::uint64_t hash,
                           std::uint64_t messages, std::uint64_t accepted,
                           std::uint64_t rejected) {
  EXPECT_EQ(d.hash, hash);
  EXPECT_EQ(d.messages, messages);
  EXPECT_EQ(d.accepted, accepted);
  EXPECT_EQ(d.rejected, rejected);
}

// ---- parity with the pre-refactor Gfa ---------------------------------------

TEST(PolicyParity, IndependentReproducesSeed) {
  const auto d =
      digest(core::make_config(core::SchedulingMode::kIndependent), 0);
  expect_seed_identical(d, 0x6ec2c1006e3a08ebULL, 0, 2453, 209);
}

TEST(PolicyParity, NoEconomyReproducesSeed) {
  const auto d = digest(
      core::make_config(core::SchedulingMode::kFederationNoEconomy), 0);
  expect_seed_identical(d, 0xbaf2d890e647929cULL, 5138, 2657, 5);
}

TEST(PolicyParity, DbcReproducesSeedAtOft30) {
  const auto d = digest(core::make_config(core::SchedulingMode::kEconomy), 30);
  expect_seed_identical(d, 0x2514c40b32638affULL, 14758, 2659, 3);
}

TEST(PolicyParity, DbcReproducesSeedAtOft70) {
  const auto d = digest(core::make_config(core::SchedulingMode::kEconomy), 70);
  expect_seed_identical(d, 0x931abf9956ce5c1cULL, 20438, 2660, 2);
}

TEST(PolicyParity, AuctionFirstPriceReproducesSeed) {
  const auto d = digest(core::make_config(core::SchedulingMode::kAuction), 30);
  expect_seed_identical(d, 0xade2c15285cc51f7ULL, 45550, 2657, 5);
}

TEST(PolicyParity, AuctionVickreyReproducesSeed) {
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.auction.clearing = market::ClearingRule::kVickrey;
  const auto d = digest(cfg, 30);
  expect_seed_identical(d, 0x7ebc87bb170eac07ULL, 45550, 2657, 5);
}

TEST(PolicyParity, AuctionBatchedSolicitationReproducesSeed) {
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 300.0;
  const auto d = digest(cfg, 30);
  expect_seed_identical(d, 0xce9c52fe69546cbcULL, 27796, 2657, 5);
}

TEST(PolicyParity, DbcUnderFailureInjectionReproducesSeed) {
  auto cfg = core::make_config(core::SchedulingMode::kEconomy);
  cfg.message_drop_rate = 0.25;
  cfg.negotiate_timeout = 30.0;
  cfg.network_latency = 1.0;
  const auto d = digest(cfg, 30);
  expect_seed_identical(d, 0x18b7102689a07598ULL, 13672, 2530, 132);
}

// ---- policy-layer seams -----------------------------------------------------

TEST(PolicyLayer, StrayAuctionMessagesIgnoredOutsideAuctionMode) {
  // A kCallForBids or kBid delivered to a DBC-mode agent hits the base
  // policy's default handlers and is dropped without effect.
  const auto cfg = core::make_config(core::SchedulingMode::kEconomy);
  auto specs = cluster::table1_specs();
  core::Federation fed(cfg, specs);
  cluster::Job job;
  job.id = 42;
  job.origin = 1;
  job.processors = 1;
  core::Message stray{core::MessageType::kCallForBids, 1, 0, job};
  fed.gfa(0).receive(stray);
  stray.type = core::MessageType::kBid;
  fed.gfa(0).receive(stray);
  EXPECT_EQ(fed.gfa(0).scheduling_policy().open_auctions(), 0u);
  EXPECT_EQ(fed.gfa(0).scheduling_policy().counters().awards_piggybacked, 0u);
}

TEST(PolicyLayer, MultiAttributeScoringBuysResponseTimeForOftUsers) {
  // At a 100% OFT population the per-job scoring rule must clear on
  // completion-weighted scores and measurably cut mean response time
  // against the price-only market (the fig4 auction-section claim).
  auto price = core::make_config(core::SchedulingMode::kAuction);
  price.auction.scoring = market::ScoringRule::kPrice;
  auto perjob = core::make_config(core::SchedulingMode::kAuction);
  perjob.auction.scoring = market::ScoringRule::kPerJob;
  const auto a = core::run_experiment(price, 8, 100);
  const auto b = core::run_experiment(perjob, 8, 100);
  EXPECT_LT(b.fed_response_excl.mean(), 0.9 * a.fed_response_excl.mean());
  // Same workload, same acceptance bar: the market clears the same jobs.
  EXPECT_EQ(a.total_accepted + a.total_rejected,
            b.total_accepted + b.total_rejected);
}

// ---- award piggybacking -----------------------------------------------------

TEST(Piggyback, AwardsRideTheSolicitationFlush) {
  // Piggybacking needs awards and open solicitations to overlap in time,
  // which only happens with nonzero message latency: under the paper's
  // instantaneous network the whole solicit/bid/award cascade runs in one
  // event instant and the flush queue is always empty at award time.
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.network_latency = 1.0;
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 300.0;
  const auto batched = digest(cfg, 30);
  EXPECT_EQ(batched.auctions.awards_piggybacked, 0u);  // off by default

  cfg.auction.piggyback_awards = true;
  const auto piggy = digest(cfg, 30);
  EXPECT_GT(piggy.auctions.awards_piggybacked, 0u);
  // Each ridden award saves (at least) its own wire message.
  EXPECT_LT(piggy.messages, batched.messages);
  EXPECT_EQ(piggy.accepted + piggy.rejected, 2662u);
}

TEST(Piggyback, NoOverlapUnderInstantaneousNetworkIsHarmless) {
  // With zero latency the flag is a no-op: nothing to ride, awards go
  // standalone, and results match plain batching bit-for-bit.
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 300.0;
  const auto batched = digest(cfg, 30);
  cfg.auction.piggyback_awards = true;
  const auto piggy = digest(cfg, 30);
  EXPECT_EQ(piggy.auctions.awards_piggybacked, 0u);
  EXPECT_EQ(piggy.hash, batched.hash);
  EXPECT_EQ(piggy.messages, batched.messages);
}

TEST(Piggyback, DeterministicUnderPiggybacking) {
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.network_latency = 1.0;
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 300.0;
  cfg.auction.piggyback_awards = true;
  const auto a = digest(cfg, 30);
  const auto b = digest(cfg, 30);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.auctions.awards_piggybacked, b.auctions.awards_piggybacked);
}

}  // namespace
}  // namespace gridfed
