// Transport-layer suite.  The delivery-path extraction moved the old
// Federation::send() seam behind transport::Transport; these tests pin
//
//  * DirectTransport to the seed implementation's per-job outcomes
//    bit-identically (same golden FNV digests as tests/test_policy.cpp),
//    for all four scheduling modes;
//  * TreeTransport's topology invariants, determinism under seed
//    replay, and its headline property: fewer wire messages than the
//    batched direct baseline at scale, with every bid still delivered;
//  * failure injection through the transport seam: loss on the enquiry
//    channel (tree edge messages included) and duplication of the
//    idempotent acknowledgement legs (kReply/kBid), which must be
//    outcome-invisible by construction;
//  * the tree's edge cases — loss with duplication through the pruning
//    relay, and a root crash, repair and rejoin under coalitions — pinned
//    to recorded wire counts, and a warm relay flush that allocates
//    nothing;
//  * MessageArena lifetime: batched payload storage must outlive every
//    in-flight copy — dropped, duplicated or delayed (the CI sanitize
//    job runs this suite under ASan+UBSan).

#include <gtest/gtest.h>

#include <vector>

#include "alloc_counter.hpp"
#include "cluster/catalog.hpp"
#include "core/experiment.hpp"
#include "core/outcome.hpp"
#include "transport/message_arena.hpp"
#include "transport/tree_transport.hpp"
#include "workload/synthetic.hpp"

namespace gridfed {
namespace {

struct RunDigest {
  std::uint64_t hash = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t relays = 0;
  std::uint64_t dropped = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t pruned = 0;
  std::uint64_t prune_saved = 0;
  stats::AuctionStats auctions;
};

RunDigest digest(const core::FederationConfig& cfg, std::uint32_t oft,
                 std::size_t n_resources = 8) {
  auto specs = cluster::replicated_specs(n_resources);
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
                   result.total_messages, result.total_message_bytes,
                   result.overlay_relay_messages, fed.messages_dropped(),
                   result.total_accepted, result.total_rejected,
                   result.bids_pruned, result.bid_prune_bytes_saved,
                   result.auctions};
}

core::FederationConfig tree_config(core::SchedulingMode mode) {
  auto cfg = core::make_config(mode);
  cfg.transport.kind = transport::TransportKind::kTree;
  return cfg;
}

// ---- DirectTransport: parity with the pre-transport seam --------------------
// Golden digests captured from the pre-refactor tree (the hard-wired
// Federation::send() at commit "PR 3"); identical to test_policy.cpp.

TEST(DirectTransport, IndependentReproducesSeed) {
  auto cfg = core::make_config(core::SchedulingMode::kIndependent);
  cfg.transport.kind = transport::TransportKind::kDirect;  // explicit
  const auto d = digest(cfg, 0);
  EXPECT_EQ(d.hash, 0x6ec2c1006e3a08ebULL);
  EXPECT_EQ(d.messages, 0u);
}

TEST(DirectTransport, NoEconomyReproducesSeed) {
  const auto d =
      digest(core::make_config(core::SchedulingMode::kFederationNoEconomy), 0);
  EXPECT_EQ(d.hash, 0xbaf2d890e647929cULL);
  EXPECT_EQ(d.messages, 5138u);
}

TEST(DirectTransport, DbcReproducesSeed) {
  const auto d = digest(core::make_config(core::SchedulingMode::kEconomy), 30);
  EXPECT_EQ(d.hash, 0x2514c40b32638affULL);
  EXPECT_EQ(d.messages, 14758u);
}

TEST(DirectTransport, AuctionReproducesSeed) {
  const auto d = digest(core::make_config(core::SchedulingMode::kAuction), 30);
  EXPECT_EQ(d.hash, 0xade2c15285cc51f7ULL);
  EXPECT_EQ(d.messages, 45550u);
}

TEST(DirectTransport, BatchedAuctionReproducesSeed) {
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 300.0;
  const auto d = digest(cfg, 30);
  EXPECT_EQ(d.hash, 0xce9c52fe69546cbcULL);
  EXPECT_EQ(d.messages, 27796u);
  EXPECT_EQ(d.relays, 0u);  // no overlay on the direct transport
}

// ---- tree topology ----------------------------------------------------------

TEST(TreeTopology, HeapLayoutInvariants) {
  const auto cfg = tree_config(core::SchedulingMode::kAuction);
  auto specs = cluster::replicated_specs(50);
  core::Federation fed(cfg, specs);
  const auto* tree =
      dynamic_cast<const transport::TreeTransport*>(&fed.transport());
  ASSERT_NE(tree, nullptr);

  const cluster::ResourceIndex root = tree->root();
  EXPECT_EQ(tree->parent_of(root), root);
  for (cluster::ResourceIndex r = 0; r < 50; ++r) {
    // Every node reaches the root by climbing parents (no cycles), in
    // at most ceil(log_k n) steps for k = 4, n = 50 -> depth <= 3.
    cluster::ResourceIndex at = r;
    std::uint32_t climbs = 0;
    while (at != root) {
      at = tree->parent_of(at);
      ASSERT_LE(++climbs, 3u);
    }
    EXPECT_EQ(tree->path_hops(root, r), climbs);
    EXPECT_EQ(tree->path_hops(r, root), climbs);
    EXPECT_EQ(tree->path_hops(r, r), 0u);
  }
  // Path length is symmetric and bounded by twice the depth.
  for (cluster::ResourceIndex a = 0; a < 50; a += 7) {
    for (cluster::ResourceIndex b = 0; b < 50; b += 11) {
      EXPECT_EQ(tree->path_hops(a, b), tree->path_hops(b, a));
      EXPECT_LE(tree->path_hops(a, b), 6u);
    }
  }
}

// ---- tree transport: behaviour ---------------------------------------------

TEST(TreeTransport, DeterministicUnderSeedReplay) {
  auto cfg = tree_config(core::SchedulingMode::kAuction);
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 300.0;
  const auto a = digest(cfg, 30);
  const auto b = digest(cfg, 30);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.relays, b.relays);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_GT(a.relays, 0u);  // the fan-out actually rode the overlay
  // Every job resolved.
  EXPECT_EQ(a.accepted + a.rejected, 2662u);
}

TEST(TreeTransport, EveryBidStillReachesItsBook) {
  // The overlay delays and aggregates but must not lose anything under
  // a lossless network: books stay as thick as on the direct transport.
  auto direct = core::make_config(core::SchedulingMode::kAuction);
  direct.auction.batch_solicitations = true;
  direct.auction.solicit_batch_window = 300.0;
  auto tree = direct;
  tree.transport.kind = transport::TransportKind::kTree;
  const auto d = digest(direct, 30, 20);
  const auto t = digest(tree, 30, 20);
  EXPECT_EQ(t.auctions.held, d.auctions.held);
  EXPECT_DOUBLE_EQ(t.auctions.bids_per_auction.mean(),
                   d.auctions.bids_per_auction.mean());
  EXPECT_DOUBLE_EQ(t.auctions.solicited_per_auction.mean(),
                   d.auctions.solicited_per_auction.mean());
}

TEST(TreeTransport, CutsWireMessagesVersusBatchedDirectAtScale) {
  // The headline property at 20 clusters (fig10 extends this to 50):
  // epoch-shared tree edges must cut total wire messages well below the
  // per-(origin, provider) batched baseline without losing jobs.
  auto direct = core::make_config(core::SchedulingMode::kAuction);
  direct.auction.batch_solicitations = true;
  direct.auction.solicit_batch_window = 300.0;
  auto tree = direct;
  tree.transport.kind = transport::TransportKind::kTree;
  const auto d = digest(direct, 30, 20);
  const auto t = digest(tree, 30, 20);
  EXPECT_LT(static_cast<double>(t.messages),
            0.75 * static_cast<double>(d.messages));
  EXPECT_EQ(t.accepted + t.rejected, d.accepted + d.rejected);
  // Acceptance must not pay for the message win (within 1%).
  EXPECT_GE(static_cast<double>(t.accepted),
            0.99 * static_cast<double>(d.accepted));
}

TEST(TreeTransport, LadderFelMatchesHeapDigestAt50Clusters) {
  // The fig10 coalition column at 50 clusters.  Its fan-out epoch
  // boundary falls exactly on the window end, which is also the coarsest
  // ladder rung's end: keys stamped there must land in a live ladder
  // tier, or the run aborts.  The golden was recorded with a 4-ary heap
  // as the FEL, which pops the same keys in the same order.
  auto cfg = tree_config(core::SchedulingMode::kAuction);
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 300.0;
  cfg.coalitions.enabled = true;
  cfg.coalitions.bucket_size = 4;
  const auto d = digest(cfg, 30, 50);
  EXPECT_EQ(d.hash, 0xe7ae541517282d4aULL);
  EXPECT_EQ(d.messages, 158066u);
  EXPECT_EQ(d.bytes, 81442896u);
  EXPECT_EQ(d.relays, 96956u);
  EXPECT_EQ(d.accepted, 16552u);
}

TEST(TreeTransport, LossInjectionThroughTheSeam) {
  // A lost tree edge loses the whole subtree behind it; timeouts must
  // still resolve every job.
  auto cfg = tree_config(core::SchedulingMode::kAuction);
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 300.0;
  cfg.message_drop_rate = 0.2;
  cfg.negotiate_timeout = 200.0;  // > relayed hops + tree_epoch (120)
  cfg.network_latency = 1.0;
  cfg.auction.bid_timeout = 200.0;  // > 2 * latency + tree_epoch (120)
  const auto d = digest(cfg, 30);
  EXPECT_GT(d.dropped, 0u);
  EXPECT_EQ(d.accepted + d.rejected, 2662u);
  const auto replay = digest(cfg, 30);
  EXPECT_EQ(replay.hash, d.hash);
  EXPECT_EQ(replay.dropped, d.dropped);
}

// ---- duplication injection --------------------------------------------------

TEST(Duplication, IdempotentLegsAreOutcomeInvisibleOnDirect) {
  // kReply and kBid are safe to deliver twice by construction: a second
  // reply finds its enquiry resolved, a duplicate bid is rejected by
  // the book.  Outcomes must be bit-identical to the duplication-free
  // run; only the ledger sees the extra wire messages.
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.network_latency = 1.0;
  const auto clean = digest(cfg, 30);
  cfg.transport.duplicate_rate = 0.3;
  const auto dup = digest(cfg, 30);
  EXPECT_EQ(dup.hash, clean.hash);
  EXPECT_GT(dup.messages, clean.messages);
  EXPECT_EQ(dup.accepted, clean.accepted);
  EXPECT_EQ(dup.rejected, clean.rejected);
}

TEST(Duplication, OutcomeInvisibleOnTree) {
  auto cfg = tree_config(core::SchedulingMode::kAuction);
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 300.0;
  const auto clean = digest(cfg, 30);
  cfg.transport.duplicate_rate = 0.3;
  const auto dup = digest(cfg, 30);
  EXPECT_EQ(dup.hash, clean.hash);
  EXPECT_GT(dup.messages, clean.messages);
}

TEST(Duplication, DbcRepliesTolerateDuplication) {
  auto cfg = core::make_config(core::SchedulingMode::kEconomy);
  cfg.network_latency = 1.0;
  const auto clean = digest(cfg, 30);
  cfg.transport.duplicate_rate = 0.5;
  const auto dup = digest(cfg, 30);
  EXPECT_EQ(dup.hash, clean.hash);
  EXPECT_GT(dup.messages, clean.messages);
}

// ---- convergecast score-and-prune + delta encoding --------------------------

core::FederationConfig pruned_tree_config(market::ScoringRule rule) {
  auto cfg = tree_config(core::SchedulingMode::kAuction);
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 300.0;
  cfg.auction.scoring = rule;
  return cfg;
}

TEST(BidPruning, OutcomeInvariantAcrossScoringModes) {
  // Interior relays forward only the top-k bids per (job, edge) under
  // the federation's active scoring rule.  Because a fold of per-node
  // top-k equals top-k of the full crossing set, the origin's rank
  // prefix survives for every rule — outcomes, message counts and book
  // thickness must be bit-identical to the whole convergecast, with
  // strictly fewer bytes on the wire.  20 clusters so books are deeper
  // than k = 8 and pruning actually fires.
  for (const auto rule :
       {market::ScoringRule::kPrice, market::ScoringRule::kCompletion,
        market::ScoringRule::kWeighted, market::ScoringRule::kPerJob}) {
    auto whole = pruned_tree_config(rule);
    whole.transport.bid_prune_k = 0;
    whole.transport.bid_delta_encode = false;
    const auto p = digest(pruned_tree_config(rule), 30, 20);
    const auto w = digest(whole, 30, 20);
    EXPECT_EQ(p.hash, w.hash) << "rule " << static_cast<int>(rule);
    EXPECT_EQ(p.messages, w.messages);
    EXPECT_EQ(p.relays, w.relays);
    EXPECT_EQ(p.accepted, w.accepted);
    EXPECT_EQ(p.rejected, w.rejected);
    EXPECT_DOUBLE_EQ(p.auctions.bids_per_auction.mean(),
                     w.auctions.bids_per_auction.mean());
    EXPECT_GT(p.pruned, 0u) << "rule " << static_cast<int>(rule);
    EXPECT_EQ(w.pruned, 0u);
    EXPECT_LT(p.bytes, w.bytes);
    EXPECT_GT(p.prune_saved, 0u);
  }
}

TEST(BidPruning, DeltaEncodingAloneKeepsOutcomes) {
  // The compact frame (shared header + per-shape base quotes + deltas)
  // must be a pure byte-accounting change: with pruning disabled it
  // still shrinks every convergecast frame, tombstoning nothing.
  auto encoded = pruned_tree_config(market::ScoringRule::kPrice);
  encoded.transport.bid_prune_k = 0;  // encoding only
  auto plain = encoded;
  plain.transport.bid_delta_encode = false;
  const auto e = digest(encoded, 30, 20);
  const auto p = digest(plain, 30, 20);
  EXPECT_EQ(e.hash, p.hash);
  EXPECT_EQ(e.messages, p.messages);
  EXPECT_EQ(e.pruned, 0u);
  EXPECT_LT(e.bytes, p.bytes);
  EXPECT_GT(e.prune_saved, 0u);  // encoding savings ride the same counter
}

TEST(BidPruning, LossAndDuplicationThroughPruningRelay) {
  // Failure injection through the pruning relay: tombstoned frames get
  // dropped and delivered twice like any other payload.  Every job must
  // still resolve (timeouts cover lost frames, books reject duplicate
  // tombstones) and the run must replay bit-identically.
  auto cfg = pruned_tree_config(market::ScoringRule::kPerJob);
  const auto clean = digest(cfg, 30, 20);
  cfg.message_drop_rate = 0.2;
  cfg.negotiate_timeout = 200.0;  // > relayed hops + tree_epoch (120)
  cfg.network_latency = 1.0;
  cfg.auction.bid_timeout = 200.0;
  cfg.transport.duplicate_rate = 0.3;
  const auto d = digest(cfg, 30, 20);
  EXPECT_GT(d.dropped, 0u);
  EXPECT_GT(d.pruned, 0u);
  // The lossless run resolves the whole workload; the injected run must
  // resolve exactly the same number of jobs.
  EXPECT_EQ(d.accepted + d.rejected, clean.accepted + clean.rejected);
  const auto replay = digest(cfg, 30, 20);
  EXPECT_EQ(replay.hash, d.hash);
  EXPECT_EQ(replay.dropped, d.dropped);
  EXPECT_EQ(replay.pruned, d.pruned);
  EXPECT_EQ(replay.prune_saved, d.prune_saved);
}

TEST(BidPruning, DuplicationStaysOutcomeInvisibleWithPruning) {
  // A duplicated frame re-delivers its tombstones too; the book must
  // reject a duplicate "answered without bidding" mark exactly like a
  // duplicate bid, keeping outcomes bit-identical to the clean run.
  auto cfg = pruned_tree_config(market::ScoringRule::kPrice);
  const auto clean = digest(cfg, 30, 20);
  cfg.transport.duplicate_rate = 0.3;
  const auto dup = digest(cfg, 30, 20);
  EXPECT_EQ(dup.hash, clean.hash);
  EXPECT_GT(dup.messages, clean.messages);
  EXPECT_EQ(dup.accepted, clean.accepted);
}

// ---- tree edge cases pinned to goldens --------------------------------------
// The loss, duplication and repair tests compare a run with its own
// replay, which a routing change that moves bytes or relays under those
// injections would pass.  These pin every wire count of two such runs.

core::FederationConfig pinned_tree_config() {
  auto cfg = core::make_config(core::SchedulingMode::kAuction, 1);
  cfg.transport.kind = transport::TransportKind::kTree;
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 300.0;
  cfg.negotiate_timeout = 200.0;  // > relayed hops + tree_epoch (120)
  cfg.auction.bid_timeout = 200.0;
  cfg.network_latency = 1.0;
  return cfg;
}

TEST(TreeGolden, LossAndDuplicationThroughPruningRelay) {
  auto cfg = pinned_tree_config();
  cfg.message_drop_rate = 0.2;
  cfg.transport.duplicate_rate = 0.3;
  const auto d = digest(cfg, 30, 20);
  EXPECT_EQ(d.hash, 0xeb111d72035a6075ULL);
  EXPECT_EQ(d.messages, 120291u);
  EXPECT_EQ(d.bytes, 33116216u);
  EXPECT_EQ(d.relays, 79425u);
  EXPECT_EQ(d.dropped, 20415u);
  EXPECT_EQ(d.pruned, 11904u);
  EXPECT_EQ(d.prune_saved, 13429984u);
  EXPECT_EQ(d.accepted, 6452u);
  EXPECT_EQ(d.rejected, 484u);
}

TEST(TreeGolden, RootCrashRepairAndRejoinWithCoalitions) {
  // The crashed root is every path's LCA between its subtrees: repair
  // excises it, so the hop that replaces it joins two siblings.
  auto cfg = pinned_tree_config();
  cfg.membership.enabled = true;
  cfg.coalitions.enabled = true;
  cfg.coalitions.bucket_size = 4;
  cfg.transport.duplicate_rate = 0.2;
  const std::size_t n = 30;
  cluster::ResourceIndex root = cluster::kNoResource;
  {
    auto probe_cfg = cfg;
    probe_cfg.membership.enabled = false;
    core::Federation probe(probe_cfg, cluster::replicated_specs(n));
    const auto* tree =
        dynamic_cast<const transport::TreeTransport*>(&probe.transport());
    ASSERT_NE(tree, nullptr);
    root = tree->root();
  }
  ASSERT_EQ(root, 19u);
  cfg.membership.churn.events.push_back(
      membership::ChurnEvent{40000.0, root, membership::ChurnKind::kCrash});
  cfg.membership.churn.events.push_back(
      membership::ChurnEvent{90000.0, root, membership::ChurnKind::kJoin});
  const auto d = digest(cfg, 30, n);
  EXPECT_EQ(d.hash, 0xa50c1b6791f3255fULL);
  EXPECT_EQ(d.messages, 313034u);
  EXPECT_EQ(d.bytes, 171183580u);
  EXPECT_EQ(d.relays, 104297u);
  EXPECT_EQ(d.dropped, 0u);
  EXPECT_EQ(d.pruned, 7990u);
  EXPECT_EQ(d.prune_saved, 16377428u);
  EXPECT_EQ(d.accepted, 10016u);
  EXPECT_EQ(d.rejected, 306u);
}

// ---- warm relay flushes allocate nothing ------------------------------------

/// A TransportContext without a federation: each delivery is recorded,
/// without its heap-owning payload, in a vector reserved up front, so a
/// test sees only the transport's own heap traffic.
class RecordingContext final : public transport::TransportContext {
 public:
  /// What a test needs of one delivered message.
  struct Delivery {
    core::MessageType type = core::MessageType::kNegotiate;
    cluster::ResourceIndex from = 0;
    cluster::ResourceIndex to = 0;
    cluster::Job job;
    std::span<const cluster::Job> batch_jobs;
  };

  RecordingContext(core::FederationConfig cfg, std::size_t n,
                   std::size_t max_deliveries)
      : cfg_(std::move(cfg)),
        specs_(cluster::replicated_specs(n)),
        ledger_(n) {
    delivered.reserve(max_deliveries);
  }

  const core::FederationConfig& config() const override { return cfg_; }
  sim::Simulation& sim() override { return sim_; }
  core::MessageLedger& ledger() override { return ledger_; }
  std::size_t sites() const override { return specs_.size(); }
  const cluster::ResourceSpec& spec_of(
      cluster::ResourceIndex index) const override {
    return specs_[index];
  }
  void deliver(const core::Message& msg) override {
    delivered.push_back(
        Delivery{msg.type, msg.from, msg.to, msg.job, msg.batch_jobs});
  }
  void message_dropped() override {}
  sim::Rng& drop_rng() override { return rng_; }
  sim::Rng& duplicate_rng() override { return rng_; }

  std::vector<Delivery> delivered;

 private:
  core::FederationConfig cfg_;
  std::vector<cluster::ResourceSpec> specs_;
  core::MessageLedger ledger_;
  sim::Simulation sim_;
  sim::Rng rng_;
};

TEST(TreeFlush, WarmFanoutAndConvergecastAllocateNothing) {
  // Each round: four origins multicast one batched call-for-bids for
  // three jobs to every cluster, then every other cluster answers each
  // call with one batched kBid, whose buffer the transport recycled from
  // a bid the previous round delivered (as the federation's agents get
  // theirs).  20 clusters answer 19 bids per job, so the convergecast
  // prunes at k = 8.  Each queue swaps with its flush twin at every
  // flush, so two warm-up rounds bring both twins, the routing scratch,
  // the delivery slab, the event list and the flush buffers to their
  // high-water mark; job ids repeat, so a third, identical round — both
  // flushes and every delivery included — allocates nothing.
  constexpr std::size_t kSites = 20;
  constexpr std::size_t kOrigins = 4;
  constexpr std::size_t kJobsPerCall = 3;
  constexpr std::size_t kCalls = kOrigins * (kSites - 1);
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.transport.kind = transport::TransportKind::kTree;
  RecordingContext ctx(cfg, kSites, kCalls);
  transport::TreeTransport tree(ctx, std::nullopt, nullptr, nullptr);

  std::vector<cluster::Job> jobs;
  for (std::size_t o = 0; o < kOrigins; ++o) {
    for (std::size_t j = 0; j < kJobsPerCall; ++j) {
      cluster::Job job;
      job.id = static_cast<cluster::JobId>(1 + o * kJobsPerCall + j);
      job.origin = static_cast<cluster::ResourceIndex>(o);
      job.processors = 1;
      job.length_mi = 1e6 * static_cast<double>(1 + j);
      job.budget = 1e12;
      job.deadline = 1e9;
      jobs.push_back(job);
    }
  }
  std::vector<cluster::ResourceIndex> everyone(kSites);
  for (std::size_t i = 0; i < kSites; ++i) {
    everyone[i] = static_cast<cluster::ResourceIndex>(i);
  }
  const auto round = [&] {
    ctx.delivered.clear();
    for (std::size_t o = 0; o < kOrigins; ++o) {
      const std::span<const cluster::Job> batch(&jobs[o * kJobsPerCall],
                                                kJobsPerCall);
      const core::Outgoing call =
          tree.compose(core::MessageType::kCallForBids,
                       static_cast<cluster::ResourceIndex>(o), 0,
                       batch.front());
      call->batch_jobs = batch;
      (void)tree.multicast(call, everyone, ctx.sim().now());
    }
    ctx.sim().run();
    ASSERT_EQ(ctx.delivered.size(), kCalls);
    for (const RecordingContext::Delivery& call : ctx.delivered) {
      const core::Outgoing bid =
          tree.compose(core::MessageType::kBid, call.to, call.from, call.job);
      bid->batch_bids = tree.bid_buffer();
      for (const cluster::Job& job : call.batch_jobs) {
        bid->batch_bids.push_back(core::BatchedBid{
            job.id, 100.0 + static_cast<double>(call.to),
            1000.0 + static_cast<double>(call.to), true, false});
      }
      tree.unicast(bid);
    }
    ctx.delivered.clear();
    ctx.sim().run();
    ASSERT_EQ(ctx.delivered.size(), kCalls);
    EXPECT_EQ(tree.in_flight(), 0u);
  };
  round();  // warm-up: the queues' first twins
  const std::uint64_t pruned = tree.bids_pruned();
  EXPECT_GT(pruned, 0u);
  round();  // warm-up: the second twins

  const std::uint64_t before = g_allocations.load();
  round();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u) << "warm tree flushes allocated";
  EXPECT_EQ(tree.bids_pruned(), 3 * pruned);
}

// ---- arena lifetime ---------------------------------------------------------

TEST(MessageArena, SpansSurviveLaterAppends) {
  transport::MessageArena arena;
  cluster::Job a;
  a.id = 1;
  a.length_mi = 10.0;
  cluster::Job b;
  b.id = 2;
  b.length_mi = 20.0;
  const cluster::Job* first[] = {&a, &b};
  const auto view1 = arena.append(first);
  ASSERT_EQ(view1.size(), 2u);
  // Force many more blocks; the first view must stay valid.
  std::vector<cluster::Job> bulk(64);
  std::vector<const cluster::Job*> ptrs;
  for (auto& j : bulk) ptrs.push_back(&j);
  for (int i = 0; i < 32; ++i) (void)arena.append(ptrs);
  EXPECT_EQ(arena.size(), 2u + 32u * 64u);
  EXPECT_EQ(view1[0].id, 1u);
  EXPECT_EQ(view1[1].id, 2u);
  EXPECT_DOUBLE_EQ(view1[1].length_mi, 20.0);
}

TEST(MessageArena, BatchedPayloadsOutliveDropsDelaysAndDuplicates) {
  // Batched + lossy + duplicated + latency: arena-backed payloads sit in
  // flight, get dropped, get delivered twice — the ASan CI job turns any
  // lifetime mistake here into a hard failure.
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 300.0;
  cfg.message_drop_rate = 0.4;
  cfg.negotiate_timeout = 30.0;
  cfg.network_latency = 1.0;
  cfg.auction.bid_timeout = 30.0;
  cfg.transport.duplicate_rate = 0.4;
  const auto d = digest(cfg, 30);
  EXPECT_EQ(d.accepted + d.rejected, 2662u);
  EXPECT_GT(d.dropped, 0u);

  auto tree = cfg;
  tree.transport.kind = transport::TransportKind::kTree;
  tree.negotiate_timeout = 200.0;    // > relayed hops + tree_epoch
  tree.auction.bid_timeout = 300.0;  // outlast the fan-out epoch too
  const auto t = digest(tree, 30);
  EXPECT_EQ(t.accepted + t.rejected, 2662u);
}

// ---- per-type message/byte counters ----------------------------------------

TEST(MessageBytes, PerTypeCountersSumToTotals) {
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 300.0;
  const auto result = core::run_experiment(cfg, 8, 30);
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  for (std::size_t t = 0; t < core::kMessageTypeCount; ++t) {
    msgs += result.messages_by_type[t];
    bytes += result.bytes_by_type[t];
  }
  EXPECT_EQ(msgs, result.total_messages);
  EXPECT_EQ(bytes, result.total_message_bytes);
  EXPECT_GT(bytes, 0u);
  // A batched call-for-bids carries many jobs: its mean size must
  // exceed a bid's.
  const auto cfb = static_cast<std::size_t>(core::MessageType::kCallForBids);
  const auto bid = static_cast<std::size_t>(core::MessageType::kBid);
  ASSERT_GT(result.messages_by_type[cfb], 0u);
  ASSERT_GT(result.messages_by_type[bid], 0u);
  EXPECT_GT(static_cast<double>(result.bytes_by_type[cfb]) /
                static_cast<double>(result.messages_by_type[cfb]),
            static_cast<double>(result.bytes_by_type[bid]) /
                static_cast<double>(result.messages_by_type[bid]));
}

TEST(MessageBytes, WireModelScalesWithBatch) {
  core::Message msg;
  const std::uint64_t single = core::wire_bytes(msg);
  transport::MessageArena arena;
  std::vector<cluster::Job> jobs(10);
  std::vector<const cluster::Job*> ptrs;
  for (auto& j : jobs) ptrs.push_back(&j);
  msg.batch_jobs = arena.append(ptrs);
  EXPECT_EQ(core::wire_bytes(msg),
            single + 9 * core::kJobWireBytes);
}

// ---- size-aware WAN control delay ------------------------------------------

TEST(ControlDelay, GrowsWithMessageSize) {
  network::NetworkConfig cfg;
  cfg.kind = network::LatencyKind::kConstant;
  cfg.base_latency = 0.05;
  const network::LatencyModel wan(cfg, cluster::table1_specs());
  const auto small = wan.control_delay(0, 1, 64);
  const auto large = wan.control_delay(0, 1, 64 * 1024);
  EXPECT_GT(small, wan.latency(0, 1) - 1e-12);
  EXPECT_GT(large, small);
  EXPECT_DOUBLE_EQ(wan.control_delay(2, 2, 1024), 0.0);
  // Exactly the transfer-time formula at gigabit scale.
  EXPECT_DOUBLE_EQ(wan.control_delay(0, 1, 1'000'000'000ull / 8ull),
                   wan.transfer_time(0, 1, 1.0));
}

}  // namespace
}  // namespace gridfed
