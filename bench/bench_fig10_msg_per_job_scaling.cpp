// Fig 10 — System scalability: min / average / max messages *per job* as
// the federation grows from 10 to 50 resources (Experiment 5).  The Java
// simulator stopped the authors at 50; we print the same range by default
// (and the harness can go far beyond — see examples/scaling_study).
// Also reports the auction-mode batching comparison (messages/job with
// and without batched solicitation) and, with --json=PATH, dumps a
// machine-readable summary for bench/run_bench.sh.
//
// Observability flags (builds with GRIDFED_TRACE, the default):
//   --trace=PATH      re-run the largest auction+coalition point with the
//                     event tracer on and write a Perfetto-loadable
//                     Chrome trace-event JSON
//   --metrics=PATH    same run, metrics time-series JSON (epoch-sampled
//                     counters/gauges/histograms + ledger columns)
//   --forensics=PATH  same run, per-clearing auction decision ledger
// The three flags share ONE observed run; the observed run never feeds
// the comparison tables (observation is one-way, but keeping it separate
// makes that visually obvious in the output too).

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/catalog.hpp"
#include "core/federation.hpp"
#include "obs/observer.hpp"
#include "transport/tree_transport.hpp"
#include "workload/synthetic.hpp"

namespace {

// ---- membership churn sweep (--churn) ---------------------------------------
// Crashes a growing fraction of the federation mid-run (interior tree
// relay first, then evenly spread) under the heaviest configuration
// (auction + batching + tree + coalitions) and reports how gracefully
// acceptance degrades against the proportional-loss bound.

struct ChurnPoint {
  double loss_pct = 0.0;          ///< fraction of clusters crashed
  std::size_t crashed = 0;
  double accept_pct = 0.0;
  double degradation_pts = 0.0;   ///< vs the 0% baseline
  double proportional_pts = 0.0;  ///< the dead clusters' fair share
  double wire_msgs_per_job = 0.0;
  std::uint64_t gossip_msgs = 0;
  std::uint64_t repairs = 0;
  std::uint64_t replayed = 0;
  std::uint64_t reformations = 0;
  bool sound = false;  ///< exactly-once termination + balanced bank
};

gridfed::core::FederationConfig churn_config() {
  using namespace gridfed;
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = bench::kBenchBatchWindow;
  cfg.transport.kind = transport::TransportKind::kTree;
  cfg.coalitions.enabled = true;
  cfg.coalitions.bucket_size = bench::kBenchCoalitionBucket;
  // Churn needs timeouts (hop- and epoch-aware over the tree).
  cfg.network_latency = 1.0;
  cfg.negotiate_timeout = 200.0;
  cfg.auction.bid_timeout = 200.0;
  cfg.membership.enabled = true;
  return cfg;
}

std::vector<ChurnPoint> churn_sweep(std::size_t size) {
  using namespace gridfed;
  const auto specs = cluster::replicated_specs(size);
  // Probe the deterministic topology once: the first victim should be
  // an interior relay so every sweep point exercises a tree repair.
  cluster::ResourceIndex relay = cluster::kNoResource;
  {
    core::Federation probe(churn_config(), specs);
    const auto* tree =
        dynamic_cast<const transport::TreeTransport*>(&probe.transport());
    for (cluster::ResourceIndex i = 0; i < size; ++i) {
      if (tree != nullptr && tree->interior_relay(i)) {
        relay = i;
        break;
      }
    }
  }

  std::vector<ChurnPoint> points;
  double base_accept = 0.0;
  for (const double loss : {0.0, 0.1, 0.2}) {
    auto cfg = churn_config();
    const auto k = static_cast<std::size_t>(loss * static_cast<double>(size));
    std::set<cluster::ResourceIndex> victims;
    if (k > 0 && relay != cluster::kNoResource) victims.insert(relay);
    for (std::size_t i = 0; victims.size() < k; ++i) {
      victims.insert(static_cast<cluster::ResourceIndex>(
          (i * size) / (k + 1) % size));
    }
    sim::SimTime when = 30000.0;
    for (const cluster::ResourceIndex site : victims) {
      cfg.membership.churn.events.push_back(membership::ChurnEvent{
          when, site, membership::ChurnKind::kCrash});
      when += 10000.0;
    }

    core::Federation fed(cfg, specs);
    const auto traces =
        workload::generate_federation_workload(specs, cfg.window, cfg.seed);
    std::uint64_t loaded = 0;
    for (const auto& t : traces) loaded += t.jobs.size();
    fed.load_workload(traces, workload::PopulationProfile{30});
    const auto result = fed.run();

    ChurnPoint p;
    p.loss_pct = 100.0 * loss;
    p.crashed = victims.size();
    p.accept_pct = result.acceptance_pct();
    if (loss == 0.0) base_accept = p.accept_pct;
    p.degradation_pts = base_accept - p.accept_pct;
    p.proportional_pts =
        100.0 * static_cast<double>(victims.size()) /
        static_cast<double>(size);
    p.wire_msgs_per_job = result.wire_msgs_per_job();
    if (const membership::MembershipService* m = fed.membership()) {
      p.gossip_msgs = m->telemetry().gossip_messages;
    }
    if (const auto* tree = dynamic_cast<const transport::TreeTransport*>(
            &fed.transport())) {
      p.repairs = tree->repairs();
      p.replayed = tree->replayed_solicitations();
    }
    if (const coalition::CoalitionManager* manager = fed.coalitions()) {
      p.reformations = manager->reformations().size();
    }
    std::set<cluster::JobId> seen;
    bool once = fed.outcomes().size() == loaded;
    for (const auto& o : fed.outcomes()) {
      if (!seen.insert(o.job.id).second) once = false;
    }
    p.sound = once && fed.bank().balanced();
    points.push_back(p);
  }
  return points;
}

// One observed 70/30 auction run at `size` clusters with batching, the
// tree overlay and coalitions on — the heaviest-instrumented
// configuration — dumping whichever artifacts were requested.
int run_observed(std::size_t size, const std::string& trace_path,
                 const std::string& metrics_path,
                 const std::string& forensics_path) {
  using namespace gridfed;
#if GRIDFED_TRACE
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = bench::kBenchBatchWindow;
  cfg.transport.kind = transport::TransportKind::kTree;
  cfg.coalitions.enabled = true;
  cfg.coalitions.bucket_size = bench::kBenchCoalitionBucket;
  cfg.obs.trace = !trace_path.empty();
  cfg.obs.metrics = !metrics_path.empty();
  cfg.obs.forensics = !forensics_path.empty();

  const auto specs = cluster::replicated_specs(size);
  core::Federation fed(cfg, specs);
  fed.load_workload(
      workload::generate_federation_workload(specs, cfg.window, cfg.seed),
      workload::PopulationProfile{30});
  const auto result = fed.run();
  std::printf("Observed run (%zu clusters, auction+tree+coalitions): %llu "
              "wire msgs, %llu bytes, %.2f%% accepted\n",
              size, static_cast<unsigned long long>(result.total_messages),
              static_cast<unsigned long long>(result.total_message_bytes),
              result.acceptance_pct());

  const obs::Observer* obs = fed.observer();
  const auto dump = [](const std::string& path, const char* what,
                       auto&& write) {
    if (path.empty()) return true;
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    write(out);
    std::printf("%s written to %s\n", what, path.c_str());
    return true;
  };
  bool ok = true;
  ok &= dump(trace_path, "Perfetto trace",
             [obs](std::ostream& o) { obs->trace()->write_chrome_trace(o); });
  ok &= dump(metrics_path, "Metrics time-series",
             [obs](std::ostream& o) { obs->metrics()->write_json(o); });
  ok &= dump(forensics_path, "Auction forensics",
             [obs](std::ostream& o) { obs->forensics()->write_json(o); });
  return ok ? 0 : 1;
#else
  (void)size;
  (void)trace_path;
  (void)metrics_path;
  (void)forensics_path;
  std::fprintf(stderr, "observability flags need a GRIDFED_TRACE=ON build\n");
  return 1;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gridfed;
  bench::banner("Fig 10",
                "Experiment 5 — message complexity per job vs system size "
                "(10..50 resources)");

  // --auction-only skips the economy sweep (the CI perf-smoke gate runs
  // just the transport comparison); --sizes=50 trims the point list.
  const bool auction_only = bench::has_flag(argc, argv, "--auction-only");
  const std::vector<std::size_t> sizes{10, 20, 30, 40, 50};
  const std::vector<std::uint32_t> profiles{0, 10, 20, 30, 50, 100};
  std::vector<core::FederationResult> points;
  if (!auction_only) {
    const auto cfg = core::make_config(core::SchedulingMode::kEconomy);
    points = core::run_scaling_study(cfg, sizes, profiles);
  }

  const std::vector<const char*> series =
      auction_only ? std::vector<const char*>{}
                   : std::vector<const char*>{"Min", "Average", "Max"};
  for (const char* which : series) {
    std::printf("(%c) %s messages per job vs system size\n\n",
                which[0] == 'M' && which[1] == 'i' ? 'a'
                : which[0] == 'A'                  ? 'b'
                                                   : 'c',
                which);
    std::vector<std::string> header{"System size"};
    for (const auto p : profiles) {
      header.push_back("OFT" + std::to_string(p) + "%");
    }
    stats::Table t(header);
    std::size_t idx = 0;
    for (const auto n : sizes) {
      std::vector<std::string> row{std::to_string(n)};
      for (std::size_t p = 0; p < profiles.size(); ++p, ++idx) {
        const auto& acc = points[idx].msgs_per_job;
        const double v = which[1] == 'i'   ? acc.min()
                         : which[0] == 'A' ? acc.mean()
                                           : acc.max();
        row.push_back(stats::Table::num(v, 2));
      }
      t.add_row(std::move(row));
    }
    std::printf("%s\n", t.str().c_str());
  }
  if (!auction_only) {
    std::printf("Paper reference (avg/job): OFC 5.55 -> 17.38 and OFT 10.65 "
                "-> 41.37 from size 10 to 50.\n\n");
  }

  // ---- auction mode: batched vs per-job solicitation ----------------------
  std::printf("Auction mode (70/30 OFC/OFT): messages per job with batched "
              "bid solicitation\n(window %.0f s, per (origin, provider) "
              "coalescing)\n\n",
              bench::kBenchBatchWindow);
  const std::vector<std::size_t> auction_sizes =
      bench::sizes_arg(argc, argv, {8, 20, 50});
  const auto batching = bench::auction_batching_series(auction_sizes);
  stats::Table at({"System size", "Unbatched msgs/job", "Batched msgs/job",
                   "Reduction %", "Accept % (b)"});
  for (const auto& p : batching) {
    at.add_row({std::to_string(p.size),
                stats::Table::num(p.unbatched.msgs_per_job.mean(), 2),
                stats::Table::num(p.batched.msgs_per_job.mean(), 2),
                stats::Table::num(p.reduction_pct(), 1),
                stats::Table::num(p.batched.acceptance_pct(), 2)});
  }
  std::printf("%s\n", at.str().c_str());

  // ---- tree-overlay fan-out on top of batching ----------------------------
  std::printf("TreeTransport (k-ary overlay fan-out, epoch-shared edges) on "
              "top of batching.\nWire msgs/job is ledger-based (tree edge "
              "messages are shared across origins):\n\n");
  stats::Table tt({"System size", "Batched wire msgs/job",
                   "Tree wire msgs/job", "Reduction %", "Relay msgs",
                   "Tree KB/job", "Bid KB/job", "Bids pruned", "Prune %",
                   "Accept % (t)", "Resp delta %"});
  const auto bid_kb_per_job = [](const core::FederationResult& r) {
    const auto t = static_cast<std::size_t>(core::MessageType::kBid);
    return r.total_jobs ? static_cast<double>(r.bytes_by_type[t]) / 1024.0 /
                              static_cast<double>(r.total_jobs)
                        : 0.0;
  };
  // Prune ratio: tombstoned entries over all bid answers the books saw
  // (entered + tombstoned — report.bids counts both).
  const auto prune_pct = [](const core::FederationResult& r) {
    const double answers = r.auctions.bids_per_auction.sum();
    return answers > 0.0
               ? 100.0 * static_cast<double>(r.bids_pruned) / answers
               : 0.0;
  };
  for (const auto& p : batching) {
    const double resp_delta =
        p.batched.fed_response_excl.mean() > 0.0
            ? 100.0 * (p.tree.fed_response_excl.mean() /
                           p.batched.fed_response_excl.mean() -
                       1.0)
            : 0.0;
    tt.add_row({std::to_string(p.size),
                stats::Table::num(p.batched.wire_msgs_per_job(), 2),
                stats::Table::num(p.tree.wire_msgs_per_job(), 2),
                stats::Table::num(p.tree_reduction_pct(), 1),
                std::to_string(p.tree.overlay_relay_messages),
                stats::Table::num(p.tree.wire_bytes_per_job() / 1024.0, 2),
                stats::Table::num(bid_kb_per_job(p.tree), 2),
                std::to_string(p.tree.bids_pruned),
                stats::Table::num(prune_pct(p.tree), 1),
                stats::Table::num(p.tree.acceptance_pct(), 2),
                stats::Table::num(resp_delta, 2)});
  }
  std::printf("%s\n", tt.str().c_str());

  // ---- coalitions (participant layer) on top of the tree ------------------
  std::printf("Coalitions (ring buckets of %u bidding as one participant, "
              "group-addressed\ndissemination through representatives) on "
              "top of the tree overlay:\n\n",
              bench::kBenchCoalitionBucket);
  stats::Table ct({"System size", "Tree wire msgs/job",
                   "Coalition wire msgs/job", "Reduction %", "Coalitions",
                   "Local msgs", "Coal KB/job", "Accept % (c)",
                   "Resp delta %"});
  for (const auto& p : batching) {
    const double resp_delta =
        p.tree.fed_response_excl.mean() > 0.0
            ? 100.0 * (p.coalition.fed_response_excl.mean() /
                           p.tree.fed_response_excl.mean() -
                       1.0)
            : 0.0;
    ct.add_row({std::to_string(p.size),
                stats::Table::num(p.tree.wire_msgs_per_job(), 2),
                stats::Table::num(p.coalition.wire_msgs_per_job(), 2),
                stats::Table::num(p.coalition_reduction_pct(), 1),
                std::to_string(p.coalition.coalitions_formed),
                std::to_string(p.coalition.coalition_local_messages),
                stats::Table::num(p.coalition.wire_bytes_per_job() / 1024.0,
                                  2),
                stats::Table::num(p.coalition.acceptance_pct(), 2),
                stats::Table::num(resp_delta, 2)});
  }
  std::printf("%s\n", ct.str().c_str());

  std::printf("Per-type wire breakdown at the largest point (batched direct "
              "vs tree):\n\n");
  {
    const auto& p = batching.back();
    stats::Table bt({"Type", "Direct msgs", "Direct KB", "Tree msgs",
                     "Tree KB"});
    for (std::size_t t = 0; t < core::kMessageTypeCount; ++t) {
      bt.add_row({core::to_string(static_cast<core::MessageType>(t)),
                  std::to_string(p.batched.messages_by_type[t]),
                  stats::Table::num(
                      static_cast<double>(p.batched.bytes_by_type[t]) / 1024.0,
                      1),
                  std::to_string(p.tree.messages_by_type[t]),
                  stats::Table::num(
                      static_cast<double>(p.tree.bytes_by_type[t]) / 1024.0,
                      1)});
    }
    std::printf("%s\n", bt.str().c_str());
  }

  // ---- membership churn sweep (--churn) -----------------------------------
  std::vector<ChurnPoint> churn_points;
  if (bench::has_flag(argc, argv, "--churn")) {
    const std::size_t churn_size = auction_sizes.back();
    std::printf("Membership churn at %zu clusters (auction + batching + tree "
                "+ coalitions):\ncrashing 0/10/20%% of the federation "
                "mid-run, interior relay first.\n\n",
                churn_size);
    churn_points = churn_sweep(churn_size);
    stats::Table cht({"Loss %", "Crashed", "Accept %", "Degr. pts",
                      "Prop. pts", "Wire msgs/job", "Gossip msgs", "Repairs",
                      "Replayed", "Re-forms", "Sound"});
    for (const auto& p : churn_points) {
      cht.add_row({stats::Table::num(p.loss_pct, 0),
                   std::to_string(p.crashed),
                   stats::Table::num(p.accept_pct, 2),
                   stats::Table::num(p.degradation_pts, 2),
                   stats::Table::num(p.proportional_pts, 2),
                   stats::Table::num(p.wire_msgs_per_job, 2),
                   std::to_string(p.gossip_msgs), std::to_string(p.repairs),
                   std::to_string(p.replayed), std::to_string(p.reformations),
                   p.sound ? "yes" : "NO"});
    }
    std::printf("%s\n", cht.str().c_str());
  }

  std::printf("Award piggybacking on a %.0f s-latency WAN (awards overlap "
              "open solicitations\nand ride the flush for free):\n\n",
              bench::kBenchPiggybackLatency);
  stats::Table pt({"System size", "WAN batched msgs/job",
                   "+Piggyback msgs/job", "Reduction %", "Awards ridden",
                   "Accept % (p)"});
  for (const auto& p : batching) {
    pt.add_row({std::to_string(p.size),
                stats::Table::num(p.batched_wan.msgs_per_job.mean(), 2),
                stats::Table::num(p.piggyback.msgs_per_job.mean(), 2),
                stats::Table::num(p.piggyback_reduction_pct(), 1),
                std::to_string(p.piggyback.auctions.awards_piggybacked),
                stats::Table::num(p.piggyback.acceptance_pct(), 2)});
  }
  std::printf("%s\n", pt.str().c_str());

  const std::string json = bench::json_path(argc, argv);
  if (!json.empty()) {
    std::FILE* f = std::fopen(json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"artifact\": \"fig10\",\n");
    if (!auction_only) {
      std::fprintf(f, "  \"economy_msgs_per_job_mean\": {");
      std::size_t idx = 0;
      for (std::size_t s = 0; s < sizes.size(); ++s) {
        std::fprintf(f, "%s\"%zu\": [", s == 0 ? "" : ", ", sizes[s]);
        for (std::size_t p = 0; p < profiles.size(); ++p, ++idx) {
          std::fprintf(f, "%s%.4f", p == 0 ? "" : ", ",
                       points[idx].msgs_per_job.mean());
        }
        std::fprintf(f, "]");
      }
      std::fprintf(f, "},\n");
    }
    std::fprintf(f, "  \"auction_batching\": {\"oft_percent\": 30, "
                    "\"batch_window_s\": %.1f, \"points\": [\n",
                 bench::kBenchBatchWindow);
    const auto by_type = [f](const char* key,
                             const core::FederationResult& r) {
      std::fprintf(f, "     \"%s\": {", key);
      for (std::size_t t = 0; t < core::kMessageTypeCount; ++t) {
        std::fprintf(
            f, "%s\"%s\": {\"msgs\": %llu, \"bytes\": %llu}",
            t == 0 ? "" : ", ",
            core::to_string(static_cast<core::MessageType>(t)),
            static_cast<unsigned long long>(r.messages_by_type[t]),
            static_cast<unsigned long long>(r.bytes_by_type[t]));
      }
      std::fprintf(f, "}");
    };
    for (std::size_t i = 0; i < batching.size(); ++i) {
      const auto& p = batching[i];
      std::fprintf(
          f,
          "    {\"size\": %zu, \"unbatched_msgs_per_job\": %.4f, "
          "\"batched_msgs_per_job\": %.4f, \"reduction_pct\": %.2f, "
          "\"tree_wire_msgs_per_job\": %.4f, "
          "\"batched_wire_msgs_per_job\": %.4f, "
          "\"batched_bytes_per_job\": %.4f, "
          "\"tree_bytes_per_job\": %.4f, "
          "\"coalition_bytes_per_job\": %.4f, "
          "\"tree_reduction_pct\": %.2f, "
          "\"tree_relay_messages\": %llu, "
          "\"tree_accept_pct\": %.2f, "
          "\"tree_mean_response_s\": %.2f, "
          "\"batched_mean_response_s\": %.2f, "
          "\"coalition_wire_msgs_per_job\": %.4f, "
          "\"coalition_reduction_pct\": %.2f, "
          "\"coalitions_formed\": %zu, "
          "\"coalition_local_messages\": %llu, "
          "\"coalition_awards\": %llu, "
          "\"coalition_accept_pct\": %.2f, "
          "\"coalition_mean_response_s\": %.2f, "
          "\"wan_batched_msgs_per_job\": %.4f, "
          "\"wan_piggyback_msgs_per_job\": %.4f, "
          "\"piggyback_reduction_pct\": %.2f, "
          "\"awards_piggybacked\": %llu, "
          "\"unbatched_accept_pct\": %.2f, \"batched_accept_pct\": %.2f, "
          "\"piggyback_accept_pct\": %.2f, "
          "\"bids_per_auction_unbatched\": %.4f, "
          "\"bids_per_auction_batched\": %.4f, "
          "\"bids_per_auction_tree\": %.4f, "
          "\"tree_bid_bytes_per_job\": %.4f, "
          "\"batched_bid_bytes_per_job\": %.4f, "
          "\"tree_bids_pruned\": %llu, "
          "\"tree_bid_prune_pct\": %.2f, "
          "\"tree_bid_prune_bytes_saved\": %llu,\n",
          p.size, p.unbatched.msgs_per_job.mean(),
          p.batched.msgs_per_job.mean(), p.reduction_pct(),
          p.tree.wire_msgs_per_job(), p.batched.wire_msgs_per_job(),
          p.batched.wire_bytes_per_job(), p.tree.wire_bytes_per_job(),
          p.coalition.wire_bytes_per_job(),
          p.tree_reduction_pct(),
          static_cast<unsigned long long>(p.tree.overlay_relay_messages),
          p.tree.acceptance_pct(), p.tree.fed_response_excl.mean(),
          p.batched.fed_response_excl.mean(),
          p.coalition.wire_msgs_per_job(), p.coalition_reduction_pct(),
          p.coalition.coalitions_formed,
          static_cast<unsigned long long>(
              p.coalition.coalition_local_messages),
          static_cast<unsigned long long>(p.coalition.coalition_awards),
          p.coalition.acceptance_pct(),
          p.coalition.fed_response_excl.mean(),
          p.batched_wan.msgs_per_job.mean(),
          p.piggyback.msgs_per_job.mean(), p.piggyback_reduction_pct(),
          static_cast<unsigned long long>(
              p.piggyback.auctions.awards_piggybacked),
          p.unbatched.acceptance_pct(), p.batched.acceptance_pct(),
          p.piggyback.acceptance_pct(),
          p.unbatched.auctions.bids_per_auction.mean(),
          p.batched.auctions.bids_per_auction.mean(),
          p.tree.auctions.bids_per_auction.mean(),
          bid_kb_per_job(p.tree) * 1024.0, bid_kb_per_job(p.batched) * 1024.0,
          static_cast<unsigned long long>(p.tree.bids_pruned),
          prune_pct(p.tree),
          static_cast<unsigned long long>(p.tree.bid_prune_bytes_saved));
      by_type("batched_by_type", p.batched);
      std::fprintf(f, ",\n");
      by_type("tree_by_type", p.tree);
      std::fprintf(f, "}%s\n", i + 1 < batching.size() ? "," : "");
    }
    std::fprintf(f, "  ]}%s\n", churn_points.empty() ? "" : ",");
    if (!churn_points.empty()) {
      std::fprintf(f, "  \"churn_sweep\": {\"size\": %zu, \"points\": [\n",
                   auction_sizes.back());
      for (std::size_t i = 0; i < churn_points.size(); ++i) {
        const auto& p = churn_points[i];
        std::fprintf(
            f,
            "    {\"loss_pct\": %.1f, \"crashed\": %zu, "
            "\"accept_pct\": %.2f, \"degradation_pts\": %.2f, "
            "\"proportional_pts\": %.2f, \"wire_msgs_per_job\": %.4f, "
            "\"gossip_msgs\": %llu, \"tree_repairs\": %llu, "
            "\"replayed_solicitations\": %llu, "
            "\"coalition_reformations\": %llu, \"sound\": %s}%s\n",
            p.loss_pct, p.crashed, p.accept_pct, p.degradation_pts,
            p.proportional_pts, p.wire_msgs_per_job,
            static_cast<unsigned long long>(p.gossip_msgs),
            static_cast<unsigned long long>(p.repairs),
            static_cast<unsigned long long>(p.replayed),
            static_cast<unsigned long long>(p.reformations),
            p.sound ? "true" : "false",
            i + 1 < churn_points.size() ? "," : "");
      }
      std::fprintf(f, "  ]}\n");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("JSON summary written to %s\n", json.c_str());
  }

  const std::string trace_path = bench::path_arg(argc, argv, "trace");
  const std::string metrics_path = bench::path_arg(argc, argv, "metrics");
  const std::string forensics_path = bench::path_arg(argc, argv, "forensics");
  if (!trace_path.empty() || !metrics_path.empty() ||
      !forensics_path.empty()) {
    return run_observed(auction_sizes.back(), trace_path, metrics_path,
                        forensics_path);
  }
  return 0;
}
