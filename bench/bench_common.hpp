#pragma once
// Shared helpers for the experiment bench binaries: uniform headers, the
// Table 1 banner, and profile-sweep result caching so that the fig3..fig9
// binaries (which all consume the same sweep) stay cheap.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/catalog.hpp"
#include "core/experiment.hpp"
#include "stats/table.hpp"

namespace gridfed::bench {

/// Prints the standard banner: which artifact this binary regenerates.
inline void banner(const std::string& artifact, const std::string& what) {
  std::printf("=============================================================\n");
  std::printf("gridfed reproduction — %s\n", artifact.c_str());
  std::printf("%s\n", what.c_str());
  std::printf("=============================================================\n\n");
}

/// The Experiment 3/4 population sweep, computed once per process.
inline const std::vector<core::FederationResult>& economy_sweep() {
  static const std::vector<core::FederationResult> sweep =
      core::run_profile_sweep(
          core::make_config(core::SchedulingMode::kEconomy));
  return sweep;
}

/// The auction-mode population sweep (fig4's auction section): OFT = 0,
/// 20, ..., 100 under the given bid-scoring rule.  kPrice reproduces the
/// single-attribute market (the population profile only matters through
/// the DBC fallback); kPerJob is the multi-attribute market where OFT
/// jobs clear on completion-weighted scores.
inline std::vector<core::FederationResult> auction_profile_sweep(
    market::ScoringRule scoring, std::uint32_t step = 20) {
  std::vector<core::FederationResult> results;
  results.reserve(101 / step + 1);
  for (std::uint32_t oft = 0; oft <= 100; oft += step) {
    auto cfg = core::make_config(core::SchedulingMode::kAuction);
    cfg.auction.scoring = scoring;
    results.push_back(core::run_experiment(cfg, 8, oft));
  }
  return results;
}

/// Formats a profile as the paper labels it, e.g. "OFC70/OFT30".
inline std::string profile_label(std::uint32_t oft_percent) {
  return "OFC" + std::to_string(100 - oft_percent) + "/OFT" +
         std::to_string(oft_percent);
}

/// `--<name>=PATH` argument, or empty when absent.
inline std::string path_arg(int argc, char** argv, const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return {};
}

/// `--json=PATH` argument, or empty when absent.  The fig10/fig11
/// binaries use it to dump a machine-readable summary next to the human
/// tables (bench/run_bench.sh collects them into BENCH_messages.json).
inline std::string json_path(int argc, char** argv) {
  return path_arg(argc, argv, "json");
}

/// True when `flag` (e.g. "--auction-only") was passed.
inline bool has_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
}

/// `--sizes=8,20,50` argument parsed into a size list (the CI perf-smoke
/// job runs only the 50-cluster point); `fallback` when absent.  A
/// malformed value is a hard error: the flag's consumer is a CI
/// correctness gate, and silently measuring the wrong points would let
/// it pass vacuously.
inline std::vector<std::size_t> sizes_arg(
    int argc, char** argv, std::vector<std::size_t> fallback) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--sizes=", 0) != 0) continue;
    std::vector<std::size_t> sizes;
    std::size_t value = 0;
    for (const char c : arg.substr(8)) {
      if (c == ',') {
        if (value == 0) {
          std::fprintf(stderr, "bad --sizes value: %s\n", arg.c_str());
          std::exit(2);
        }
        sizes.push_back(value);
        value = 0;
      } else if (c >= '0' && c <= '9') {
        value = value * 10 + static_cast<std::size_t>(c - '0');
      } else {
        std::fprintf(stderr, "bad --sizes value: %s\n", arg.c_str());
        std::exit(2);
      }
    }
    if (value == 0) {  // dangling comma or empty list
      std::fprintf(stderr, "bad --sizes value: %s\n", arg.c_str());
      std::exit(2);
    }
    sizes.push_back(value);
    return sizes;
  }
  return fallback;
}

/// One point of the auction-batching comparison: the same federation and
/// seed run in auction mode without batching, with batched solicitation,
/// and — on a 1 s-latency WAN, where awards and open solicitations
/// actually overlap in time — batched with and without award
/// piggybacking (kAwards riding the flush).  Under the paper's
/// instantaneous network the whole solicit/bid/award cascade collapses
/// into one instant, so there is never a queued solicitation for an award
/// to ride; the WAN pair is what makes the piggyback comparison
/// apples-to-apples.
struct BatchingPoint {
  std::size_t size = 0;
  core::FederationResult unbatched;
  core::FederationResult batched;
  core::FederationResult batched_wan;  ///< batching at kBenchPiggybackLatency
  core::FederationResult piggyback;    ///< batched_wan + piggyback_awards
  /// Batched solicitation over TransportKind::kTree (default fan-out and
  /// epoch): the cross-origin overlay aggregation on top of batching.
  core::FederationResult tree;
  /// The tree run with latency-proximity coalitions (ring buckets of
  /// kBenchCoalitionBucket) bidding as one participant each: the
  /// group-addressed dissemination on top of the overlay.
  core::FederationResult coalition;

  [[nodiscard]] double reduction_pct() const {
    const double u = unbatched.msgs_per_job.mean();
    return u > 0.0 ? 100.0 * (1.0 - batched.msgs_per_job.mean() / u) : 0.0;
  }
  [[nodiscard]] double piggyback_reduction_pct() const {
    const double u = batched_wan.msgs_per_job.mean();
    return u > 0.0 ? 100.0 * (1.0 - piggyback.msgs_per_job.mean() / u) : 0.0;
  }
  /// Tree-vs-batched uses the ledger-based wire metric: tree edge
  /// messages are shared across origins and not per-job attributable.
  [[nodiscard]] double tree_reduction_pct() const {
    const double u = batched.wire_msgs_per_job();
    return u > 0.0 ? 100.0 * (1.0 - tree.wire_msgs_per_job() / u) : 0.0;
  }
  /// Coalition-vs-tree: what group-addressed dissemination saves on top
  /// of the overlay (the PR 5 headline), on the same wire metric.
  [[nodiscard]] double coalition_reduction_pct() const {
    const double u = tree.wire_msgs_per_job();
    return u > 0.0 ? 100.0 * (1.0 - coalition.wire_msgs_per_job() / u) : 0.0;
  }
};

/// The batch window the scaling benches report (chosen so the two-day
/// calibrated workload batches aggressively while the slack-fraction cap
/// keeps acceptance untouched; see bench/README.md).
inline constexpr double kBenchBatchWindow = 300.0;

/// One-way message latency of the piggyback comparison's WAN setting.
inline constexpr double kBenchPiggybackLatency = 1.0;

/// Ring-bucket size of the coalition comparison (4 ring-adjacent
/// clusters per coalition, the CoalitionConfig default).
inline constexpr std::uint32_t kBenchCoalitionBucket = 4;

/// Runs the auction-mode batching comparison over `sizes` at a 70/30
/// OFC/OFT population.
inline std::vector<BatchingPoint> auction_batching_series(
    const std::vector<std::size_t>& sizes, std::uint32_t oft_percent = 30) {
  std::vector<BatchingPoint> points;
  points.reserve(sizes.size());
  for (const std::size_t n : sizes) {
    BatchingPoint point;
    point.size = n;
    auto cfg = core::make_config(core::SchedulingMode::kAuction);
    point.unbatched = core::run_experiment(cfg, n, oft_percent);
    cfg.auction.batch_solicitations = true;
    cfg.auction.solicit_batch_window = kBenchBatchWindow;
    point.batched = core::run_experiment(cfg, n, oft_percent);
    auto tree_cfg = cfg;
    tree_cfg.transport.kind = transport::TransportKind::kTree;
    point.tree = core::run_experiment(tree_cfg, n, oft_percent);
    tree_cfg.coalitions.enabled = true;
    tree_cfg.coalitions.bucket_size = kBenchCoalitionBucket;
    point.coalition = core::run_experiment(tree_cfg, n, oft_percent);
    cfg.network_latency = kBenchPiggybackLatency;
    point.batched_wan = core::run_experiment(cfg, n, oft_percent);
    cfg.auction.piggyback_awards = true;
    point.piggyback = core::run_experiment(cfg, n, oft_percent);
    points.push_back(std::move(point));
  }
  return points;
}

}  // namespace gridfed::bench
