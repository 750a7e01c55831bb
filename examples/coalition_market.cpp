// Coalition market walkthrough: a 50-cluster auction federation over
// the tree transport, once with every cluster bidding solo and once
// with latency-proximity coalitions enabled — ring-adjacent buckets of
// four that bid as ONE participant through their representative, place
// awards on the member with the best guarantee, and split the surplus
// proportional to contributed capacity through the GridBank.
//
// What to look for: the call-for-bids fan-out and the bid convergecast
// now address ~n/4 participants instead of n providers (group-addressed
// dissemination), so wire msgs/job drops well past 20% while acceptance
// and response stay put; the representative fan-out the wire saved
// reappears — much cheaper — as intra-coalition local messages; and the
// double-entry bank stays balanced even though every coalition award
// settles as one share per member.
//
// Exits nonzero unless coalition mode beats solo auction on wire
// msgs/job by >= 20%, the bank balances, every split is budget-balanced
// and individually rational, and mean response regresses < 2%.

#include <cmath>
#include <cstdio>

#include "cluster/catalog.hpp"
#include "core/experiment.hpp"
#include "core/federation.hpp"
#include "stats/table.hpp"
#include "workload/synthetic.hpp"

namespace {

struct RunOutput {
  gridfed::core::FederationResult result;
  bool balanced = false;
  bool splits_sound = true;  ///< budget balance + individual rationality
};

RunOutput run(const gridfed::core::FederationConfig& cfg,
              std::size_t n_clusters, std::uint32_t oft_percent) {
  using namespace gridfed;
  auto specs = cluster::replicated_specs(n_clusters);
  core::Federation fed(cfg, specs);
  const auto traces =
      workload::generate_federation_workload(specs, cfg.window, cfg.seed);
  fed.load_workload(traces, workload::PopulationProfile{oft_percent});
  RunOutput out{fed.run(), fed.bank().balanced(), true};
  // Each split as the forensics ledger recorded it: (member, share)
  // pairs over the member list the coalition had when it placed the job.
  const auto& splits = fed.observer()->forensics()->splits();
  for (const obs::SplitDecision& split : splits) {
    double sum = 0.0;
    double executor_share = 0.0;
    for (const auto& [member, share] : split.shares) {
      sum += share;
      if (share < 0.0) out.splits_sound = false;
      if (member == split.executor) executor_share = share;
    }
    // Budget balance: the shares settle exactly the cleared payment.
    if (std::abs(sum - split.payment) > 1e-6) out.splits_sound = false;
    // Individual rationality: the executing member earns at least its
    // own solo ask (capped by the payment).
    const double solo = std::min(split.executor_ask, split.payment);
    if (executor_share + 1e-9 < solo) out.splits_sound = false;
  }
  return out;
}

}  // namespace

int main() {
  using namespace gridfed;

  auto cfg = core::make_config(core::SchedulingMode::kAuction, 90210);
  cfg.auction.scoring = market::ScoringRule::kPerJob;
  // Vickrey payments exceed the winning ask, so coalition wins carry a
  // real surplus for the SurplusRule to distribute.
  cfg.auction.clearing = market::ClearingRule::kVickrey;
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 300.0;
  cfg.transport.kind = transport::TransportKind::kTree;  // PR 4 baseline
  // The forensics ledger records every surplus split for the soundness
  // check below.
  cfg.obs.forensics = true;

  constexpr std::size_t kClusters = 50;
  constexpr std::uint32_t kOftPercent = 30;

  std::printf("mode: %s  transport: tree(fanout %u)  clusters: %zu  "
              "population: OFC%u/OFT%u\n\n",
              to_string(cfg.mode), cfg.transport.tree_fanout, kClusters,
              100 - kOftPercent, kOftPercent);

  const RunOutput solo = run(cfg, kClusters, kOftPercent);

  cfg.coalitions.enabled = true;
  cfg.coalitions.bucket_size = 4;
  cfg.coalitions.surplus = coalition::SurplusRuleKind::kProportional;
  std::printf("coalitions: ring buckets of %u, %s surplus split\n\n",
              cfg.coalitions.bucket_size, to_string(cfg.coalitions.surplus));
  const RunOutput coop = run(cfg, kClusters, kOftPercent);

  stats::Table t({"Metric", "Solo auction", "Coalitions"});
  t.add_row({"wire msgs/job",
             stats::Table::num(solo.result.wire_msgs_per_job(), 2),
             stats::Table::num(coop.result.wire_msgs_per_job(), 2)});
  t.add_row({"total wire messages",
             std::to_string(solo.result.total_messages),
             std::to_string(coop.result.total_messages)});
  t.add_row({"coalitions formed",
             std::to_string(solo.result.coalitions_formed),
             std::to_string(coop.result.coalitions_formed)});
  t.add_row({"intra-coalition local msgs",
             std::to_string(solo.result.coalition_local_messages),
             std::to_string(coop.result.coalition_local_messages)});
  t.add_row({"coalition awards settled",
             std::to_string(solo.result.coalition_awards),
             std::to_string(coop.result.coalition_awards)});
  t.add_row({"surplus distributed (G$)",
             stats::Table::num(solo.result.coalition_surplus, 1),
             stats::Table::num(coop.result.coalition_surplus, 1)});
  t.add_row({"acceptance %",
             stats::Table::num(solo.result.acceptance_pct(), 2),
             stats::Table::num(coop.result.acceptance_pct(), 2)});
  t.add_row({"mean response (s)",
             stats::Table::num(solo.result.fed_response_excl.mean(), 1),
             stats::Table::num(coop.result.fed_response_excl.mean(), 1)});
  t.add_row({"bank balanced", solo.balanced ? "yes" : "NO",
             coop.balanced ? "yes" : "NO"});
  std::printf("%s\n", t.str().c_str());

  const double cut = 100.0 * (1.0 - coop.result.wire_msgs_per_job() /
                                        solo.result.wire_msgs_per_job());
  const double response_drift =
      100.0 * (coop.result.fed_response_excl.mean() /
                   solo.result.fed_response_excl.mean() -
               1.0);
  std::printf("coalitions cut wire messages/job by %.1f%% "
              "(response drift %+.2f%%)\n",
              cut, response_drift);
  std::printf("every surplus split budget-balanced and individually "
              "rational: %s\n",
              coop.splits_sound ? "yes" : "NO");

  const bool ok = cut >= 20.0 && response_drift < 2.0 && solo.balanced &&
                  coop.balanced && coop.splits_sound &&
                  coop.result.coalition_awards > 0;
  return ok ? 0 : 1;
}
