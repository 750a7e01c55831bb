// Fig 11 — System scalability: min / average / max messages *per GFA*
// (sent + received) as the federation grows from 10 to 50 resources
// (Experiment 5).  Also reports the auction-mode batching comparison on
// the per-GFA series and, with --json=PATH, dumps a machine-readable
// summary for bench/run_bench.sh.

#include <cstdio>
#include <string>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace gridfed;
  bench::banner("Fig 11",
                "Experiment 5 — message complexity per GFA vs system size "
                "(10..50 resources)");

  const std::vector<std::size_t> sizes{10, 20, 30, 40, 50};
  const std::vector<std::uint32_t> profiles{0, 10, 20, 30, 50, 100};
  const auto cfg = core::make_config(core::SchedulingMode::kEconomy);
  const auto points = core::run_scaling_study(cfg, sizes, profiles);

  for (const char* which : {"Min", "Average", "Max"}) {
    std::printf("(%c) %s messages per GFA vs system size\n\n",
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
        const auto& acc = points[idx].msgs_per_gfa;
        const double v = which[1] == 'i'   ? acc.min()
                         : which[0] == 'A' ? acc.mean()
                                           : acc.max();
        row.push_back(stats::Table::num(v, 0));
      }
      t.add_row(std::move(row));
    }
    std::printf("%s\n", t.str().c_str());
  }
  std::printf("Paper reference (avg/GFA): OFC 2.836e3 -> 8.943e3 (size 10 "
              "-> 40); OFT 6.039e3 -> 2.099e4.\n\n");

  // ---- auction mode: batched vs per-job solicitation ----------------------
  std::printf("Auction mode (70/30 OFC/OFT): messages per GFA with batched "
              "bid solicitation (window %.0f s)\n\n",
              bench::kBenchBatchWindow);
  // Deliberately re-simulates the same series fig10 runs: each figure
  // binary stays standalone (the bench convention), at the cost of a
  // duplicated sweep when run_bench.sh executes both.
  const std::vector<std::size_t> auction_sizes{8, 20, 50};
  const auto batching = bench::auction_batching_series(auction_sizes);
  stats::Table at({"System size", "Unbatched msgs/GFA", "Batched msgs/GFA",
                   "Reduction %", "Tree msgs/GFA", "Tree red. %"});
  for (const auto& p : batching) {
    const double u = p.unbatched.msgs_per_gfa.mean();
    const double b = p.batched.msgs_per_gfa.mean();
    // Tree per-GFA load counts relay traffic at both edge endpoints
    // (MessageLedger::relay_at) — the honest per-node series.
    const double t = p.tree.msgs_per_gfa.mean();
    at.add_row({std::to_string(p.size), stats::Table::num(u, 0),
                stats::Table::num(b, 0),
                stats::Table::num(u > 0.0 ? 100.0 * (1.0 - b / u) : 0.0, 1),
                stats::Table::num(t, 0),
                stats::Table::num(b > 0.0 ? 100.0 * (1.0 - t / b) : 0.0, 1)});
  }
  std::printf("%s\n", at.str().c_str());

  const std::string json = bench::json_path(argc, argv);
  if (!json.empty()) {
    std::FILE* f = std::fopen(json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"artifact\": \"fig11\",\n");
    std::fprintf(f, "  \"economy_msgs_per_gfa_mean\": {");
    std::size_t idx = 0;
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      std::fprintf(f, "%s\"%zu\": [", s == 0 ? "" : ", ", sizes[s]);
      for (std::size_t p = 0; p < profiles.size(); ++p, ++idx) {
        std::fprintf(f, "%s%.2f", p == 0 ? "" : ", ",
                     points[idx].msgs_per_gfa.mean());
      }
      std::fprintf(f, "]");
    }
    std::fprintf(f, "},\n");
    std::fprintf(f, "  \"auction_batching\": {\"oft_percent\": 30, "
                    "\"batch_window_s\": %.1f, \"points\": [\n",
                 bench::kBenchBatchWindow);
    for (std::size_t i = 0; i < batching.size(); ++i) {
      const auto& p = batching[i];
      std::fprintf(f,
                   "    {\"size\": %zu, \"unbatched_msgs_per_gfa\": %.2f, "
                   "\"batched_msgs_per_gfa\": %.2f, "
                   "\"tree_msgs_per_gfa\": %.2f}%s\n",
                   p.size, p.unbatched.msgs_per_gfa.mean(),
                   p.batched.msgs_per_gfa.mean(),
                   p.tree.msgs_per_gfa.mean(),
                   i + 1 < batching.size() ? "," : "");
    }
    std::fprintf(f, "  ]}\n}\n");
    std::fclose(f);
    std::printf("JSON summary written to %s\n", json.c_str());
  }
  return 0;
}
