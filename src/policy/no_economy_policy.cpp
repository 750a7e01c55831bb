#include "policy/no_economy_policy.hpp"

#include <utility>

namespace gridfed::policy {

void NoEconomyPolicy::schedule(core::Pending p) {
  // Local first: only at the job's first touch (a resumed walk already
  // found the local queue unable to honour the deadline).
  if (p.next_rank == 1 && p.negotiations == 0 &&
      ctx_.local_deadline_ok(p.job)) {
    ctx_.execute_here(std::move(p), -1.0);
    return;
  }
  auto& dir = ctx_.directory();
  while (true) {
    const auto quote =
        cfg_.use_load_hints
            ? dir.query_filtered(directory::OrderBy::kFastest, p.next_rank,
                                 cfg_.load_hint_threshold)
            : dir.query(directory::OrderBy::kFastest, p.next_rank);
    if (!quote) {
      ctx_.reject(std::move(p));
      return;
    }
    ++p.next_rank;
    if (quote->resource == self_) continue;  // local already checked
    if (quote->processors < p.job.processors) continue;  // statically too small
    // Dynamic feasibility needs the remote queue: negotiate.
    ctx_.send_negotiate(std::move(p), quote->resource);
    return;  // resume in the engine's reply handler (or the timeout)
  }
}

}  // namespace gridfed::policy
