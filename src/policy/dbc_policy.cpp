#include "policy/dbc_policy.hpp"

#include <utility>

namespace gridfed::policy {

void DbcPolicy::schedule(core::Pending p) {
  auto& dir = ctx_.directory();
  const auto order = directory::order_for(p.job.opt);
  while (true) {
    const auto quote =
        cfg_.use_load_hints
            ? dir.query_filtered(order, p.next_rank, cfg_.load_hint_threshold)
            : dir.query(order, p.next_rank);
    if (!quote) {
      ctx_.reject(std::move(p));
      return;
    }
    ++p.next_rank;
    if (quote->processors < p.job.processors) continue;
    if (cfg_.enforce_budget &&
        ctx_.cost_from_quote(p.job, *quote) > p.job.budget) {
      continue;  // the quote alone rules this site out
    }
    if (quote->resource == self_) {
      if (ctx_.local_deadline_ok(p.job)) {
        ctx_.execute_here(std::move(p), -1.0);
        return;
      }
      continue;
    }
    ctx_.send_negotiate(std::move(p), quote->resource);
    return;  // resume in the engine's reply handler (or the timeout)
  }
}

}  // namespace gridfed::policy
