#include "policy/auction_policy.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "coalition/coalition_manager.hpp"
#include "economy/cost_model.hpp"
#include "market/bid_pricing.hpp"
#include "market/bid_scorer.hpp"
#include "sim/check.hpp"

namespace gridfed::policy {

namespace {
/// A job's solicitation is never held longer than this fraction of its
/// remaining deadline slack, so tight-deadline jobs flush (nearly)
/// immediately while loose jobs ride out the full batch window.  The
/// tree transport's fan-out epoch is bounded by the same fraction.
constexpr double kSolicitHoldSlackFraction = 0.25;
}  // namespace

AuctionPolicy::AuctionPolicy(SchedulerContext& ctx, obs::Observer* observer)
    : SchedulingPolicy(ctx, observer),
      coalitions_(ctx.coalitions()),
      dbc_fallback_(ctx, observer) {}

AuctionPolicy::AuctionJobState* AuctionPolicy::state_of(
    const core::Pending& p) {
  return static_cast<AuctionJobState*>(p.policy_state.get());
}

AuctionPolicy::AuctionJobState& AuctionPolicy::ensure_state(core::Pending& p) {
  if (p.policy_state == nullptr) {
    p.policy_state = std::make_unique<AuctionJobState>();
  }
  return *state_of(p);
}

federation::ParticipantId AuctionPolicy::participant_of(
    cluster::ResourceIndex resource) const {
  return coalition::participant_of(coalitions_, resource);
}

cluster::ResourceIndex AuctionPolicy::representative_of(
    federation::ParticipantId participant) const {
  return coalition::representative_of(coalitions_, participant);
}

void AuctionPolicy::schedule(core::Pending p) {
  // Lifecycle: open an auction, then work through the cleared award
  // ranking, then (if everything declined) the DBC fallback walk.
  const AuctionJobState* st = state_of(p);
  if (st != nullptr && st->dbc_fallback) {
    dbc_fallback_.schedule(std::move(p));
  } else if (st != nullptr && st->ranked) {
    advance_awards(std::move(p));
  } else {
    open_auction(std::move(p));
  }
}

double AuctionPolicy::settled_cost(const core::Pending& p,
                                   cluster::ResourceIndex exec) const {
  // An in-flight award settles its cleared payment; the DBC fallback (and
  // anything else) the posted price.
  const AuctionJobState* st = state_of(p);
  if (st != nullptr && st->awarding()) return st->award_payment;
  return SchedulingPolicy::settled_cost(p, exec);
}

// ---- origin side ------------------------------------------------------------

void AuctionPolicy::open_auction(core::Pending p) {
  const auto& acfg = cfg_.auction;
  // Candidate providers in cheapest-first directory order: deterministic
  // and compatible with the load-hint filter.  One metered bulk query
  // replaces a per-rank query walk (the results ride back on a single
  // overlay route), which is what keeps directory traffic per auction
  // flat as the federation grows.
  directory::QueryFilter filter;
  filter.min_processors = p.job.processors;
  filter.exclude = self_;  // origin enters for free below
  if (cfg_.use_load_hints) filter.max_load_hint = cfg_.load_hint_threshold;
  ctx_.directory().query_top_k(directory::OrderBy::kCheapest,
                               acfg.max_bidders, filter, scratch_quotes_);

  const bool origin_enters =
      acfg.origin_bids && p.job.processors <= lrms_.spec().processors;

  // One book entrant per *participant*: the first (cheapest) quoted
  // member claims its coalition's slot, and the coalition is addressed
  // on the wire through its representative only — the group-addressed
  // dissemination that makes a coalition cost one delivery however many
  // clusters it federates.  A participant the origin itself represents
  // enters a message-free local joint bid instead.  With the coalition
  // layer off every participant is its own singleton and this reduces
  // exactly to the old per-cluster list.  Quotes name distinct clusters
  // and a singleton's id is its cluster index, so only coalition ids can
  // repeat.
  scratch_entrants_.clear();
  scratch_targets_.clear();
  bool own_group_enters = false;
  for (const directory::Quote& quote : scratch_quotes_) {
    const federation::ParticipantId pid = participant_of(quote.resource);
    if (pid.is_coalition() &&
        std::find(scratch_entrants_.begin(), scratch_entrants_.end(), pid) !=
            scratch_entrants_.end()) {
      continue;  // this coalition already holds a book slot
    }
    scratch_entrants_.push_back(pid);
    const cluster::ResourceIndex rep = representative_of(pid);
    if (rep == self_) {
      own_group_enters = true;
    } else {
      scratch_targets_.push_back(rep);
    }
  }
  const std::size_t n_remote = scratch_targets_.size();
  if (origin_enters) scratch_entrants_.push_back(self_);
  market::AuctionBook book = book_pool_.acquire(p.job.id, scratch_entrants_);
  if (own_group_enters) {
    // The origin speaks for a solicited coalition: the joint bid over
    // its (sibling) members enters locally, like the origin's own bid.
    book.add(coalitions_->joint_bid(participant_of(self_), p.job));
  }
  if (origin_enters) book.add(make_bid(p.job));  // message-free local bid

  p.negotiations += static_cast<std::uint32_t>(n_remote);  // remote enquiries
  const bool batched = acfg.batch_solicitations && n_remote > 0;
  if (!batched && n_remote > 0) {
    // One multicast covers every provider (the per-job broadcast): the
    // direct transport unrolls it into the seed's per-provider sends
    // and returns their count; the tree transport queues one fan-out,
    // bounded by the same slack fraction the batched flush applies, and
    // books its shared edges in the ledger's relay counters (returns 0).
    const sim::SimTime slack =
        std::max(0.0, p.job.absolute_deadline() - ctx_.now());
    const sim::SimTime not_after =
        ctx_.now() + kSolicitHoldSlackFraction * slack;
    p.messages += ctx_.multicast(
        ctx_.compose(core::MessageType::kCallForBids, self_, self_, p.job),
        scratch_targets_, not_after);
  }

  const cluster::JobId id = p.job.id;
  const auto [it, inserted] =
      auctions_.emplace(id, OpenAuction{std::move(p), std::move(book)});
  GF_EXPECTS(inserted);  // a job runs at most one auction round
  // The auction span opens before the synchronous-clear check so an
  // empty book still traces as a (zero-width) round.
  GF_OBS(observer_,
         begin(ctx_.now(), obs::SpanKind::kAuction, self_, id,
               it->second.book.solicited(), n_remote));
  GF_OBS(observer_, count(obs::Counter::kAuctionsOpened));
  if (it->second.book.complete()) {
    // No outstanding bidders (possibly an empty book): clear in place.
    clear_auction(id);
    return;
  }
  if (batched) {
    // The call-for-bids leave in the next flush; the bid timeout arms
    // there too (the book is not on the wire yet).
    queue_solicitation(id);
    return;
  }
  if (acfg.bid_timeout > 0.0) {
    ctx_.sim().schedule_in(acfg.bid_timeout, sim::EventKind::kBidTimeout,
                           [this, id] { on_bid_timeout(id); });
  }
}

void AuctionPolicy::queue_solicitation(cluster::JobId id) {
  const auto& acfg = cfg_.auction;
  const auto it = auctions_.find(id);
  GF_EXPECTS(it != auctions_.end());
  // Hold back at most the batch window, and never more than a fraction
  // of the job's remaining deadline slack: tight jobs flush (almost)
  // immediately — and carry every other queued job out with them.
  const sim::SimTime slack = std::max(
      0.0, it->second.pending.job.absolute_deadline() - ctx_.now());
  const sim::SimTime hold = std::min(
      acfg.solicit_batch_window, kSolicitHoldSlackFraction * slack);
  const sim::SimTime deadline = ctx_.now() + hold;
  solicit_queue_.push_back(id);
  if (deadline < flush_deadline_) flush_deadline_ = deadline;
  ctx_.sim().schedule_at(deadline, sim::EventKind::kSolicitFlush,
                         [this] { maybe_flush_solicitations(); });
}

void AuctionPolicy::maybe_flush_solicitations() {
  // Each queued job arms its own wake-up; only the one at the earliest
  // deadline flushes (stale wake-ups find the deadline moved or the
  // queue already empty).
  if (solicit_queue_.empty()) return;
  if (ctx_.now() < flush_deadline_) return;
  flush_solicitations();
}

void AuctionPolicy::flush_solicitations() {
  const auto& acfg = cfg_.auction;
  // One pass over the queue builds per-provider job buckets; providers
  // keep first-seen (cheapest-first) order so the wire order stays
  // deterministic.  scratch_providers_[i] is the provider of
  // scratch_buckets_[i] (bucket_of_ maps back); the buckets are members
  // so flushes reuse their capacity instead of reallocating.  The same
  // pass derives the transport's fan-out bound: the tree transport may
  // batch the call-for-bids further, but never past the slack fraction
  // this policy applies to its own hold.
  //
  // The buckets point at jobs inside auctions_ entries, which any insert
  // or erase of auctions_ may move (sim/flat_map.hpp).  They are safe
  // until the last multicast below: nothing here opens or clears an
  // auction, and multicast only queues deliveries and fan-outs, which
  // run as later events.
  scratch_providers_.clear();
  for (auto& bucket : scratch_buckets_) bucket.clear();
  sim::SimTime not_after = sim::kTimeInfinity;
  for (const cluster::JobId id : solicit_queue_) {
    const auto it = auctions_.find(id);
    if (it == auctions_.end()) continue;  // cleared while queued
    const sim::SimTime slack = std::max(
        0.0, it->second.pending.job.absolute_deadline() - ctx_.now());
    not_after = std::min(
        not_after, ctx_.now() + kSolicitHoldSlackFraction * slack);
    for (const federation::ParticipantId pid :
         it->second.book.solicited_list()) {
      // Wire address: the participant's representative; entrants the
      // origin itself covers (its own bid, a coalition it represents)
      // were answered locally at open time.
      const cluster::ResourceIndex r = representative_of(pid);
      if (r == self_) continue;
      if (r >= bucket_of_.size()) bucket_of_.resize(r + 1, kNoBucket);
      std::uint32_t& bucket = bucket_of_[r];
      if (bucket == kNoBucket) {
        bucket = static_cast<std::uint32_t>(scratch_providers_.size());
        scratch_providers_.push_back(r);
        if (scratch_buckets_.size() < scratch_providers_.size()) {
          scratch_buckets_.emplace_back();
        }
      }
      scratch_buckets_[bucket].push_back(&it->second.pending.job);
    }
  }
  for (const cluster::ResourceIndex r : scratch_providers_) {
    bucket_of_[r] = kNoBucket;
  }
  GF_OBS(observer_,
         instant(ctx_.now(), obs::SpanKind::kSolicitFlush, self_, 0,
                 scratch_providers_.size(), solicit_queue_.size()));
  GF_OBS(observer_, count(obs::Counter::kSolicitFlushes));
  // Emit one multicast per maximal run of providers sharing a job
  // bucket.  With the default full-book solicitation every provider
  // shares one bucket, so the flush writes the job list into the arena
  // ONCE and all 50 provider messages view it — no per-provider Job
  // copies.
  std::shared_ptr<transport::MessageArena> arena;
  std::size_t i = 0;
  while (i < scratch_providers_.size()) {
    std::size_t j = i + 1;
    while (j < scratch_providers_.size() &&
           scratch_buckets_[j] == scratch_buckets_[i]) {
      ++j;
    }
    if (!arena) arena = std::make_shared<transport::MessageArena>();
    const std::span<const cluster::Job> batch =
        arena->append(scratch_buckets_[i]);
    const core::Outgoing msg = ctx_.compose(core::MessageType::kCallForBids,
                                            self_, self_, batch.front());
    msg->batch_jobs = batch;
    msg->arena = arena;
    // Attribute the run's wire cost to the batch's first job so the
    // per-job counters still sum to the ledger total (on the direct
    // transport; the tree's shared edge messages return 0 and live in
    // the ledger's relay counters instead).
    const cluster::JobId front_id = batch.front().id;
    const std::uint64_t wire = ctx_.multicast(
        msg,
        std::span<const cluster::ResourceIndex>(
            scratch_providers_.data() + i, j - i),
        not_after);
    auctions_.find(front_id)->second.pending.messages += wire;
    i = j;
  }
  if (acfg.bid_timeout > 0.0) {
    for (const cluster::JobId id : solicit_queue_) {
      if (auctions_.find(id) == auctions_.end()) continue;
      ctx_.sim().schedule_in(acfg.bid_timeout, sim::EventKind::kBidTimeout,
                             [this, id] { on_bid_timeout(id); });
    }
  }
  solicit_queue_.clear();
  flush_deadline_ = sim::kTimeInfinity;
}

void AuctionPolicy::on_bid_timeout(cluster::JobId id) {
  // Deadline for the book: clear with whatever arrived.  A no-op when every
  // bid beat the timeout (the book already cleared and erased itself).
  clear_auction(id);
}

void AuctionPolicy::clear_auction(cluster::JobId id) {
  const auto it = auctions_.find(id);
  if (it == auctions_.end()) return;  // already cleared
  OpenAuction auction = std::move(it->second);
  auctions_.erase(it);

  const market::AuctionEngine engine(
      cfg_.auction.clearing, cfg_.auction.scoring,
      cfg_.auction.score_time_weight, cfg_.enforce_budget,
      cfg_.enforce_deadline);
  core::Pending p = std::move(auction.pending);
  AuctionJobState& st = ensure_state(p);
  st.ranking = engine.rank(p.job, auction.book.bids());
  st.ranked = !st.ranking.empty();

  market::ClearingReport report;
  report.job = p.job.id;
  report.solicited = auction.book.solicited();
  // Tombstoned answers count as bids received: the providers DID answer,
  // the overlay just carried a marker instead of the quote — so the
  // bids-per-auction telemetry is invariant under transport pruning.
  report.bids = auction.book.bids().size() + auction.book.pruned();
  report.feasible = st.ranking.size();
  report.awarded = st.ranked;
  if (report.awarded) {
    const market::Award winner = st.ranking.front();
    report.winner = winner.bid.bidder;
    report.winner_ask = winner.bid.ask;
    report.payment = winner.payment;
  }
  ctx_.auction_report(report);

  GF_OBS(observer_,
         end(ctx_.now(), obs::SpanKind::kAuction, self_, id,
             report.bids, report.awarded ? 1 : 0, report.payment));
  GF_OBS(observer_, observe(obs::Histo::kBookDepth,
                            static_cast<double>(report.bids)));
  if (report.awarded) {
    GF_OBS(observer_, count(obs::Counter::kAwardsCleared));
    GF_OBS(observer_,
           observe(obs::Histo::kClearingPrice, report.payment));
  }
  // Forensics: the full decision record — every bid re-scored under the
  // active rule — built only when the ledger is on (score() re-derives
  // the rank key; too costly for the always-on path).
  if (observer_ != nullptr && observer_->forensics_on()) {
    obs::ClearingDecision decision;
    decision.t = ctx_.now();
    decision.job = id;
    decision.scoring = engine.scoring();
    decision.clearing = engine.rule();
    decision.solicited.reserve(auction.book.solicited());
    for (const federation::ParticipantId pid : auction.book.solicited_list()) {
      decision.solicited.push_back(pid.value);
    }
    decision.bids.reserve(auction.book.bids().size());
    for (const market::Bid& bid : auction.book.bids()) {
      decision.bids.push_back(obs::ScoredBid{bid.bidder.value, bid.ask,
                                             bid.completion_estimate,
                                             bid.feasible,
                                             engine.score(p.job, bid)});
    }
    decision.awarded = report.awarded;
    if (report.awarded) {
      decision.winner = report.winner.value;
      decision.winner_ask = report.winner_ask;
      decision.payment = report.payment;
      if (const market::Bid* runner_up = st.ranking.runner_up()) {
        decision.has_runner_up = true;
        decision.runner_up_margin =
            engine.score(p.job, *runner_up) -
            engine.score(p.job, st.ranking.front().bid);
      }
    }
    observer_->forensics()->record(std::move(decision));
  }

  // The book's allocations go back to the pool for the next job of the
  // same shape.
  book_pool_.release(std::move(auction.book));

  if (st.ranked) {
    advance_awards(std::move(p));
  } else {
    fallback(std::move(p));
  }
}

void AuctionPolicy::advance_awards(core::Pending p) {
  AuctionJobState& st = ensure_state(p);
  while (!st.ranking.empty()) {
    const market::Award award = st.ranking.front();
    st.ranking.pop();
    if (award.bid.bidder == self_) {
      // Won our own auction: admission is a free local re-check, and the
      // cleared payment (not the posted price) is what gets settled.
      if (ctx_.local_deadline_ok(p.job)) {
        ctx_.execute_here(std::move(p), award.payment);
        return;
      }
      continue;  // queue filled up since bidding: next award
    }
    const cluster::ResourceIndex rep = representative_of(award.bid.bidder);
    st.award_payment = award.payment;
    if (rep == self_) {
      // A coalition the origin itself represents won: internal placement
      // runs over the local links (no wire enquiry); the engine ships
      // the payload straight to the chosen member, or hands the job back
      // through schedule() when every member declines.
      ctx_.place_in_coalition(std::move(p), award.bid.bidder,
                              award.payment);
      return;
    }
    // The award is an admission enquiry through the shared seam: the
    // winner re-checks, reserves, and answers with a kReply.  A
    // coalition winner is addressed through its representative.
    ctx_.send_award(std::move(p), rep, award.payment);
    return;  // resume in the engine's reply handler (or the timeout)
  }
  fallback(std::move(p));
}

void AuctionPolicy::drain_in_flight(
    const std::function<void(core::Pending)>& sink) {
  // Drain the open books in job-id order: the sink records outcomes, and
  // the sort keeps their order independent of the table's iteration
  // order (erases move its entries).
  std::vector<cluster::JobId> open;
  open.reserve(auctions_.size());
  for (const auto& [id, auction] : auctions_) open.push_back(id);
  std::sort(open.begin(), open.end());
  for (const cluster::JobId id : open) {
    const auto it = auctions_.find(id);
    OpenAuction auction = std::move(it->second);
    auctions_.erase(it);
    // Close the trace span the open started; 0 bids, not awarded.
    GF_OBS(observer_,
           end(ctx_.now(), obs::SpanKind::kAuction, self_, id, 0, 0));
    book_pool_.release(std::move(auction.book));
    sink(std::move(auction.pending));
  }
  // Queued solicitations referenced the books just drained; armed flush
  // wake-ups and bid timeouts now find nothing.
  solicit_queue_.clear();
  flush_deadline_ = sim::kTimeInfinity;
}

void AuctionPolicy::fallback(core::Pending p) {
  if (cfg_.auction.fallback_to_dbc) {
    // Reached with the ranking exhausted (or never non-empty).
    ensure_state(p).dbc_fallback = true;
    p.next_rank = 1;  // fresh DBC walk; cluster state moved on since bidding
    dbc_fallback_.schedule(std::move(p));
  } else {
    ctx_.reject(std::move(p));
  }
}

// ---- provider side ----------------------------------------------------------

market::Bid AuctionPolicy::participant_bid(const cluster::Job& job) {
  if (coalitions_ != nullptr) {
    const federation::ParticipantId pid =
        coalitions_->registry().participant_of(self_);
    if (pid.is_coalition() &&
        coalitions_->registry().representative(pid) == self_) {
      // This cluster speaks for its coalition: one joint bid aggregated
      // over the members' pricing (fanned out on the local links; the
      // manager counts them).
      return coalitions_->joint_bid(pid, job);
    }
  }
  return make_bid(job);
}

market::Bid AuctionPolicy::make_bid(const cluster::Job& job) {
  const auto& own = lrms_.spec();
  market::Bid bid;
  bid.bidder = self_;
  if (job.processors > own.processors) return bid;  // infeasible
  const sim::SimTime exec = cluster::execution_time(
      job, ctx_.spec_of(job.origin), own);
  const sim::SimTime staged =
      ctx_.now() + ctx_.payload_staging_time(job, self_);
  bid.completion_estimate = lrms_.estimate_completion(job, exec, staged);
  bid.feasible = !cfg_.enforce_deadline ||
                 bid.completion_estimate <= job.absolute_deadline();
  const double true_cost = economy::job_cost(job, ctx_.spec_of(job.origin),
                                             own, cfg_.cost_model);
  bid.ask = market::bid_price(cfg_.auction.bid_pricing, true_cost,
                              lrms_.instantaneous_load(), cfg_.auction.markup,
                              cfg_.pricing);
  return bid;
}

void AuctionPolicy::on_call_for_bids(const core::Message& msg) {
  // Provider side: answer with a sealed ask.  Bidding is non-binding (no
  // reservation); the award re-runs admission, so a stale estimate only
  // costs the origin a declined award, never a broken guarantee.
  if (!msg.batch_jobs.empty()) {
    // Batched solicitation: one sealed ask per carried job, all riding
    // home in a single wire message.  The asks go into a recycled
    // buffer, so the answer usually allocates nothing.
    const core::Outgoing answer = ctx_.compose(
        core::MessageType::kBid, self_, msg.from, msg.batch_jobs.front());
    answer->batch_bids = ctx_.bid_buffer();
    answer->batch_bids.reserve(msg.batch_jobs.size());
    for (const cluster::Job& job : msg.batch_jobs) {
      const market::Bid bid = participant_bid(job);
      answer->batch_bids.push_back(core::BatchedBid{
          job.id, bid.ask, bid.completion_estimate, bid.feasible});
    }
    GF_OBS(observer_,
           instant(ctx_.now(), obs::SpanKind::kBidAnswered, self_,
                   msg.batch_jobs.front().id, msg.from,
                   msg.batch_jobs.size()));
    GF_OBS(observer_,
           count(obs::Counter::kBidsAnswered, msg.batch_jobs.size()));
    ctx_.send(answer);
    return;
  }
  const market::Bid bid = participant_bid(msg.job);
  const core::Outgoing answer =
      ctx_.compose(core::MessageType::kBid, self_, msg.from, msg.job);
  answer->accept = bid.feasible;
  answer->completion_estimate = bid.completion_estimate;
  answer->price = bid.ask;
  GF_OBS(observer_,
         instant(ctx_.now(), obs::SpanKind::kBidAnswered, self_,
                 msg.job.id, msg.from, 1));
  GF_OBS(observer_, count(obs::Counter::kBidsAnswered));
  ctx_.send(answer);
}

void AuctionPolicy::on_bid(const core::Message& msg) {
  if (!msg.batch_bids.empty()) {
    // One wire message, several books: count it once (toward the first
    // still-open auction it feeds) and enter every ask.  A bid that
    // rode the overlay was already booked by the transport as shared
    // edge messages (ledger relay counters) — not per job.
    bool counted = msg.via_overlay;
    const federation::ParticipantId bidder = participant_of(msg.from);
    for (const core::BatchedBid& entry : msg.batch_bids) {
      const auto it = auctions_.find(entry.job);
      if (it == auctions_.end()) continue;  // cleared at the timeout: stale
      // The book rejects duplicates (a re-delivered wire message), so
      // the message only counts once it actually enters a book.
      // A tombstoned entry (overlay convergecast prune) carries no
      // quote: the bidder is marked answered so the book completes on
      // the same instant it would unpruned, but no bid is entered —
      // the relay proved it outside the decision-relevant rank prefix.
      const bool entered =
          entry.pruned
              ? it->second.book.add_pruned(bidder)
              : it->second.book.add(market::Bid{bidder, entry.ask,
                                                entry.completion_estimate,
                                                entry.feasible});
      if (entered && !counted) {
        ++it->second.pending.messages;
        counted = true;
      }
      if (it->second.book.complete()) clear_auction(entry.job);
    }
    return;
  }
  const auto it = auctions_.find(msg.job.id);
  if (it == auctions_.end()) return;  // book cleared at the timeout: stale bid
  OpenAuction& auction = it->second;
  // A bid from a coalition's representative enters under the coalition's
  // participant id (singletons map to themselves).
  const bool entered =
      msg.bid_pruned
          ? auction.book.add_pruned(participant_of(msg.from))
          : auction.book.add(market::Bid{participant_of(msg.from), msg.price,
                                         msg.completion_estimate, msg.accept});
  if (entered && !msg.via_overlay) ++auction.pending.messages;
  if (auction.book.complete()) clear_auction(msg.job.id);
}

}  // namespace gridfed::policy
