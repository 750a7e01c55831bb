#include "transport/tree_transport.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "overlay/node_id.hpp"
#include "sim/check.hpp"
#include "sim/hash.hpp"

namespace gridfed::transport {

TreeTransport::TreeTransport(TransportContext& ctx,
                             std::optional<network::LatencyModel> wan)
    : Transport(ctx, std::move(wan)) {
  const std::size_t n = ctx_.sites();
  GF_EXPECTS(n > 0);
  fanout_ = std::max<std::uint32_t>(1, ctx_.config().transport.tree_fanout);
  // Convergecast aggregation: the relays rank bids under the SAME rule
  // the origin's clearing engine will apply — both sides read the one
  // auction config, so they cannot disagree on the rank order (see
  // market/bid_scorer.hpp).  k == 1 is clamped to 2: Vickrey's payment
  // needs the runner-up's ask, so the winner alone is never enough.
  const auto& cfg = ctx_.config();
  prune_k_ = cfg.transport.bid_prune_k;
  if (prune_k_ == 1) prune_k_ = 2;
  encode_bids_ = cfg.transport.bid_delta_encode;
  scorer_ = market::BidScorer(cfg.auction.scoring,
                              cfg.auction.score_time_weight,
                              cfg.enforce_budget, cfg.enforce_deadline);
  // The tree is the k-ary heap layout over the overlay ring order: sort
  // by (ring key, index) — the same ids a ChordRing would assign the
  // directory peers — so the topology is deterministic and independent
  // of construction order.
  std::vector<std::pair<overlay::RingKey, cluster::ResourceIndex>> keyed;
  keyed.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto index = static_cast<cluster::ResourceIndex>(i);
    keyed.emplace_back(overlay::ring_hash(ctx_.spec_of(index).name), index);
  }
  std::sort(keyed.begin(), keyed.end());
  owner_at_.resize(n);
  pos_of_.resize(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    owner_at_[pos] = keyed[pos].second;
    pos_of_[keyed[pos].second] = static_cast<std::uint32_t>(pos);
  }
  dead_pos_.assign(n, 0);
}

bool TreeTransport::interior_relay(cluster::ResourceIndex owner) const {
  GF_EXPECTS(owner < pos_of_.size());
  const std::uint32_t pos = pos_of_[owner];
  const std::uint64_t first_child =
      static_cast<std::uint64_t>(pos) * fanout_ + 1;
  return pos != 0 && first_child < owner_at_.size();
}

cluster::ResourceIndex TreeTransport::parent_of(
    cluster::ResourceIndex owner) const {
  GF_EXPECTS(owner < pos_of_.size());
  const std::uint32_t pos = pos_of_[owner];
  return pos == 0 ? owner : owner_at_[parent_pos(pos)];
}

std::uint32_t TreeTransport::path_hops(cluster::ResourceIndex from,
                                       cluster::ResourceIndex to) const {
  GF_EXPECTS(from < pos_of_.size() && to < pos_of_.size());
  std::vector<std::uint32_t> path;
  path_positions(pos_of_[from], pos_of_[to], path);
  return static_cast<std::uint32_t>(path.size() - 1);
}

void TreeTransport::path_positions(std::uint32_t a, std::uint32_t b,
                                   std::vector<std::uint32_t>& out) const {
  // Heap indices decrease strictly toward the root, so climbing the
  // numerically larger endpoint converges on the lowest common ancestor
  // without precomputing depths.
  out.clear();
  scratch_up_.clear();
  std::uint32_t x = a;
  std::uint32_t y = b;
  while (x != y) {
    if (x > y) {
      out.push_back(x);
      x = parent_pos(x);
    } else {
      scratch_up_.push_back(y);
      y = parent_pos(y);
    }
  }
  out.push_back(x);  // the LCA
  out.insert(out.end(), scratch_up_.rbegin(), scratch_up_.rend());
}

void TreeTransport::relay_path(std::uint32_t a, std::uint32_t b,
                               std::vector<std::uint32_t>& out) const {
  path_positions(a, b, out);
  if (!any_dead_) return;
  // Excise confirmed-dead interior relays; endpoints stay (a dead
  // endpoint's delivery is suppressed at the sink, not rerouted).
  std::size_t w = 0;
  for (std::size_t r = 0; r < out.size(); ++r) {
    const bool endpoint = r == 0 || r + 1 == out.size();
    if (!endpoint && dead_pos_[out[r]] != 0) continue;
    out[w++] = out[r];
  }
  out.resize(w);
}

void TreeTransport::prune_retained() {
  if (retained_losses_.empty()) return;
  const sim::SimTime cutoff =
      ctx_.sim().now() - ctx_.config().membership.confirmation_bound();
  std::erase_if(retained_losses_, [cutoff](const LostSolicitation& entry) {
    return entry.at < cutoff;
  });
}

void TreeTransport::on_member_dead(cluster::ResourceIndex index) {
  GF_EXPECTS(index < pos_of_.size());
  const std::uint32_t pos = pos_of_[index];
  if (dead_pos_[pos] != 0) return;
  dead_pos_[pos] = 1;
  any_dead_ = true;
  ++repairs_;
  // Replay everything an unconfirmed-dead relay swallowed.  Entries
  // whose path crossed a *different* still-unconfirmed crash die on that
  // edge again and are re-retained by relay() for that member's own
  // confirmation, so nothing from a live origin is ever dropped.
  replay_storage_.clear();
  for (LostSolicitation& entry : retained_losses_) {
    if (!ctx_.site_up(entry.msg.from) || !ctx_.site_up(entry.msg.to)) {
      continue;  // origin or target itself is gone — nobody to serve
    }
    replay_storage_.push_back(std::move(entry.msg));
  }
  retained_losses_.clear();
  const std::uint64_t replayed_now = replay_storage_.size();
  if (replayed_now > 0) {
    scratch_items_.clear();
    for (std::size_t i = 0; i < replay_storage_.size(); ++i) {
      scratch_items_.push_back(RelayItem{&replay_storage_[i],
                                         replay_storage_[i].to,
                                         static_cast<std::uint32_t>(i + 1)});
    }
    route(scratch_items_);
    const std::uint64_t relays_before = ctx_.ledger().relay_total();
    relay(scratch_items_, core::MessageType::kCallForBids);
    repair_relay_msgs_ += ctx_.ledger().relay_total() - relays_before;
    replayed_ += replayed_now;
  }
#if GRIDFED_TRACE
  if (obs::Observer* o = ctx_.observer(); o != nullptr) {
    o->instant(ctx_.sim().now(), obs::SpanKind::kTreeRepair,
               o->transport_track(), index, pos, replayed_now);
    o->count(obs::Counter::kTreeRepairs);
    if (replayed_now > 0) {
      o->count(obs::Counter::kReplayedSolicitations, replayed_now);
    }
  }
#endif
}

void TreeTransport::on_member_left(cluster::ResourceIndex index) {
  GF_EXPECTS(index < pos_of_.size());
  dead_pos_[pos_of_[index]] = 1;
  any_dead_ = true;
}

void TreeTransport::on_member_joined(cluster::ResourceIndex index) {
  GF_EXPECTS(index < pos_of_.size());
  dead_pos_[pos_of_[index]] = 0;
  any_dead_ = false;
  for (const std::uint8_t dead : dead_pos_) {
    if (dead != 0) {
      any_dead_ = true;
      break;
    }
  }
}

void TreeTransport::unicast(core::Message&& msg) {
  switch (msg.type) {
    case core::MessageType::kBid:
      convergecast_queue_.push_back(std::move(msg));
      if (!convergecast_armed_) {
        convergecast_armed_ = true;
        // Runs after every delivery of this instant, so all bids the
        // instant produces share the flush.
        ctx_.sim().schedule_at(ctx_.sim().now(), sim::EventPriority::kControl,
                               [this] { flush_convergecast(); });
      }
      return;
    default:
      // Latency-critical admission legs and payload transfers stay
      // point-to-point (see file comment in tree_transport.hpp).
      direct_unicast(std::move(msg));
      return;
  }
}

std::uint64_t TreeTransport::multicast(
    core::Message&& msg, std::span<const cluster::ResourceIndex> targets,
    sim::SimTime not_after) {
  // Group-addressed dissemination: a coalition costs one delivery to
  // its representative — the fan-out behind it rides the coalition
  // layer's local links, never the tree's wire edges.
  targets = collapse_groups(targets);
  if (targets.empty()) return 0;
  // Every solicitation fanning out through the tree teaches the relays
  // the job's QoS envelope and shape key, so the bids coming back can be
  // scored and delta-grouped on the convergecast path.
  if (msg.type == core::MessageType::kCallForBids &&
      (prune_k_ > 0 || encode_bids_)) {
    harvest_job_facts(msg);
  }
#if GRIDFED_TRACE
  if (fanout_queue_.empty()) {
    // First fan-out of a fresh epoch: the span runs until the flush.
    if (obs::Observer* o = ctx_.observer(); o != nullptr) {
      o->begin(ctx_.sim().now(), obs::SpanKind::kFanoutEpoch,
               o->transport_track(), ++epoch_seq_);
    }
  }
#endif
  const auto first_target = static_cast<std::uint32_t>(fanout_targets_.size());
  fanout_targets_.insert(fanout_targets_.end(), targets.begin(),
                         targets.end());
  fanout_queue_.push_back(PendingFanout{
      std::move(msg), first_target,
      static_cast<std::uint32_t>(targets.size())});
  schedule_fanout_wake(not_after);
  return 0;  // shared edge cost lands in the ledger's relay counters
}

void TreeTransport::schedule_fanout_wake(sim::SimTime not_after) {
  const sim::SimTime now = ctx_.sim().now();
  const sim::SimTime epoch = ctx_.config().transport.tree_epoch;
  sim::SimTime boundary = now;
  if (epoch > 0.0) boundary = std::ceil(now / epoch) * epoch;
  // Release at the epoch boundary, earlier when the caller's slack
  // bound demands it, and never in the past.
  const sim::SimTime due = std::max(now, std::min(boundary, not_after));
  if (due < fanout_due_) fanout_due_ = due;
  ctx_.sim().schedule_at(due, sim::EventPriority::kControl,
                         [this] { maybe_flush_fanout(); });
}

void TreeTransport::maybe_flush_fanout() {
  // Every queued fan-out arms its own wake; only the one at the
  // earliest due time flushes (stale wakes find the queue empty or the
  // deadline moved), mirroring the policy-level flush pattern.
  if (fanout_queue_.empty()) return;
  if (ctx_.sim().now() < fanout_due_) return;
  flush_fanout();
}

void TreeTransport::flush_fanout() {
  prune_retained();
  fanout_queue_.swap(fanout_flush_);
  fanout_targets_.swap(fanout_flush_targets_);
  fanout_due_ = sim::kTimeInfinity;
  scratch_items_.clear();
  for (std::size_t p = 0; p < fanout_flush_.size(); ++p) {
    PendingFanout& entry = fanout_flush_[p];
    const std::span<const cluster::ResourceIndex> targets(
        fanout_flush_targets_.data() + entry.first_target,
        entry.target_count);
    for (const cluster::ResourceIndex target : targets) {
      if (target == entry.msg.from) continue;  // self needs no wire
      scratch_items_.push_back(
          RelayItem{&entry.msg, target, static_cast<std::uint32_t>(p + 1)});
    }
  }
#if GRIDFED_TRACE
  if (obs::Observer* o = ctx_.observer(); o != nullptr) {
    o->end(ctx_.sim().now(), obs::SpanKind::kFanoutEpoch,
           o->transport_track(), epoch_seq_, fanout_flush_.size(),
           scratch_items_.size());
    o->observe(obs::Histo::kFanoutTargets,
               static_cast<double>(scratch_items_.size()));
  }
#endif
  route(scratch_items_);
  relay(scratch_items_, core::MessageType::kCallForBids);
  fanout_flush_.clear();
  fanout_flush_targets_.clear();
}

void TreeTransport::flush_convergecast() {
  convergecast_armed_ = false;
  convergecast_queue_.swap(convergecast_flush_);
  std::vector<core::Message>& queue = convergecast_flush_;
  const bool aggregate = prune_k_ > 0 || encode_bids_;
#if GRIDFED_TRACE
  const std::uint64_t pruned_before = bids_pruned_;
  const std::uint64_t saved_before = prune_bytes_saved_;
#endif
  scratch_items_.clear();
  for (std::size_t p = 0; p < queue.size(); ++p) {
    scratch_items_.push_back(RelayItem{&queue[p], queue[p].to,
                                       static_cast<std::uint32_t>(p + 1)});
  }
  route(scratch_items_);
  if (aggregate) prune_convergecast(queue);
#if GRIDFED_TRACE
  if (obs::Observer* o = ctx_.observer(); o != nullptr) {
    o->instant(ctx_.sim().now(), obs::SpanKind::kConvergecast,
               o->transport_track(), 0, queue.size());
  }
#endif
  bid_frame_relay_ = aggregate && encode_bids_;
  relay(scratch_items_, core::MessageType::kBid);
  bid_frame_relay_ = false;
#if GRIDFED_TRACE
  if (aggregate) {
    if (obs::Observer* o = ctx_.observer(); o != nullptr) {
      const std::uint64_t pruned_now = bids_pruned_ - pruned_before;
      const std::uint64_t saved_now = prune_bytes_saved_ - saved_before;
      o->instant(ctx_.sim().now(), obs::SpanKind::kBidPrune,
                 o->transport_track(), 0, pruned_now, queue.size(),
                 static_cast<double>(saved_now));
      if (pruned_now > 0) o->count(obs::Counter::kBidsPruned, pruned_now);
      if (saved_now > 0) {
        o->count(obs::Counter::kBidPruneBytesSaved, saved_now);
      }
    }
  }
#endif
  queue.clear();
}

void TreeTransport::harvest_job_facts(const core::Message& msg) {
  if (msg.batch_jobs.empty()) {
    remember_job(msg.job);
    return;
  }
  for (const cluster::Job& job : msg.batch_jobs) remember_job(job);
}

void TreeTransport::remember_job(const cluster::Job& job) {
  JobFacts facts;
  facts.qos = market::JobQos::of(job);
  // The delta encoder's shape key: jobs whose solicited attributes fall
  // in the same log buckets produce near-identical quotes from one
  // provider, so their bids on one edge share a base quote.
  std::uint64_t h = sim::kFnvOffsetBasis;
  h = sim::fnv1a_mix(h, job.origin);
  h = sim::fnv1a_mix(h, job.processors);
  h = sim::fnv1a_mix(h, market::shape_bucket(job.length_mi, kShapeQuantum));
  h = sim::fnv1a_mix(h,
                     market::shape_bucket(job.comm_overhead, kShapeQuantum));
  job_facts_[job.id] = JobFacts{facts.qos, h};
}

void TreeTransport::prune_convergecast(std::vector<core::Message>& queue) {
  // One candidate per bid entry eligible for the rank walk (facts known
  // and admissible); inadmissible entries tombstone unconditionally and
  // facts-less feasible entries are never pruned (without the QoS
  // envelope the relay cannot reproduce the engine's rank order, and a
  // wrong order could prune inside the engine's prefix).
  scratch_cands_.clear();
  // Grow only: a shrink would free the inner vectors the next, larger
  // flush needs again.
  if (scratch_entry_meta_.size() < queue.size()) {
    scratch_entry_meta_.resize(queue.size());
  }
  for (std::size_t p = 0; p < queue.size(); ++p) {
    const core::Message& msg = queue[p];
    const auto plen = static_cast<std::uint32_t>(route_hops(p).size());
    const federation::ParticipantId bidder =
        groups_ ? groups_->participant_of(msg.from)
                : federation::ParticipantId(msg.from);
    const std::size_t entries =
        msg.batch_bids.empty() ? 1 : msg.batch_bids.size();
    auto& meta = scratch_entry_meta_[p];
    meta.assign(entries, BidEntryMeta{});
    for (std::size_t e = 0; e < entries; ++e) {
      market::Bid bid;
      bid.bidder = bidder;
      cluster::JobId job_id = 0;
      if (msg.batch_bids.empty()) {
        job_id = msg.job.id;
        bid.ask = msg.price;
        bid.completion_estimate = msg.completion_estimate;
        bid.feasible = msg.accept;
      } else {
        const core::BatchedBid& entry = msg.batch_bids[e];
        job_id = entry.job;
        bid.ask = entry.ask;
        bid.completion_estimate = entry.completion_estimate;
        bid.feasible = entry.feasible;
      }
      BidEntryMeta& m = meta[e];
      const auto it = job_facts_.find(job_id);
      m.shape = it != job_facts_.end()
                    ? it->second.shape
                    : sim::fnv1a_mix(sim::kFnvOffsetBasis, job_id);
      m.prune_hop = plen;  // survives every edge unless ranked out below
      if (prune_k_ == 0 || plen == 0) continue;
      const bool inadmissible = it != job_facts_.end()
                                    ? !scorer_.admissible(it->second.qos, bid)
                                    : !bid.feasible;
      if (inadmissible) {
        // The engine drops it before ranking, so no edge needs the
        // quote: tombstone from the very first hop.  It consumes no
        // rank slot — pruning it can never push a rankable bid out.
        m.prune_hop = 0;
      } else if (it != job_facts_.end()) {
        scratch_cands_.push_back(RankCand{job_id,
                                          static_cast<std::uint32_t>(p),
                                          static_cast<std::uint32_t>(e), bid,
                                          scorer_.score(it->second.qos, bid)});
      }
    }
  }

  if (!scratch_cands_.empty()) {
    // Rank walk.  Per (job, edge), count the better-ranked candidates
    // whose payload path crosses the edge; a candidate falls out of the
    // per-edge top-k on the first edge where that count has reached k.
    // Counting ALL better-ranked crossers — including ones already
    // pruned upstream — is exactly the folded per-node top-k:
    // top-k(U top-k(A_i) u B) = top-k(U A_i u B), because an element
    // dropped inside a subtree was outranked by k elements that cross
    // every downstream edge with it.  Counts are therefore monotone
    // along each path (all of a job's bids funnel to one origin), so
    // the first saturated edge prunes the suffix.  Candidates are
    // sorted by job, so one counter per edge slot serves the job being
    // walked; the touched slots are zeroed when the job changes.
    std::sort(scratch_cands_.begin(), scratch_cands_.end(),
              [](const RankCand& a, const RankCand& b) {
                if (a.job != b.job) return a.job < b.job;
                return market::BidScorer::rank_less(a.score, a.bid, b.score,
                                                    b.bid);
              });
    if (slot_rank_count_.size() < scratch_edges_.size()) {
      slot_rank_count_.resize(scratch_edges_.size(), 0);
    }
    const auto reset_counts = [this] {
      for (const std::uint32_t slot : rank_touched_) {
        slot_rank_count_[slot] = 0;
      }
      rank_touched_.clear();
    };
    for (std::size_t i = 0; i < scratch_cands_.size(); ++i) {
      const RankCand& c = scratch_cands_[i];
      if (i > 0 && c.job != scratch_cands_[i - 1].job) reset_counts();
      BidEntryMeta& m = scratch_entry_meta_[c.payload][c.entry];
      const auto hops = route_hops(c.payload);
      for (std::size_t h = 0; h < hops.size(); ++h) {
        std::uint32_t& count = slot_rank_count_[hops[h]];
        if (count == 0) rank_touched_.push_back(hops[h]);
        if (count >= prune_k_ && static_cast<std::uint32_t>(h) < m.prune_hop) {
          m.prune_hop = static_cast<std::uint32_t>(h);
        }
        ++count;
      }
    }
    reset_counts();
  }

  // Tombstone every entry pruned anywhere on its path.  The entry is
  // still DELIVERED — the origin's book marks the bidder answered and
  // completes on the same instant it would unpruned — but the quote
  // fields are zeroed so any consumer ignoring the pruned flag fails
  // loudly (digest tests) instead of silently reading a quote the wire
  // no longer carries.
  for (std::size_t p = 0; p < queue.size(); ++p) {
    core::Message& msg = queue[p];
    const auto& meta = scratch_entry_meta_[p];
    const std::size_t plen = route_hops(p).size();
    if (msg.batch_bids.empty()) {
      if (meta[0].prune_hop < plen) {
        msg.bid_pruned = true;
        msg.price = 0.0;
        msg.completion_estimate = 0.0;
        msg.accept = false;
        ++bids_pruned_;
      }
      continue;
    }
    for (std::size_t e = 0; e < msg.batch_bids.size(); ++e) {
      if (meta[e].prune_hop >= plen) continue;
      core::BatchedBid& entry = msg.batch_bids[e];
      entry.pruned = true;
      entry.ask = 0.0;
      entry.completion_estimate = 0.0;
      entry.feasible = false;
      ++bids_pruned_;
    }
  }
}

void TreeTransport::route(std::span<const RelayItem> items) {
  const std::size_t n = owner_at_.size();
  scratch_edges_.clear();
  scratch_edge_index_.clear();
  route_slots_.clear();
  route_begin_.clear();
  route_begin_.push_back(0);
  for (const RelayItem& item : items) {
    relay_path(pos_of_[item.payload->from], pos_of_[item.target],
               scratch_path_);
    for (std::size_t h = 0; h + 1 < scratch_path_.size(); ++h) {
      const std::uint32_t from = scratch_path_[h];
      const std::uint32_t to = scratch_path_[h + 1];
      const auto [it, inserted] = scratch_edge_index_.emplace(
          static_cast<std::uint64_t>(from) * n + to,
          static_cast<std::uint32_t>(scratch_edges_.size()));
      if (inserted) scratch_edges_.push_back(EdgeUse{from, to});
      route_slots_.push_back(it->second);
    }
    route_begin_.push_back(static_cast<std::uint32_t>(route_slots_.size()));
  }
}

void TreeTransport::relay(std::span<const RelayItem> items,
                          core::MessageType type) {
  if (items.empty()) return;
  GF_EXPECTS(route_begin_.size() == items.size() + 1);
  if (bid_frame_relay_) {
    scratch_edge_frames_.clear();
    for (std::size_t slot = 0; slot < scratch_edges_.size(); ++slot) {
      EdgeFrame frame;
      frame.shape_seed = sim::fnv1a_mix(sim::kFnvOffsetBasis,
                                        static_cast<std::uint64_t>(slot));
      scratch_edge_frames_.push_back(frame);
    }
    scratch_shape_seen_.clear();
  }

  // Pass 1 — edge usage.  A payload crosses each edge of the union of
  // its target paths once, however many targets sit behind it, so byte
  // booking dedups per (payload, edge) via the last_payload marker.
  // On an encoded convergecast (bid_frame_relay_) the per-edge cost is
  // the compact frame instead: tally merged sources and, per hop, each
  // entry as base quote / same-shape delta / tombstone, depending on
  // whether it survives to that hop and whether its shape group already
  // has a base on the edge.
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::uint32_t payload_id = items[i].payload_id;
    const std::uint64_t bytes = core::wire_bytes(*items[i].payload);
    const auto hops = route_hops(i);
    for (std::size_t h = 0; h < hops.size(); ++h) {
      EdgeUse& edge = scratch_edges_[hops[h]];
      // Same payload, same edge (shared subpath of two targets): the
      // payload's bytes cross once.
      const bool first_touch = edge.last_payload != payload_id;
      edge.last_payload = payload_id;
      if (!first_touch) continue;
      if (!bid_frame_relay_) {
        edge.bytes += bytes;
        continue;
      }
      EdgeFrame& frame = scratch_edge_frames_[hops[h]];
      frame.sources += 1;
      // What forwarding this payload whole would have cost the edge:
      // the pre-prune size (tombstones restored to full quotes), so
      // bid_prune_bytes_saved_ measures prune AND encoding together.
      const auto& meta = scratch_entry_meta_[payload_id - 1];
      frame.naive_bytes += core::kMessageHeaderBytes + core::kJobWireBytes +
                           core::kBidWireBytes * meta.size();
      for (const BidEntryMeta& m : meta) {
        if (m.prune_hop <= h) {
          frame.tombstones += 1;
          continue;
        }
        if (scratch_shape_seen_.insert(
                sim::fnv1a_mix(frame.shape_seed, m.shape))) {
          frame.bases += 1;
        } else {
          frame.deltas += 1;
        }
      }
    }
  }

  // Pass 2 — one wire message per directed edge, booked in first-touch
  // order (deterministic), each drawing its own loss verdict.  Lost
  // edge messages are still recorded: a lost send costs its send, as in
  // the point-to-point seed.
  for (std::size_t i = 0; i < scratch_edges_.size(); ++i) {
    EdgeUse& edge = scratch_edges_[i];
    if (bid_frame_relay_) {
      const EdgeFrame& frame = scratch_edge_frames_[i];
      edge.bytes = core::encoded_bid_frame_bytes(frame.sources, frame.bases,
                                                 frame.deltas,
                                                 frame.tombstones);
      // Every component of the frame is <= its naive counterpart (one
      // 64B header amortized over >= one 160B-overhead payload, 16B per
      // further payload, quotes <= 32B), so the difference never
      // underflows.
      prune_bytes_saved_ += frame.naive_bytes - edge.bytes;
    }
    ctx_.ledger().record_relay(owner_at_[edge.from_pos],
                               owner_at_[edge.to_pos], type, edge.bytes);
    edge.alive = !lost(type);  // loss lottery per wire message
    // Ground-truth churn: a crashed endpoint physically fails the edge
    // even before the failure detector confirms it.  Checked after the
    // lottery so the drop-RNG sequence is unchanged when churn is off.
    if (edge.alive && (!ctx_.site_up(owner_at_[edge.from_pos]) ||
                       !ctx_.site_up(owner_at_[edge.to_pos]))) {
      edge.alive = false;
      edge.down = true;
    }
  }
#if GRIDFED_TRACE
  if (obs::Observer* o = ctx_.observer(); o != nullptr) {
    std::uint64_t relay_bytes = 0;
    for (const EdgeUse& edge : scratch_edges_) relay_bytes += edge.bytes;
    o->instant(ctx_.sim().now(), obs::SpanKind::kRelay, o->transport_track(),
               0, scratch_edges_.size(), items.size(),
               static_cast<double>(relay_bytes));
  }
#endif

  // Pass 3 — deliver every payload whose whole path survived, after the
  // summed per-hop control delay (size-aware under the WAN model, like
  // every direct leg: a relayed payload pays its own transmission time
  // on each store-and-forward hop).  A queued kBid has exactly one
  // segment, so it moves into its delivery; a fan-out payload serves
  // several targets and is copied for each.
  const bool move_payloads = type == core::MessageType::kBid;
  const sim::SimTime latency = ctx_.config().network_latency;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const RelayItem& item = items[i];
    const auto hops = route_hops(i);
    const std::uint64_t bytes = wan_ ? core::wire_bytes(*item.payload) : 0;
    bool alive = true;
    bool died_down = false;
    sim::SimTime delay = 0.0;
    for (const std::uint32_t slot : hops) {
      const EdgeUse& edge = scratch_edges_[slot];
      if (!edge.alive) {
        alive = false;
        died_down = edge.down;
        break;
      }
      delay += wan_ ? wan_->control_delay(owner_at_[edge.from_pos],
                                          owner_at_[edge.to_pos], bytes)
                    : latency;
    }
    if (!alive) {
      // A solicitation swallowed by a crashed (not yet confirmed) relay
      // is retained for replay at confirmation — but only when both the
      // origin and the target are themselves still up: there is nobody
      // to serve otherwise.  Lottery losses keep the seed's semantics.
      if (died_down && type == core::MessageType::kCallForBids &&
          ctx_.config().membership.active() && ctx_.site_up(item.target) &&
          ctx_.site_up(item.payload->from)) {
        core::Message copy = *item.payload;
        copy.to = item.target;
        retained_losses_.push_back(
            LostSolicitation{ctx_.sim().now(), std::move(copy)});
      }
      continue;
    }
    core::Message out =
        move_payloads ? std::move(*item.payload) : *item.payload;
    out.to = item.target;
    out.via_overlay = true;
    if (duplicated(out.type)) {
      // The final hop delivered twice: one extra edge message.  Under
      // frame accounting the duplicate is a one-payload frame (every
      // surviving quote is its own base — no cross-payload groups to
      // delta against on a retransmission).
      const cluster::ResourceIndex hop_from =
          hops.empty() ? out.from
                       : owner_at_[scratch_edges_[hops.back()].from_pos];
      if (hop_from != item.target) {
        std::uint64_t dup_bytes = core::wire_bytes(out);
        if (bid_frame_relay_) {
          const auto& meta = scratch_entry_meta_[item.payload_id - 1];
          std::uint64_t live = 0;
          for (const BidEntryMeta& m : meta) {
            if (m.prune_hop >= hops.size()) ++live;
          }
          dup_bytes = core::encoded_bid_frame_bytes(
              1, live, 0, meta.size() - live);
        }
        ctx_.ledger().record_relay(hop_from, item.target, type, dup_bytes);
      }
      schedule_delivery(core::Message(out), delay);
    }
    schedule_delivery(std::move(out), delay);
  }
}

}  // namespace gridfed::transport
