// One full two-day federation run per process, for the repository
// benchmark.  fedbench/run.py builds and drives this binary; see
// fedbench/README.md for the workloads and the metrics derived from it.
//
//   fedbench run   <workload> <seed>
//       Untraced.  Sets the federation up (timing each step), runs it,
//       and reports its outcomes and exact counts.
//   fedbench trace <workload> <seed>
//       Traced.  One run with auction forensics on and a dispatch probe
//       installed through the public Simulation API, followed by replays
//       of the run's market, LRMS and directory calls, each timed here.
//   fedbench reference
//       Times the reference kernel, which calls no simulator code.
//   fedbench default-seed
//       Prints FederationConfig{}.seed, the benchmark's default seed.
//
// The first three print one JSON object as the last line of stdout.  The simulator
// is driven only through its public API: nothing under src/ is
// instrumented, and the program receives only the generated traces.

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <queue>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include <sys/resource.h>

#include "cluster/availability_profile.hpp"
#include "cluster/catalog.hpp"
#include "core/experiment.hpp"
#include "core/federation.hpp"
#include "directory/federation_directory.hpp"
#include "market/auction_engine.hpp"
#include "obs/observer.hpp"
#include "sim/hash.hpp"
#include "workload/synthetic.hpp"

// ---- counting allocator -----------------------------------------------------
// Every operator new of this process goes through here, so the count
// taken around Federation::run() is the run's allocations.  The benchmark
// runs the sequential engine only, so a plain counter suffices.

namespace {
std::uint64_t g_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  ++g_allocs;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t size = n == 0 ? a : (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace gridfed;
using Clock = std::chrono::steady_clock;

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// ---- workloads --------------------------------------------------------------

/// Every workload runs the paper's OFC/OFT 70/30 population.
constexpr std::uint32_t kOftPercent = 30;

struct Workload {
  std::size_t clusters = 0;
  core::FederationConfig cfg;
};

/// Auction with batched solicitation at the bench sweeps' 300 s window.
core::FederationConfig batched_auction(std::uint64_t seed) {
  auto cfg = core::make_config(core::SchedulingMode::kAuction, seed);
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 300.0;
  return cfg;
}

std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed) {
  if (name == "auction-direct") {
    // The configuration of bench::parallel_kernel_config on the
    // sequential engine: direct transport and a sqrt(2) s latency.
    Workload w{100, batched_auction(seed)};
    w.cfg.network_latency = 1.4142135623730951;
    return w;
  }
  if (name == "dbc-economy") {
    // 100 clusters, not 200: a 200-cluster run takes ~3.3 s, too few fit
    // in one measuring window to ride out this host's speed swings, while
    // 100 clusters keep the FEL in the ladder regime and the rank walk
    // at ~21 directory queries per job.
    return Workload{100,
                    core::make_config(core::SchedulingMode::kEconomy, seed)};
  }
  if (name == "tree-coalition") {
    // The fig10 coalition column: tree transport (default fan-out, epoch,
    // pruning and delta encoding) with ring-bucket coalitions of four.
    Workload w{50, batched_auction(seed)};
    w.cfg.transport.kind = transport::TransportKind::kTree;
    w.cfg.coalitions.enabled = true;
    w.cfg.coalitions.bucket_size = 4;
    return w;
  }
  return std::nullopt;
}

// ---- set-up -----------------------------------------------------------------

struct SetUp {
  std::unique_ptr<core::Federation> fed;
  std::uint64_t jobs = 0;
  double gen_s = 0.0;
  double ctor_s = 0.0;
  double load_s = 0.0;
};

SetUp set_up(const Workload& w) {
  const auto specs = cluster::replicated_specs(w.clusters);
  SetUp s;
  const auto t0 = Clock::now();
  const auto traces = workload::generate_federation_workload(
      specs, w.cfg.window, w.cfg.seed);
  const auto t1 = Clock::now();
  s.fed = std::make_unique<core::Federation>(w.cfg, specs);
  const auto t2 = Clock::now();
  s.fed->load_workload(traces, workload::PopulationProfile{kOftPercent});
  const auto t3 = Clock::now();
  s.gen_s = seconds(t1 - t0);
  s.ctor_s = seconds(t2 - t1);
  s.load_s = seconds(t3 - t2);
  for (const auto& trace : traces) s.jobs += trace.jobs.size();
  // Announced before run() so that an aborted run can still be charged
  // with every job it loaded.
  std::printf("loaded %llu\n", static_cast<unsigned long long>(s.jobs));
  std::fflush(stdout);
  return s;
}

// ---- output -----------------------------------------------------------------

/// Appends `"key":value` pairs to one JSON object.  Doubles keep all 17
/// significant digits; a non-finite double is written as null.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double v) {
    char buf[40];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return raw(key, buf);
  }
  JsonObject& count(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& flag(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(std::string_view key, std::string_view v) {
    std::string quoted(1, '"');
    quoted += v;
    quoted += '"';
    return raw(key, quoted);
  }
  JsonObject& raw(std::string_view key, std::string_view json) {
    out_ += out_.empty() ? "{" : ",";
    out_ += '"';
    out_ += key;
    out_ += "\":";
    out_ += json;
    return *this;
  }
  [[nodiscard]] std::string done() const {
    return out_.empty() ? "{}" : out_ + "}";
  }

 private:
  std::string out_;
};

// ---- outcome statistics -----------------------------------------------------

/// Nearest-rank quantile of an ascending sample (0 when empty).
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = sorted.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return sorted[rank - 1];
}

/// The per-job outcome digest of bench::parallel_kernel_run: the tuple
/// (id, accepted, executor, messages, cost bits, completion bits), each
/// widened to 8 bytes and folded in id order from the FNV offset basis.
std::uint64_t outcome_digest(const std::vector<core::JobOutcome>& outcomes) {
  std::vector<const core::JobOutcome*> rows;
  rows.reserve(outcomes.size());
  for (const core::JobOutcome& o : outcomes) rows.push_back(&o);
  std::sort(rows.begin(), rows.end(),
            [](const core::JobOutcome* a, const core::JobOutcome* b) {
              return a->job.id < b->job.id;
            });
  std::uint64_t h = sim::kFnvOffsetBasis;
  for (const core::JobOutcome* o : rows) {
    h = sim::fnv1a_mix(h, static_cast<std::uint64_t>(o->job.id));
    h = sim::fnv1a_mix(h, static_cast<std::uint64_t>(o->accepted ? 1 : 0));
    h = sim::fnv1a_mix(h, static_cast<std::uint64_t>(o->executed_on));
    h = sim::fnv1a_mix(h, static_cast<std::uint64_t>(o->messages));
    h = sim::fnv1a_mix(h, o->cost);
    h = sim::fnv1a_mix(h, o->completion);
  }
  return h;
}

/// This process's peak resident set so far, in KiB.
std::uint64_t peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

/// What one finished run reports in both modes: the soundness facts the
/// checker judges, the simulated outcomes, and the exact counts.
JsonObject run_report(const char* mode, std::string_view workload,
                      std::uint64_t seed, const SetUp& s,
                      const core::FederationResult& r, double run_s,
                      std::uint64_t allocs) {
  core::Federation& fed = *s.fed;
  const auto& outcomes = fed.outcomes();

  std::vector<std::uint64_t> ids;
  ids.reserve(outcomes.size());
  std::vector<double> response;
  std::vector<double> queue_wait;
  std::uint64_t migrated = 0;
  for (const core::JobOutcome& o : outcomes) {
    ids.push_back(o.job.id);
    if (!o.accepted) continue;
    response.push_back(o.response_time());
    queue_wait.push_back(o.start - o.job.submit);
    if (o.migrated()) ++migrated;
  }
  std::sort(ids.begin(), ids.end());
  const auto distinct_ids = static_cast<std::uint64_t>(
      std::unique(ids.begin(), ids.end()) - ids.begin());
  std::sort(response.begin(), response.end());
  std::sort(queue_wait.begin(), queue_wait.end());

  JsonObject msgs;
  JsonObject bytes;
  for (std::size_t t = 0; t < core::kMessageTypeCount; ++t) {
    const char* name = core::to_string(static_cast<core::MessageType>(t));
    msgs.count(name, r.messages_by_type[t]);
    bytes.count(name, r.bytes_by_type[t]);
  }

  char digest[19];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(outcome_digest(outcomes)));

  JsonObject out;
  out.str("mode", mode)
      .str("workload", workload)
      .count("seed", seed)
      .count("jobs", s.jobs)
      .count("outcomes", outcomes.size())
      .count("distinct_ids", distinct_ids)
      .flag("bank_balanced", fed.bank().balanced())
      .str("digest", digest)
      .num("gen_s", s.gen_s)
      .num("ctor_s", s.ctor_s)
      .num("load_s", s.load_s)
      .num("run_s", run_s)
      .count("allocs", allocs)
      .count("events", fed.events_executed())
      .count("accepted", r.total_accepted)
      .count("migrated", migrated)
      .num("response_p50_s", quantile(response, 0.5))
      .num("response_p999_s", quantile(response, 0.999))
      .num("queue_wait_p50_s", quantile(queue_wait, 0.5))
      .num("queue_wait_p999_s", quantile(queue_wait, 0.999))
      .count("total_messages", r.total_messages)
      .count("total_bytes", r.total_message_bytes)
      .raw("msgs_by_type", msgs.done())
      .raw("bytes_by_type", bytes.done())
      .count("relay_messages", r.overlay_relay_messages)
      .count("bids_pruned", r.bids_pruned)
      .count("directory_queries", r.directory_traffic.queries)
      .count("auctions_held", r.auctions.held)
      .count("auctions_awarded", r.auctions.awarded)
      .count("bids_answered",
             static_cast<std::uint64_t>(
                 std::llround(r.auctions.bids_per_auction.sum())))
      .count("coalition_local_messages", r.coalition_local_messages)
      .count("coalition_awards", r.coalition_awards)
      .count("peak_rss_kb", peak_rss_kb());
  return out;
}

// ---- reference kernel -------------------------------------------------------

/// Times a fixed workload that calls no simulator code: building a binary
/// heap and an ordered map of 128k random keys each, about 7 MB of small
/// allocations and cache-missing inserts, the kind of work the simulator's
/// set-up and event list do.  The host's speed at this kind of work
/// drifts from second to second and over minutes; run.py times this in a
/// process of its own right before each untraced run, and checker.py
/// scales the run's timings by it.  Apart, neither process can change the
/// other.
double reference_s() {
  constexpr int kKeys = 1 << 17;
  std::mt19937_64 rng(1);
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  std::map<std::uint64_t, int> index;
  const auto t0 = Clock::now();
  for (int i = 0; i < kKeys; ++i) {
    heap.push(rng());
    index.emplace(rng(), i);
  }
  const double s = seconds(Clock::now() - t0);
  // Reads both containers, so that neither can be optimised away.
  if (heap.top() == index.begin()->first) {
    std::fputs("reference kernel: key clash\n", stderr);
  }
  return s;
}

// ---- untraced run -----------------------------------------------------------

int run_untraced(std::string_view name, const Workload& w) {
  SetUp s = set_up(w);
  const std::uint64_t allocs0 = g_allocs;
  const auto t0 = Clock::now();
  const core::FederationResult result = s.fed->run();
  const double run_s = seconds(Clock::now() - t0);
  const std::uint64_t allocs = g_allocs - allocs0;

  const JsonObject out =
      run_report("run", name, w.cfg.seed, s, result, run_s, allocs);
  std::printf("%s\n", out.done().c_str());
  return 0;
}

// ---- traced run -------------------------------------------------------------

/// Log-linear histogram of host nanoseconds: exact below 1024 ns, then 64
/// sub-buckets per power of two (at most 1.6% low).  Its storage is fixed
/// before the run, so the dispatch probe allocates nothing.
class NsHistogram {
 public:
  void add(std::uint64_t ns) {
    ++counts_[bucket(ns)];
    ++n_;
  }
  /// Nearest-rank quantile, as the lower edge of its bucket.
  [[nodiscard]] std::uint64_t quantile(double q) const {
    if (n_ == 0) return 0;
    auto rank =
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_)));
    rank = std::clamp<std::uint64_t>(rank, 1, n_);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      seen += counts_[b];
      if (seen >= rank) return lower_edge(b);
    }
    return lower_edge(counts_.size() - 1);
  }

 private:
  static constexpr std::size_t kLinear = 1024;  // 2^10
  static constexpr int kSubBits = 6;
  static std::size_t bucket(std::uint64_t v) {
    if (v < kLinear) return v;
    const int e = std::bit_width(v) - 1;  // >= 10
    return kLinear + static_cast<std::size_t>(e - 10) * (1u << kSubBits) +
           ((v >> (e - kSubBits)) & ((1u << kSubBits) - 1));
  }
  static std::uint64_t lower_edge(std::size_t b) {
    if (b < kLinear) return b;
    b -= kLinear;
    const int e = static_cast<int>(b >> kSubBits) + 10;
    const std::uint64_t sub = b & ((1u << kSubBits) - 1);
    return (1ull << e) + (sub << (e - kSubBits));
  }
  std::array<std::uint64_t, kLinear + 54 * (1u << kSubBits)> counts_{};
  std::uint64_t n_ = 0;
};

/// The benchmark's dispatch probe: on every dispatch it reads the steady
/// clock (the gap since the previous dispatch) and the pending-event count.
struct DispatchProbe {
  explicit DispatchProbe(const sim::Simulation& sim) : sim(&sim) {}

  static void on_dispatch(void* ctx, sim::SimTime /*t*/) {
    auto& p = *static_cast<DispatchProbe*>(ctx);
    const auto now = Clock::now();
    if (p.dispatches > 0) {
      p.gaps.add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - p.last)
              .count()));
    }
    p.last = now;
    ++p.dispatches;
    const std::uint64_t pending = p.sim->pending_events();
    p.pending_sum += pending;
    p.pending_max = std::max(p.pending_max, pending);
  }

  const sim::Simulation* sim;
  Clock::time_point last{};
  std::uint64_t dispatches = 0;
  std::uint64_t pending_sum = 0;
  std::uint64_t pending_max = 0;
  NsHistogram gaps;
};

/// Replays every forensics ClearingDecision through AuctionBook::reopen /
/// add and AuctionEngine::clear, timing the adds and the clear per book.
/// A replayed winner or payment that differs from the recorded one is a
/// mismatch: the replay then did not re-execute what the run did.
JsonObject replay_market(core::Federation& fed,
                         const std::vector<const cluster::Job*>& job_by_id) {
  const core::FederationConfig& cfg = fed.config();
  const obs::ForensicsLedger* ledger =
      fed.observer() != nullptr ? fed.observer()->forensics() : nullptr;
  const market::AuctionEngine engine(
      cfg.auction.clearing, cfg.auction.scoring, cfg.auction.score_time_weight,
      cfg.enforce_budget, cfg.enforce_deadline);
  market::AuctionBook book;
  std::vector<federation::ParticipantId> solicited;
  std::vector<double> clear_delay;
  std::uint64_t books = 0;
  std::uint64_t bids = 0;
  std::uint64_t mismatches = 0;
  Clock::duration add_time{};
  Clock::duration clear_time{};
  if (ledger != nullptr) {
    for (const obs::ClearingDecision& d : ledger->decisions()) {
      if (d.job >= job_by_id.size() || job_by_id[d.job] == nullptr) {
        ++mismatches;
        continue;
      }
      const cluster::Job& job = *job_by_id[d.job];
      solicited.clear();
      for (const std::uint32_t v : d.solicited) {
        federation::ParticipantId pid;
        pid.value = v;
        solicited.push_back(pid);
      }
      book.reopen(job.id, solicited);
      const auto t0 = Clock::now();
      for (const obs::ScoredBid& b : d.bids) {
        market::Bid bid;
        bid.bidder.value = b.bidder;
        bid.ask = b.ask;
        bid.completion_estimate = b.completion_estimate;
        bid.feasible = b.feasible;
        book.add(bid);
      }
      const auto t1 = Clock::now();
      const std::vector<market::Award> awards = engine.clear(job, book.bids());
      const auto t2 = Clock::now();
      add_time += t1 - t0;
      clear_time += t2 - t1;
      ++books;
      bids += d.bids.size();
      clear_delay.push_back(d.t - job.submit);
      const bool same =
          awards.empty() ? !d.awarded
                         : d.awarded && awards.front().bid.bidder.value ==
                                            d.winner &&
                               awards.front().payment == d.payment;
      if (!same) ++mismatches;
    }
  }
  std::sort(clear_delay.begin(), clear_delay.end());
  JsonObject out;
  out.count("books", books)
      .count("bids", bids)
      .count("mismatches", mismatches)
      .num("add_s", seconds(add_time))
      .num("clear_s", seconds(clear_time))
      .num("clear_delay_p50_s", quantile(clear_delay, 0.5));
  return out;
}

/// Replays each cluster's accepted reservations in submission order
/// through AvailabilityProfile::trim / earliest_start / reserve (FCFS, as
/// the LRMS admits), timing earliest_start.
JsonObject replay_lrms(core::Federation& fed) {
  struct Entry {
    double submit;
    cluster::JobId id;
    std::uint32_t procs;
    double duration;
  };
  std::vector<std::vector<Entry>> by_cluster(fed.size());
  for (const core::JobOutcome& o : fed.outcomes()) {
    if (!o.accepted || o.executed_on >= by_cluster.size()) continue;
    by_cluster[o.executed_on].push_back(
        {o.job.submit, o.job.id, o.job.processors, o.completion - o.start});
  }
  std::uint64_t calls = 0;
  Clock::duration time{};
  for (std::size_t c = 0; c < by_cluster.size(); ++c) {
    auto& entries = by_cluster[c];
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                return a.submit != b.submit ? a.submit < b.submit : a.id < b.id;
              });
    cluster::AvailabilityProfile profile(
        fed.spec_of(static_cast<cluster::ResourceIndex>(c)).processors);
    double last_start = 0.0;
    for (const Entry& e : entries) {
      profile.trim(e.submit);
      const double not_before = std::max(e.submit, last_start);
      const auto t0 = Clock::now();
      const double start = profile.earliest_start(not_before, e.procs,
                                                  e.duration);
      time += Clock::now() - t0;
      ++calls;
      profile.reserve(start, start + e.duration, e.procs);
      last_start = start;
    }
  }
  JsonObject out;
  out.count("calls", calls).num("earliest_start_s", seconds(time));
  return out;
}

/// Replays the run's directory queries on a directory rebuilt from the
/// run's quotes: the DBC rank walk of every job (rank by rank until the
/// executing cluster, or past the last rank for a rejected job) in
/// economy mode, one query_top_k per cleared book in auction mode.  The
/// rank walks are all of an economy run's queries, so there the replayed
/// count must equal the run's; an auction run also walks ranks in its
/// DBC fallback, which the replay leaves out.
JsonObject replay_directory(core::Federation& fed,
                            const std::vector<const cluster::Job*>& job_by_id) {
  directory::FederationDirectory dir;
  for (std::size_t i = 0; i < fed.size(); ++i) {
    if (auto q = fed.directory().peek(static_cast<cluster::ResourceIndex>(i))) {
      dir.subscribe(*q);
    }
  }
  Clock::duration time{};
  const core::FederationConfig& cfg = fed.config();
  const bool rank_walk = cfg.mode == core::SchedulingMode::kEconomy;
  if (rank_walk) {
    for (const core::JobOutcome& o : fed.outcomes()) {
      const auto order = directory::order_for(o.job.opt);
      const auto t0 = Clock::now();
      for (std::uint32_t r = 1;; ++r) {
        const auto q = dir.query(order, r);
        if (!q || (o.accepted && q->resource == o.executed_on)) break;
      }
      time += Clock::now() - t0;
    }
  } else if (fed.observer() != nullptr &&
             fed.observer()->forensics() != nullptr) {
    std::vector<directory::Quote> quotes;
    for (const obs::ClearingDecision& d :
         fed.observer()->forensics()->decisions()) {
      if (d.job >= job_by_id.size() || job_by_id[d.job] == nullptr) continue;
      directory::QueryFilter filter;
      filter.min_processors = job_by_id[d.job]->processors;
      filter.exclude = job_by_id[d.job]->origin;
      const auto t0 = Clock::now();
      dir.query_top_k(directory::OrderBy::kCheapest, cfg.auction.max_bidders,
                      filter, quotes);
      time += Clock::now() - t0;
    }
  }
  JsonObject out;
  out.flag("rank_walk", rank_walk)
      .count("queries", dir.traffic().queries)
      .num("query_s", seconds(time));
  return out;
}

int run_traced(std::string_view name, Workload w) {
  // Forensics on; metrics off, because run() installs its own dispatch
  // probe when metrics are on, which would replace this one.
  w.cfg.obs.forensics = true;
  w.cfg.obs.metrics = false;
  SetUp s = set_up(w);
  DispatchProbe probe(s.fed->simulation());
  s.fed->simulation().set_dispatch_probe(&DispatchProbe::on_dispatch, &probe);
  const std::uint64_t allocs0 = g_allocs;
  const auto t0 = Clock::now();
  const core::FederationResult result = s.fed->run();
  const double run_s = seconds(Clock::now() - t0);
  const std::uint64_t allocs = g_allocs - allocs0;
  s.fed->simulation().set_dispatch_probe(nullptr, nullptr);

  std::vector<const cluster::Job*> job_by_id;
  for (const core::JobOutcome& o : s.fed->outcomes()) {
    if (o.job.id >= job_by_id.size()) job_by_id.resize(o.job.id + 1);
    job_by_id[o.job.id] = &o.job;
  }

  JsonObject probe_out;
  probe_out.count("dispatches", probe.dispatches)
      .count("gap_p50_ns", probe.gaps.quantile(0.5))
      .count("gap_p999_ns", probe.gaps.quantile(0.999))
      .num("pending_mean",
           probe.dispatches == 0
               ? 0.0
               : static_cast<double>(probe.pending_sum) /
                     static_cast<double>(probe.dispatches))
      .count("pending_max", probe.pending_max);

  JsonObject out =
      run_report("trace", name, w.cfg.seed, s, result, run_s, allocs);
  out.raw("probe", probe_out.done())
      .raw("market", replay_market(*s.fed, job_by_id).done())
      .raw("lrms", replay_lrms(*s.fed).done())
      .raw("directory", replay_directory(*s.fed, job_by_id).done());
  std::printf("%s\n", out.done().c_str());
  return 0;
}

template <typename T>
bool parse_uint(std::string_view text, T& value) {
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  return ec == std::errc() && end == text.data() + text.size();
}

int usage() {
  std::fprintf(stderr,
               "usage: fedbench run <workload> <seed>\n"
               "       fedbench trace <workload> <seed>\n"
               "       fedbench reference\n"
               "       fedbench default-seed\n"
               "workloads: auction-direct, dbc-economy, tree-coalition\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string_view(argv[1]) == "reference") {
    JsonObject out;
    out.num("reference_s", reference_s());
    std::printf("%s\n", out.done().c_str());
    return 0;
  }
  if (argc == 2 && std::string_view(argv[1]) == "default-seed") {
    std::printf("%llu\n",
                static_cast<unsigned long long>(core::FederationConfig{}.seed));
    return 0;
  }
  if (argc != 4) return usage();
  const std::string_view cmd = argv[1];
  const std::string_view name = argv[2];
  std::uint64_t seed = 0;
  if (!parse_uint(argv[3], seed)) return usage();
  const std::optional<Workload> w = make_workload(name, seed);
  if (!w) return usage();
  try {
    if (cmd == "run") return run_untraced(name, *w);
    if (cmd == "trace") return run_traced(name, *w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fedbench: %s\n", e.what());
    return 3;
  }
  return usage();
}
