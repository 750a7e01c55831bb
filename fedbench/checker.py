"""Soundness checks and metric derivation for the federation benchmark.

Everything here is a pure function over the records the `fedbench` binary
prints (one JSON object per process), so test_checker.py can drive every
verdict with synthetic records.  A process run is a dict:

    {"seed": int, "traced": bool, "loaded": int | None,
     "record": dict | None, "error": str | None}

`loaded` is the job count the process announced before Federation::run(),
`record` its final JSON line (None when it aborted), `error` why it is
missing.  run.py adds `reference_s` to every untraced record: the time of
the reference kernel, taken in a process of its own right before the run.
"""

import math
import statistics

# The protocol's wire message types, as core::to_string(MessageType) names
# them (gossip is left out: membership churn is off on every workload).
MESSAGE_TYPES = ("negotiate", "reply", "job-submission", "job-completion",
                 "call-for-bids", "bid", "award")

# Record fields that must repeat bit-for-bit on every run of one seed,
# traced or untraced: observation is one-way.
EXACT = ("jobs", "outcomes", "distinct_ids", "digest", "events", "accepted",
         "migrated", "response_p50_s", "response_p999_s", "queue_wait_p50_s",
         "queue_wait_p999_s", "total_messages", "total_bytes", "msgs_by_type",
         "bytes_by_type", "relay_messages", "bids_pruned", "directory_queries",
         "auctions_held", "auctions_awarded", "bids_answered",
         "coalition_local_messages", "coalition_awards")
# The traced run's forensics records allocate, so the allocation count
# repeats across untraced runs only.
EXACT_UNTRACED = ("allocs",)
REQUIRED = EXACT + EXACT_UNTRACED + (
    "mode", "bank_balanced", "gen_s", "ctor_s", "load_s", "run_s", "peak_rss_kb")
REQUIRED_BY_MODE = {"trace": ("probe", "market", "lrms", "directory")}
# The reference kernel's time (fedbench.cpp, reference_s) on the 4-CPU
# development host at its usual speed.  Each run's timings are scaled by
# this over the kernel time taken right before it, so that they read as
# that host's numbers and the host's speed drift cancels out.
REFERENCE_S = 0.070


def record_violations(rec):
    """Soundness violations of one finished process's record."""
    missing = [key for key in REQUIRED + REQUIRED_BY_MODE.get(rec.get("mode"), ())
               if key not in rec]
    if missing:
        return [f"record lacks {', '.join(missing)}"]
    found = []
    if rec["outcomes"] != rec["jobs"]:
        found.append(f"{rec['outcomes']} outcomes for {rec['jobs']} jobs loaded")
    if rec["distinct_ids"] != rec["outcomes"]:
        found.append(f"{rec['outcomes'] - rec['distinct_ids']} duplicate job ids")
    if not rec["bank_balanced"]:
        found.append("GridBank::balanced() is false")
    if sum(rec["msgs_by_type"].values()) != rec["total_messages"]:
        found.append("per-type message counts do not sum to total_messages")
    if sum(rec["bytes_by_type"].values()) != rec["total_bytes"]:
        found.append("per-type byte counts do not sum to total_bytes")
    if rec["mode"] == "trace":
        if rec["market"]["mismatches"]:
            found.append(f"{rec['market']['mismatches']} replayed clearings "
                         "differ from the run's")
        directory = rec["directory"]
        if directory["rank_walk"] and (directory["queries"] !=
                                       rec["directory_queries"]):
            found.append(f"the replayed rank walks made {directory['queries']} "
                         f"directory queries, the run {rec['directory_queries']}")
    return found


def evaluate(runs):
    """Judges every process run.

    Returns (violations, attempted, failed): attempted counts the jobs each
    run loaded; a run that aborted, broke a soundness invariant, or whose
    exact counts differ from the first sound run of its seed fails with
    every job it loaded.
    """
    violations = []
    attempted = failed = 0
    first = {}           # seed -> first sound record
    first_untraced = {}  # seed -> first sound untraced record
    for run in runs:
        label = f"seed {run['seed']} {'traced' if run['traced'] else 'untraced'}"
        loaded = run["loaded"] if run["loaded"] else 1
        attempted += loaded
        rec = run["record"]
        problems = [run["error"] or "no result"] if rec is None else (
            record_violations(rec))
        if not problems:
            ref = first.setdefault(run["seed"], rec)
            problems += [f"{key} differs from the first run of this seed "
                         f"({ref[key]} vs {rec[key]})"
                         for key in EXACT if rec[key] != ref[key]]
            if not run["traced"]:
                ref = first_untraced.setdefault(run["seed"], rec)
                problems += [f"{key} differs between untraced runs "
                             f"({ref[key]} vs {rec[key]})"
                             for key in EXACT_UNTRACED if rec[key] != ref[key]]
        if problems:
            failed += loaded
            violations += [f"{label}: {p}" for p in problems]
    return violations, attempted, failed


def _sound_records(runs, traced):
    """Sound records of the given kind, grouped by seed in run order."""
    groups = {}
    for run in runs:
        rec = run["record"]
        if run["traced"] == traced and rec is not None and not record_violations(rec):
            groups.setdefault(run["seed"], []).append(rec)
    return groups


def _to_reference_speed(rec, scaled=True):
    """The factor that scales a run's host times to the reference host
    speed (1 when not `scaled`)."""
    return REFERENCE_S / rec["reference_s"] if scaled else 1.0


def _jobs_per_s(groups, scaled=True):
    """Simulated jobs per second of run(), over untraced records grouped
    by seed: the jobs over the sum of each seed's median run() time."""
    jobs = sum(recs[0]["jobs"] for recs in groups.values())
    run_s = sum(statistics.median(r["run_s"] * _to_reference_speed(r, scaled)
                                  for r in recs)
                for recs in groups.values())
    return jobs / run_s


def end_to_end(runs):
    """End-to-end metrics over the untraced runs, pooled over seeds.

    The timings are jobs per second of run() and the median set-up over
    every process, with each run's times scaled to the reference host
    speed (REFERENCE_S); the simulated metrics are exact per seed.  Ratios
    pool the seeds' sums; quantiles are the mean of each seed's own
    quantile.
    """
    groups = _sound_records(runs, traced=False)
    if not groups:
        return {}
    seeds = [recs[0] for recs in groups.values()]
    jobs = sum(r["jobs"] for r in seeds)
    rss_kb = statistics.mean(statistics.median(r["peak_rss_kb"] for r in recs)
                             for recs in groups.values())
    return {
        "jobs_per_s": _jobs_per_s(groups),
        "setup_s": statistics.median(
            (r["gen_s"] + r["ctor_s"] + r["load_s"]) * _to_reference_speed(r)
            for recs in groups.values() for r in recs),
        "peak_rss_mb": rss_kb / 1024.0,
        "accept_pct": 100.0 * sum(r["accepted"] for r in seeds) / jobs,
        "response_p50_s": statistics.mean(r["response_p50_s"] for r in seeds),
        "response_p999_s": statistics.mean(r["response_p999_s"] for r in seeds),
        "wire_msgs_per_job": sum(r["total_messages"] for r in seeds) / jobs,
        "wire_bytes_per_job": sum(r["total_bytes"] for r in seeds) / jobs,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(runs):
    """Per-layer metrics of the traced run, against its seed's untraced runs."""
    traced = _sound_records(runs, traced=True)
    if not traced:
        return {}
    seed, (t, *_) = next(iter(traced.items()))
    groups = _sound_records(runs, traced=False)
    untraced = groups.get(seed, [])
    jobs = t["jobs"]
    msgs = t["msgs_by_type"]
    enquiries = msgs["negotiate"] + msgs["award"]
    market, lrms, directory, probe = (t["market"], t["lrms"], t["directory"],
                                      t["probe"])
    metrics = {
        "workload.gen_s": t["gen_s"],
        "workload.jobs": jobs,
        "core.ctor_s": t["ctor_s"],
        "core.load_s": t["load_s"],
        "core.run_s": t["run_s"],
        "core.enquiries_per_job": enquiries / jobs,
        "core.enquiry_yield": _ratio(t["migrated"], enquiries),
        "sim.events_per_job": t["events"] / jobs,
        "sim.events_per_s": t["events"] / t["run_s"],
        "sim.ns_per_event": 1e9 * t["run_s"] / t["events"],
        "sim.dispatch_gap_p50_ns": probe["gap_p50_ns"],
        "sim.dispatch_gap_p999_ns": probe["gap_p999_ns"],
        "sim.pending_mean": probe["pending_mean"],
        "sim.pending_max": probe["pending_max"],
        "market.books_per_job": t["auctions_held"] / jobs,
        "market.bids_per_book": _ratio(t["bids_answered"], t["auctions_held"]),
        "market.fill_rate": _ratio(t["auctions_awarded"], t["auctions_held"]),
        "market.add_ns_per_bid": 1e9 * _ratio(market["add_s"], market["bids"]),
        "market.clear_ns_per_book": 1e9 * _ratio(market["clear_s"],
                                                 market["books"]),
        "market.clear_delay_p50_s": market["clear_delay_p50_s"],
        "cluster.pricing_calls_per_job": (t["bids_answered"] + enquiries) / jobs,
        "cluster.earliest_start_ns": 1e9 * _ratio(lrms["earliest_start_s"],
                                                  lrms["calls"]),
        "cluster.queue_wait_p50_s": t["queue_wait_p50_s"],
        "cluster.queue_wait_p999_s": t["queue_wait_p999_s"],
        "directory.queries_per_job": t["directory_queries"] / jobs,
        "directory.query_ns": 1e9 * _ratio(directory["query_s"],
                                           directory["queries"]),
        "transport.relay_msgs_per_job": t["relay_messages"] / jobs,
        "transport.bid_prune_frac": _ratio(t["bids_pruned"], t["bids_answered"]),
        "coalition.local_msgs_per_job": t["coalition_local_messages"] / jobs,
        "coalition.award_frac": _ratio(t["coalition_awards"], t["accepted"]),
    }
    for kind in MESSAGE_TYPES:
        metrics[f"transport.msgs_per_job.{kind}"] = msgs[kind] / jobs
        metrics[f"transport.bytes_per_job.{kind}"] = t["bytes_by_type"][kind] / jobs
    if groups:
        metrics["core.jobs_per_host_s"] = _jobs_per_s(groups, scaled=False)
        metrics["obs.reference_s"] = statistics.median(
            r["reference_s"] for recs in groups.values() for r in recs)
    if untraced:
        metrics["core.allocs_per_job"] = untraced[0]["allocs"] / jobs
        base = statistics.median(r["run_s"] for r in untraced)
        metrics["obs.traced_overhead_pct"] = 100.0 * (t["run_s"] / base - 1.0)
    return metrics


def metric_violations(spec, values, end_to_end_metrics):
    """Metrics of `spec` that are missing or not a usable number.

    End-to-end metrics must also be positive: a bound is a share of the
    parent's median, which a zero would make meaningless.
    """
    found = []
    for m in spec:
        v = values.get(m["name"])
        if v is None:
            found.append(f"metric {m['name']} is missing")
        elif not isinstance(v, (int, float)) or not math.isfinite(v):
            found.append(f"metric {m['name']} is not a finite number ({v})")
        elif end_to_end_metrics and v <= 0:
            found.append(f"metric {m['name']} is not positive ({v})")
    return found


def compare(spec, base, cand):
    """End-to-end metrics whose candidate median is worse than the base
    median by more than the metric's bound.

    `base` and `cand` are lists of result objects (the benchmark's last
    output line) of one workload.  Returns (name, base median, candidate
    median, worse-by share) per metric out of bound; a metric missing
    from either side counts as out of bound.  A candidate result that is
    not correct, or candidate results that fail more jobs than the base
    results, are out of bound as "correct" and "failed": a gain does not
    count when more fails than at the base.
    """
    out = []
    if not all(r["correct"] for r in cand):
        out.append(("correct", True, False, math.inf))
    base_failed = sum(r["failed"] for r in base)
    cand_failed = sum(r["failed"] for r in cand)
    if cand_failed > base_failed:
        out.append(("failed", base_failed, cand_failed, math.inf))
    for m in spec:
        name = m["name"]
        try:
            b = statistics.median(r["metrics"][name]["value"] for r in base)
            c = statistics.median(r["metrics"][name]["value"] for r in cand)
        except (KeyError, statistics.StatisticsError):
            out.append((name, None, None, math.inf))
            continue
        loss = b - c if m["better"] == "higher" else c - b
        if b:
            worse = loss / abs(b)
        else:
            worse = math.inf if loss > 0 else 0.0
        if worse > m["bound"]:
            out.append((name, b, c, worse))
    return out
