#!/usr/bin/env python3
"""CI gate for the message-scaling trajectory.

Compares a freshly measured fig10 JSON (bench_fig10_msg_per_job_scaling
--json=...) against the checked-in BENCH_messages.json and fails when
messages/job OR bytes/job regressed by more than the tolerance on any
point present in both files — on the batched direct transport, the tree
transport (the PR 4 headline), AND the coalition mode riding the tree
(the PR 5 group-addressed dissemination).  The bytes/job columns gate
the wire-size model end-to-end: a payload-bloating change that keeps
message counts flat still fails here.  Points are matched by federation
size, so the CI smoke run may measure only the 50-cluster point.  A
metric missing from the baseline (an older BENCH_messages.json) is
skipped, so adding a mode never breaks existing baselines; a measured
file that shares no (size, metric) point with the baseline fails, so
the gate cannot pass vacuously.

Usage: check_messages.py MEASURED.json CHECKED_IN.json [tolerance_pct]
       check_messages.py --self-test
"""

import contextlib
import copy
import io
import json
import sys


def points(doc):
    # BENCH_messages.json nests fig10 under "fig10"; a bare fig10 dump
    # is the artifact itself.
    fig10 = doc.get("fig10", doc)
    batching = fig10.get("auction_batching", {})
    return {p["size"]: p for p in batching.get("points", [])}


METRICS = ("batched_msgs_per_job", "tree_wire_msgs_per_job",
           "coalition_wire_msgs_per_job",
           # bytes/job per transport column (wire-size model)
           "batched_bytes_per_job", "tree_bytes_per_job",
           "coalition_bytes_per_job",
           # kBid bytes/job on the tree (the convergecast prune + delta
           # encoding headline — a regression here means the compact
           # frame accounting degraded even if totals still pass)
           "tree_bid_bytes_per_job")

TREE_OVER_BATCHED = "tree_bytes_per_job>batched_bytes_per_job"
NO_COMPARABLE_POINT = "no comparable (size, metric) point"


def regression_failures(measured, baseline, tolerance):
    """Every (size, metric) of `measured` against `baseline`.

    Returns (failures, compared): the failing "size N metric" gates and
    the number of pairs compared.
    """
    failures = []
    compared = 0
    for size, point in sorted(measured.items()):
        base = baseline.get(size)
        if base is None:
            continue
        for metric in METRICS:
            if metric not in point or metric not in base:
                continue
            compared += 1
            limit = base[metric] * (1.0 + tolerance / 100.0)
            ok = point[metric] <= limit
            print(f"size {size:>3} {metric:<28} measured {point[metric]:8.3f}"
                  f"  baseline {base[metric]:8.3f}  (+{tolerance:.0f}% limit"
                  f" {limit:8.3f})  {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"size {size} {metric}")
    return failures, compared


# Hard invariant checked within the MEASURED file alone (no baseline
# needed): the pruned + delta-encoded convergecast must keep the tree's
# total bytes/job at or below the batched direct transport's at EVERY
# federation size — the whole point of the overlay is paying fewer
# bytes, not just fewer messages.  The same tolerance bounds measurement
# wiggle.


def invariant_failures(measured, tolerance):
    failures = []
    for size, point in sorted(measured.items()):
        if "tree_bytes_per_job" not in point or \
           "batched_bytes_per_job" not in point:
            continue
        limit = point["batched_bytes_per_job"] * (1.0 + tolerance / 100.0)
        ok = point["tree_bytes_per_job"] <= limit
        print(f"size {size:>3} tree_bytes_per_job "
              f"{point['tree_bytes_per_job']:10.1f} <= batched_bytes_per_job "
              f"{point['batched_bytes_per_job']:10.1f} (+{tolerance:.0f}%)  "
              f"{'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"size {size} {TREE_OVER_BATCHED}")
    return failures


def failed_gates(measured_doc, baseline_doc, tolerance):
    """Names of every gate the measured artifact fails (empty = pass)."""
    measured = points(measured_doc)
    failures, compared = regression_failures(
        measured, points(baseline_doc), tolerance)
    if compared == 0:
        failures.append(NO_COMPARABLE_POINT)
    return failures + invariant_failures(measured, tolerance)


def self_test():
    """A clean artifact must pass; each kind of regression must fail and
    be named in the failures."""
    point = {"size": 50,
             "batched_msgs_per_job": 10.0, "tree_wire_msgs_per_job": 6.0,
             "coalition_wire_msgs_per_job": 4.0,
             "batched_bytes_per_job": 12000.0, "tree_bytes_per_job": 11000.0,
             "coalition_bytes_per_job": 9000.0,
             "tree_bid_bytes_per_job": 3000.0}
    baseline = {"fig10": {"auction_batching": {"points": [point]}}}

    def artifact(**changes):
        measured = {"auction_batching": {"points": [copy.deepcopy(point)]}}
        measured["auction_batching"]["points"][0].update(changes)
        return measured

    def quiet_gates(measured, base):
        with contextlib.redirect_stdout(io.StringIO()):
            return failed_gates(measured, base, 5.0)

    ok = True
    if quiet_gates(artifact(), baseline):
        print("self-test: a clean artifact failed")
        ok = False
    cases = [(artifact(**{m: point[m] * 1.06}), baseline, f"size 50 {m}")
             for m in METRICS]
    over = point["batched_bytes_per_job"] * 1.06
    cases.append((artifact(tree_bytes_per_job=over),
                  {"fig10": {"auction_batching": {"points": [
                      dict(point, tree_bytes_per_job=over)]}}},
                  f"size 50 {TREE_OVER_BATCHED}"))
    cases.append((artifact(size=7), baseline, NO_COMPARABLE_POINT))
    for measured, base, gate in cases:
        failures = quiet_gates(measured, base)
        if gate not in failures:
            print(f"self-test: '{gate}' was not caught (failures: {failures})")
            ok = False
    print("self-test", "passed" if ok else "FAILED")
    return ok


def main():
    if sys.argv[1:] == ["--self-test"]:
        return 0 if self_test() else 1
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    measured_doc = json.load(open(sys.argv[1]))
    baseline_doc = json.load(open(sys.argv[2]))
    tolerance = float(sys.argv[3]) if len(sys.argv) > 3 else 5.0
    failures = failed_gates(measured_doc, baseline_doc, tolerance)
    if failures:
        sys.exit(f"error: {len(failures)} gate(s) failed at {tolerance}% "
                 f"tolerance: {'; '.join(failures)}")
    print(f"message scaling OK (every gate within {tolerance}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
