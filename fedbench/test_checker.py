"""Self-test of the benchmark's checker on synthetic results.

A clean result must pass; a lost job, a traced/untraced digest mismatch,
an exact count that drifts between runs, an aborted run, a replay that
differs from the run, a missing metric and an out-of-bound metric must
each fail, and so must a candidate that fails more jobs than its base.
A host that runs the program and the reference kernel equally slower
must leave the scaled timings unchanged.  run.py runs this before every
measurement, so a checker that can no longer fail stops the benchmark.

    python3 fedbench/run.py --self-test
"""

import copy
import json
import unittest
from pathlib import Path

import checker

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())


def record(mode="run", **fields):
    rec = {
        "mode": mode, "workload": "synthetic", "seed": 1, "jobs": 100,
        "outcomes": 100, "distinct_ids": 100, "bank_balanced": True,
        "digest": "00000000000000aa", "gen_s": 0.01, "ctor_s": 0.001,
        "load_s": 0.002, "run_s": 1.0, "allocs": 5000, "events": 10000,
        "accepted": 99, "migrated": 90, "response_p50_s": 100.0,
        "response_p999_s": 1000.0, "queue_wait_p50_s": 10.0,
        "queue_wait_p999_s": 100.0, "total_messages": 700,
        "total_bytes": 70000,
        "msgs_by_type": {**{t: 100 for t in checker.MESSAGE_TYPES}, "gossip": 0},
        "bytes_by_type": {**{t: 10000 for t in checker.MESSAGE_TYPES},
                          "gossip": 0},
        "relay_messages": 0, "bids_pruned": 0, "directory_queries": 100,
        "auctions_held": 100, "auctions_awarded": 100, "bids_answered": 1000,
        "coalition_local_messages": 0, "coalition_awards": 0,
        "peak_rss_kb": 20480,
    }
    if mode == "run":
        rec["reference_s"] = checker.REFERENCE_S
    else:
        rec["probe"] = {"dispatches": 10000, "gap_p50_ns": 500,
                        "gap_p999_ns": 40000, "pending_mean": 1000.0,
                        "pending_max": 2000}
        rec["market"] = {"books": 100, "bids": 1000, "mismatches": 0,
                         "add_s": 1e-4, "clear_s": 4e-4,
                         "clear_delay_p50_s": 300.0}
        rec["lrms"] = {"calls": 99, "earliest_start_s": 5e-5}
        rec["directory"] = {"rank_walk": True, "queries": 100,
                            "query_s": 3e-6}
    rec.update(fields)
    return rec


def run(rec, seed=1, traced=False):
    return {"seed": seed, "traced": traced, "loaded": rec["jobs"],
            "record": rec, "error": None}


def clean_runs():
    return [run(record()), run(record(seed=2), seed=2),
            run(record(run_s=1.1)), run(record(seed=2, run_s=0.9), seed=2),
            run(record("trace", run_s=1.05), traced=True)]


def result(correct=True, failed=0, **values):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {m["name"]: {"value": values.get(m["name"], 1.0),
                                    "unit": m["unit"]}
                        for m in SPEC["end_to_end"]}}


class CheckerSelfTest(unittest.TestCase):
    def assert_fails(self, runs, failed_jobs):
        violations, attempted, failed = checker.evaluate(runs)
        self.assertTrue(violations)
        self.assertEqual(failed, failed_jobs)
        self.assertEqual(attempted, 500)

    def test_clean_result_passes(self):
        runs = clean_runs()
        self.assertEqual(checker.evaluate(runs), ([], 500, 0))
        e2e = checker.end_to_end(runs)
        self.assertEqual(
            checker.metric_violations(SPEC["end_to_end"], e2e, True), [])
        self.assertAlmostEqual(e2e["jobs_per_s"], 200 / 2.0)
        layers = checker.per_layer(runs)
        self.assertEqual(
            checker.metric_violations(SPEC["per_layer"], layers, False), [])
        self.assertAlmostEqual(layers["obs.traced_overhead_pct"], 0.0)

    def test_timings_are_scaled_to_the_reference_host_speed(self):
        e2e = checker.end_to_end(clean_runs())
        slow = clean_runs()
        for r in slow[:-1]:
            rec = r["record"]
            for key in ("gen_s", "ctor_s", "load_s", "run_s", "reference_s"):
                rec[key] *= 1.5
        slow_e2e = checker.end_to_end(slow)
        for name in ("jobs_per_s", "setup_s"):
            self.assertAlmostEqual(slow_e2e[name], e2e[name])
        layers = checker.per_layer(slow)
        self.assertAlmostEqual(layers["core.jobs_per_host_s"],
                               e2e["jobs_per_s"] / 1.5)
        self.assertAlmostEqual(layers["obs.reference_s"],
                               1.5 * checker.REFERENCE_S)

    def test_lost_job_fails(self):
        runs = clean_runs()
        runs[2]["record"]["outcomes"] = 99
        runs[2]["record"]["distinct_ids"] = 99
        self.assert_fails(runs, 100)

    def test_traced_digest_mismatch_fails(self):
        runs = clean_runs()
        runs[-1]["record"]["digest"] = "00000000000000ab"
        self.assert_fails(runs, 100)

    def test_exact_count_drift_fails(self):
        runs = clean_runs()
        runs[3]["record"]["allocs"] += 1
        self.assert_fails(runs, 100)

    def test_aborted_run_fails_every_loaded_job(self):
        runs = clean_runs()
        runs[1].update(record=None, error="exited -6")
        self.assert_fails(runs, 100)

    def test_replay_differing_from_the_run_fails(self):
        runs = clean_runs()
        runs[-1]["record"]["market"]["mismatches"] = 1
        self.assert_fails(runs, 100)
        runs = clean_runs()
        runs[-1]["record"]["directory"]["queries"] = 99
        self.assert_fails(runs, 100)
        runs[-1]["record"]["directory"]["rank_walk"] = False
        self.assertEqual(checker.evaluate(runs), ([], 500, 0))

    def test_unbalanced_bank_fails(self):
        runs = clean_runs()
        runs[0]["record"]["bank_balanced"] = False
        self.assert_fails(runs, 100)

    def test_missing_metric_fails(self):
        e2e = checker.end_to_end(clean_runs())
        del e2e["peak_rss_mb"]
        self.assertTrue(checker.metric_violations(SPEC["end_to_end"], e2e, True))
        layers = checker.per_layer(clean_runs()[:-1])  # no traced run
        self.assertTrue(checker.metric_violations(SPEC["per_layer"], layers,
                                                  False))

    def test_zero_end_to_end_metric_fails(self):
        e2e = checker.end_to_end(clean_runs())
        e2e["accept_pct"] = 0.0
        self.assertTrue(checker.metric_violations(SPEC["end_to_end"], e2e, True))

    def test_out_of_bound_metric_fails(self):
        spec = SPEC["end_to_end"]
        base = [result(), result()]
        self.assertEqual(checker.compare(spec, base, [result(), result()]), [])
        for m in spec:
            step = 1.0 - 2 * m["bound"] if m["better"] == "higher" else (
                1.0 + 2 * m["bound"])
            within = 1.0 - m["bound"] / 2 if m["better"] == "higher" else (
                1.0 + m["bound"] / 2)
            worse = checker.compare(spec, base, [result(**{m["name"]: step})])
            self.assertEqual([w[0] for w in worse], [m["name"]])
            self.assertEqual(
                checker.compare(spec, base, [result(**{m["name"]: within})]), [])
        missing = copy.deepcopy(result())
        del missing["metrics"]["jobs_per_s"]
        self.assertEqual([w[0] for w in checker.compare(spec, base, [missing])],
                         ["jobs_per_s"])

    def test_failing_candidate_is_out_of_bound(self):
        spec = SPEC["end_to_end"]
        base = [result(), result()]
        self.assertEqual(
            [w[0] for w in checker.compare(spec, base, [result(correct=False)])],
            ["correct"])
        self.assertEqual(
            [w[0] for w in checker.compare(spec, base, [result(failed=1)])],
            ["failed"])
        self.assertEqual(
            checker.compare(spec, [result(failed=1)], [result(failed=1)]), [])

    def test_zero_base_median_is_compared(self):
        spec = SPEC["end_to_end"]
        lower = next(m["name"] for m in spec if m["better"] == "lower")
        base = [result(**{lower: 0.0})]
        self.assertEqual(checker.compare(spec, base, [result(**{lower: 0.0})]),
                         [])
        self.assertEqual(
            [w[0] for w in checker.compare(spec, base, [result(**{lower: 1.0})])],
            [lower])


if __name__ == "__main__":
    unittest.main()
