#!/usr/bin/env python3
"""Checks that the simulation still reproduces the recorded exact counts.

    python3 bench/check_counts.py               # runs fedbench/run.py --counts
    python3 bench/check_counts.py --self-test

`fedbench/run.py --counts` prints the exact counts of every benchmark
workload (outcome digest, events, messages and bytes by type, bids,
directory queries, simulated quantiles, ...) at the default seed and at
the held-out seed.  This script compares them with
fedbench/exact_counts.json key by key and exits 1 on any difference, so
a change that claims to be bit-identical proves it on both seeds of all
three workloads.

`allocs` is not compared: allocation counts depend on the C++ standard
library, and a change that removes allocations moves them on purpose.
"""

import argparse
import copy
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "fedbench" / "exact_counts.json"
IGNORED = frozenset({"allocs"})
MISSING = "<missing>"


def differences(expected, actual, path=()):
    """Yields (path, expected, actual) for every differing leaf.

    Keys in IGNORED are skipped at any depth; a key present on one side
    only is a difference.  Numbers compare exactly: a bit-identical run
    prints the same digits.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key in IGNORED:
                continue
            if key not in expected or key not in actual:
                yield (path + (key,), expected.get(key, MISSING),
                       actual.get(key, MISSING))
            else:
                yield from differences(expected[key], actual[key],
                                       path + (key,))
    elif expected != actual or type(expected) is not type(actual):
        yield path, expected, actual


def check(expected, actual):
    """Prints every difference; returns True when there is none."""
    found = list(differences(expected, actual))
    for path, want, got in found:
        print(f"MISMATCH {'/'.join(path)}: expected {want}, got {got}")
    return not found


def run_counts():
    done = subprocess.run([sys.executable, str(ROOT / "fedbench" / "run.py"),
                           "--counts"], stdout=subprocess.PIPE, check=False)
    if done.returncode != 0:
        print(f"fedbench/run.py --counts exited {done.returncode}")
        return None
    return json.loads(done.stdout)


def self_test(expected):
    """The comparison must pass the recorded counts and fail a perturbed
    record; a perturbed allocation count alone must still pass."""
    ok = True
    same = copy.deepcopy(expected)
    if list(differences(expected, same)):
        print("self-test: identical records differ")
        ok = False
    workload = sorted(expected)[0]
    seed = sorted(expected[workload])[0]
    for key, delta in (("events", 1), ("digest", None),
                       ("response_p50_s", 1e-9)):
        bad = copy.deepcopy(expected)
        record = bad[workload][seed]
        record[key] = "0" * 16 if delta is None else record[key] + delta
        if len(list(differences(expected, bad))) != 1:
            print(f"self-test: a perturbed {key} was not caught")
            ok = False
    nested = copy.deepcopy(expected)
    nested[workload][seed]["msgs_by_type"]["bid"] += 1
    if len(list(differences(expected, nested))) != 1:
        print("self-test: a perturbed per-type count was not caught")
        ok = False
    dropped = copy.deepcopy(expected)
    del dropped[workload][seed]["events"]
    if len(list(differences(expected, dropped))) != 1:
        print("self-test: a missing count was not caught")
        ok = False
    allocs = copy.deepcopy(expected)
    allocs[workload][seed]["allocs"] += 1
    if list(differences(expected, allocs)):
        print("self-test: a perturbed allocs count was compared")
        ok = False
    print("self-test", "passed" if ok else "FAILED")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    with open(EXPECTED) as f:
        expected = json.load(f)
    if args.self_test:
        return 0 if self_test(expected) else 1
    actual = run_counts()
    if actual is None:
        return 1
    if not check(expected, actual):
        return 1
    print("exact counts match fedbench/exact_counts.json (allocs not compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
