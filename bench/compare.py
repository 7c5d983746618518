"""Compare two result sets of the benchmark: the parent's and the change's.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one file per run, named <workload>-<seed>.json, whose
last line is the JSON result bench/run.py printed; bench/pairs.py makes such
sets, alternating which side runs first.  Runs of the same workload and seed
form a pair.

For every workload and end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles, the spread (interquartile range over median),
the share of pairs the change won (ties count for neither side), and a
verdict:

- improved: the change wins at least 9/10 of the pairs and the medians
  differ by more than the parent's interquartile range;
- unresolved: the parent's spread exceeds the metric's bound, unless every
  run of the change beats every run of the parent;
- worse: the change's median is worse than the parent's by more than the
  bound (a share of the parent's median);
- same: none of these.

It also compares the share of failed operations and checks that every run
was correct.  The exit status is 1 when a metric is worse, a failed share
differs or a run is incorrect.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_set(directory: str) -> dict[tuple[str, str], dict]:
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        workload, _, seed = name[: -len(".json")].rpartition("-")
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
        runs[(workload, seed)] = json.loads(lines[-1]) if lines else None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, parent: list[float], change: list[float]) -> tuple[str, float]:
    """Verdict and share of pairs won; parent[i] and change[i] are a pair."""
    pairs = list(zip(parent, change))
    lower = metric["better"] == "lower"
    sign = 1.0 if lower else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    pq1, pmed, pq3 = quartiles(parent)
    cmed = statistics.median(change)
    spread = (pq3 - pq1) / abs(pmed) if pmed else float("inf")
    gain = sign * (pmed - cmed)
    if lower:
        beats_all = max(change) < min(parent)
    else:
        beats_all = min(change) > max(parent)
    if -gain > metric["bound"] * abs(pmed):
        return "worse", share
    if share >= 0.9 and gain > pq3 - pq1:
        return "improved", share
    # A change that beats every parent run is resolved however wide the spread.
    if spread > metric["bound"] and not beats_all:
        return "unresolved", share
    return "same", share


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parent, change = load_set(argv[0]), load_set(argv[1])
    bad = False
    for run_set, label in ((parent, "parent"), (change, "change")):
        for key, res in sorted(run_set.items()):
            if res is None or not res["correct"]:
                print(f"{label} run {key[0]} seed {key[1]}: no result or incorrect")
                bad = True

    header = ("workload", "metric", "parent median [q1, q3]", "spread", "change median [q1, q3]",
              "spread", "won", "verdict")
    print(" | ".join(header))
    for workload in [w["name"] for w in bench["workloads"]]:
        keys = sorted(k for k in parent if k[0] == workload and parent[k] and change.get(k))
        p_runs = [parent[k] for k in keys]
        c_runs = [change[k] for k in keys]
        if not p_runs or not c_runs:
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            word, share = verdict(metric, pv, cv)
            bad |= word == "worse"
            cells = [workload, name]
            for values in (pv, cv):
                q1, med, q3 = quartiles(values)
                cells += [f"{med:.4g} [{q1:.4g}, {q3:.4g}]", f"{(q3 - q1) / med:.3f}"]
            cells += [f"{share:.2f}", word]
            print(" | ".join(cells))
        shares = [{r["failed"] / r["attempted"] for r in runs} for runs in (p_runs, c_runs)]
        if shares[0] != shares[1] or len(shares[0]) != 1:
            print(f"{workload}: failed shares differ: parent {sorted(shares[0])}, "
                  f"change {sorted(shares[1])}")
            bad = True
        else:
            print(f"{workload}: failed share {shares[0].pop():.6g} on both sides")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
