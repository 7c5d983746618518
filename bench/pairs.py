"""Run the benchmark on two source trees in alternating pairs.

    python3 bench/pairs.py PARENT_ROOT CHANGE_ROOT OUT_DIR [SEEDS [WORKLOADS]]

SEEDS is a count (default 10: seeds 1..10) and WORKLOADS a comma-separated
list (default: every workload of BENCHMARK.json).  This copy of the benchmark
runs against both trees, so both sides are measured with identical benchmark
code: for seed i the parent runs first when i is even and the change first
when i is odd.  Each run's standard output is saved as
OUT_DIR/parent/<workload>-<seed>.json or OUT_DIR/change/<workload>-<seed>.json,
ready for bench/compare.py.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not 3 <= len(argv) <= 5:
        print(__doc__, file=sys.stderr)
        return 2
    roots = {"parent": os.path.abspath(argv[0]), "change": os.path.abspath(argv[1])}
    out = os.path.abspath(argv[2])
    seeds = int(argv[3]) if len(argv) > 3 else 10
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = argv[4].split(",") if len(argv) > 4 else [w["name"] for w in bench["workloads"]]
    for side in roots:
        os.makedirs(os.path.join(out, side), exist_ok=True)
    for seed in range(1, seeds + 1):
        order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                       "--trace", "0"]
                path = os.path.join(out, side, f"{workload}-{seed}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    proc = subprocess.run(cmd, cwd=roots[side], stdout=fh, timeout=900)
                status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
                print(f"seed {seed} {workload} {side}: {status}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
