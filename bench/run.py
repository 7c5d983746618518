"""sievelab benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload quad-affine --seed 1 --seconds 10 --trace 0

The run measures whole passes of the workload until --seconds have passed
(at least one pass), checks every output, prints each metric as
`name value unit`, and ends with one JSON object holding `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are its per-layer
metrics, from one pass run untraced, traced and untraced again, plus the
layer probes, and the spans are written to
.bench_out/trace-<workload>-<seed>.jsonl.

sievelab is imported from ./src only, so the run fails without printing a
result anywhere but a source checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import probes
import speed
import tracing
import workloads

SETUP_REPEATS = 3
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cli-session", "exact-sweep", "quad-affine", "quad-nonlocal"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def time_setup(code: str, env: dict, root: str) -> tuple[float, float]:
    """Seconds for a fresh interpreter to run the workload's set-up: raw,
    and at the reference speed."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "timed.py"), "-c", code],
                          env=env, cwd=root, check=True, capture_output=True, text=True,
                          timeout=120)
    wall = time.perf_counter() - start
    _, stolen, rate = speed.parse_report(proc.stderr)
    return wall - stolen, (wall - stolen) * rate


def run_passes(wl, seconds: float, tracer=None, trace_file=None, index=0):
    """Whole passes until `seconds` have passed; (raw, reference-speed) times."""
    times = []
    start = time.perf_counter()
    while True:
        inputs = wl.prepare(index)
        if tracer is not None and wl.in_process:
            tracer.install()
        wl.start_pass()
        try:
            wl.run_pass(index, inputs, tracer, trace_file)
        finally:
            if tracer is not None and wl.in_process:
                tracer.uninstall()
        times.append(wl.end_pass())
        index += 1
        if time.perf_counter() - start >= seconds:
            return times


def sampled(wl, fn):
    """Call fn with the speed sampler running in-process (CLI children
    sample themselves)."""
    if not wl.in_process:
        return fn()
    wl.sampler = speed.Sampler()
    wl.sampler.start()
    try:
        return fn()
    finally:
        wl.sampler.stop()


def traced_setup(wl, tracer) -> None:
    """The in-process set-up as one traced operation (imports, catalog, table)."""
    tracer.op_id = tracer.new_id()
    tracer.open("op", "setup", tracer.op_id)
    tracer.open("import", "setup imports")
    for module in sorted({t[0] for t in tracing.TARGETS}):
        importlib.import_module(module)
    tracer.close()
    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.uninstall()
        tracer.close()


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    # Child processes inherit the pin, so every timed process and the
    # calibration loop that rescales its time share one CPU.  Where pinning
    # is not permitted the run goes on unpinned.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sievelab", "__init__.py")):
        print("error: ./src/sievelab not found; run from the root of a sievelab checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    sys.path.insert(0, src)

    wl = workloads.WORKLOADS[args.workload](args.seed, root)
    pp = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + pp if pp else ""))
    env.pop("SIEVELAB_CATALOG", None)

    if not args.trace:
        setups = [time_setup(wl.setup_code, env, root) for _ in range(SETUP_REPEATS)]
        if wl.in_process:
            wl.setup()
        passes = sampled(wl, lambda: run_passes(wl, args.seconds))
        usage = resource.getrusage(
            resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN)
        metrics = {
            "setup_s": (statistics.median(norm for _, norm in setups), "s"),
            "pass_s": (statistics.median(norm for _, norm in passes), "s"),
            "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
        }
        info = wl.info()
        info["setup_wall_s"] = (statistics.median(raw for raw, _ in setups), "s")
        info["pass_wall_s"] = (statistics.median(raw for raw, _ in passes), "s")
        info["passes"] = (len(passes), "count")
        wanted = "end_to_end"
    else:
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        span_file = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl")
        if os.path.exists(span_file):
            os.remove(span_file)
        tracer = tracing.Tracer()
        if wl.in_process:
            traced_setup(wl, tracer)
        # The same pass untraced, traced, untraced: the traced pass is
        # compared with the mean of the two around it.  CLI children append
        # their spans to span_file themselves.
        (_, before), (_, traced), (_, after) = sampled(wl, lambda: [
            *run_passes(wl, 0.0), *run_passes(wl, 0.0, tracer, span_file),
            *run_passes(wl, 0.0)])
        tracer.dump(span_file)
        spans, counters = tracing.read_dump(span_file)
        metrics = tracing.layer_metrics(spans, counters, traced - (before + after) / 2)
        metrics.update(probes.run(args.seed, root, env))
        info = {"trace.spans": (len(spans), "count")}
        print(f"spans written to {os.path.relpath(span_file, root)}")
        wanted = "per_layer"

    for name, (value, unit) in {**info, **metrics}.items():
        print(f"{name} {value if isinstance(value, int) else format(value, '.6g')} {unit}")
    for err in wl.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)

    units = {m["name"]: m["unit"] for m in declared[wanted]}
    if set(metrics) != set(units):
        print(f"error: metrics differ from BENCHMARK.json {wanted}: "
              f"missing {sorted(set(units) - set(metrics))}, "
              f"extra {sorted(set(metrics) - set(units))}", file=sys.stderr)
        return 3
    wrong = sorted(n for n, (_, unit) in metrics.items() if unit != units[n])
    if wrong:
        print(f"error: units differ from BENCHMARK.json {wanted}: "
              + ", ".join(f"{n} {metrics[n][1]} != {units[n]}" for n in wrong), file=sys.stderr)
        return 3
    result = {
        "correct": not wl.errors,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
