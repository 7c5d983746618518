"""Per-layer probes: public functions of each layer timed from outside.

Every traced run ends with the same probes, whatever its workload, so a
layer's figure can be read next to the workload whose end-to-end metric it
should move (see README.md).  Timings are medians over repeated calls.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from importlib import resources

import workloads

# Region -> (integral whose sampling box and parameters it is probed with,
# parameter point).  These are the regions the quad workloads integrate.
EVAL_REGIONS = {
    "simplex2": ("cal2", None), "simplex3": ("cal3", None), "simplex4": ("cal4", None),
    "simplex5": ("cal5", None), "simplex6": ("cal6", None),
    "U71": ("L71", "L7"), "U72": ("L72", "L7"), "U73": ("L73", "L7"),
    "U235": ("S235", 0.52), "U236": ("S236", 0.52), "U237": ("S237", 0.52),
    "D1": ("I1", 0.52), "D3": ("I3", 0.52), "D5": ("I5", (0.32, 0.20)),
    "D6": ("I6", (0.32, 0.20)), "U233": ("U233", 0.52), "U234": ("U234", 0.52),
}
# Unsorted integrated regions: the only ones integrate() prunes.
PRUNED_REGIONS = ("D1", "D3", "D5", "D6", "simplex2", "simplex3", "simplex4", "simplex5",
                  "simplex6")
BATCHES = (256, 4096)
CLASSIFY_GROUPS = ("a_catalog", "e_catalog", "master")


def metric_names() -> list[str]:
    names = ["import.sievelab_s", "import.scipy_stats_qmc_s", "catalog.loads_s",
             "buchstab.table_build_ms", "buchstab.omega_many_ns_per_point",
             "buchstab.omega_lower_us_per_point"]
    names += [f"regions.eval_ns_per_point.{r}.b{b}" for r in EVAL_REGIONS for b in BATCHES]
    names += [f"regions.definitely_us_per_cell.{r}" for r in PRUNED_REGIONS]
    names += ["regions.contains_us_per_point"]
    names += [f"params.classify_ms_per_point.{g}" for g in CLASSIFY_GROUPS]
    names += ["params.type_ii_ms_per_point", "divisors.mobius_half_sum_us_per_pattern",
              "divisors.omega3_midrange_us_per_pattern", "tables.verify_triple_tables_ms"]
    return names


def _median_call(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _fresh_import(module: str, env: dict, root: str) -> float:
    """Seconds to import `module` in a fresh interpreter, timed inside it."""
    code = (f"import time\nt = time.perf_counter()\nimport {module}\n"
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def run(seed: int, root: str, env: dict) -> dict[str, tuple[float, str]]:
    import numpy as np

    from sievelab import buchstab, catalog, divisors, params, regions, tables

    rng = random.Random(f"probes:{seed}")
    nprng = np.random.default_rng(rng.randrange(2**32))
    cat = catalog.default_catalog()
    m: dict[str, tuple[float, str]] = {}

    m["import.sievelab_s"] = (
        statistics.median(_fresh_import("sievelab", env, root) for _ in range(3)), "s")
    m["import.scipy_stats_qmc_s"] = (
        statistics.median(_fresh_import("scipy.stats.qmc", env, root) for _ in range(3)), "s")

    text = resources.files("sievelab.data").joinpath("catalog.txt").read_text()
    m["catalog.loads_s"] = (_median_call(lambda: catalog.loads(text), 5), "s")

    m["buchstab.table_build_ms"] = (1e3 * _median_call(buchstab.BuchstabTable, 5), "ms")
    table = buchstab.default_table()
    u = 1.0 + nprng.random(4096) * 7.0
    m["buchstab.omega_many_ns_per_point"] = (
        1e9 * _median_call(lambda: table.omega_many(u), 21) / len(u), "ns")
    u34 = [3.0 + rng.random() for _ in range(200)]
    m["buchstab.omega_lower_us_per_point"] = (
        1e6 * _median_call(lambda: [buchstab.omega_lower(v) for v in u34], 3) / len(u34), "us")

    for name, (integral, point) in EVAL_REGIONS.items():
        spec = cat.integrals[integral]
        vals = _values(params, point)
        region = cat.region(name)
        lo, hi = region.box(vals, spec.dim)
        for b in BATCHES:
            x = lo + nprng.random((b, spec.dim)) * (hi - lo)
            if spec.sorted:
                x = -np.sort(-x, axis=1)
            per_call = _median_call(lambda: region.eval(x, vals, cat), 5)
            m[f"regions.eval_ns_per_point.{name}.b{b}"] = (1e9 * per_call / b, "ns")

    for name in PRUNED_REGIONS:
        integral, point = EVAL_REGIONS[name]
        spec = cat.integrals[integral]
        vals = _values(params, point)
        cells = _cells(cat.region(name), spec, vals)
        per_pass = _median_call(
            lambda: [regions.definitely(cat.region(name), a, b, vals, cat) for a, b in cells], 3)
        m[f"regions.definitely_us_per_cell.{name}"] = (1e6 * per_pass / len(cells), "us")

    pts = [(a, b) for a, b, _, _ in workloads.draw_points(rng, 20, cat, params, regions)]
    amaster = cat.region("Amaster")
    m["regions.contains_us_per_point"] = (1e6 * _median_call(
        lambda: [regions.contains(amaster, [a, b], params.ThetaParams(a, b).values(), cat)
                 for a, b in pts], 5) / len(pts), "us")
    for group in CLASSIFY_GROUPS:
        m[f"params.classify_ms_per_point.{group}"] = (1e3 * _median_call(
            lambda: [params.classify(params.ThetaParams(a, b), group, cat) for a, b in pts],
            3) / len(pts), "ms")
    m["params.type_ii_ms_per_point"] = (1e3 * _median_call(
        lambda: [params.type_ii_range(params.ThetaParams(a, b), cat) for a, b in pts],
        3) / len(pts), "ms")

    pats = [divisors.FactorizationPattern(parts)
            for parts, _, _ in workloads.draw_patterns(rng, 300)]
    m["divisors.mobius_half_sum_us_per_pattern"] = (1e6 * _median_call(
        lambda: [divisors.mobius_half_sum(p) for p in pats], 3) / len(pats), "us")
    m["divisors.omega3_midrange_us_per_pattern"] = (1e6 * _median_call(
        lambda: [divisors.omega3_midrange_count(p) for p in pats], 3) / len(pats), "us")
    m["tables.verify_triple_tables_ms"] = (
        1e3 * _median_call(tables.verify_triple_tables, 5), "ms")
    return m


def _values(params, point) -> dict:
    if point is None:
        return {}
    if point == "L7":
        return {"kappa": 1 / 11}
    if isinstance(point, tuple):
        return params.ThetaParams(*point).values()
    return params.ThetaParams(point).values()


def _cells(region, spec, vals):
    """The stratification cells integrate() builds for this integral."""
    k = spec.dim
    lo, hi = region.box(vals, k)
    bins = 2 if spec.sorted or spec.weight != "one" else max(2, int(round(4096.0 ** (1.0 / k))))
    edges = [lo + (hi - lo) * i / bins for i in range(bins + 1)]
    cells = []
    for s in range(bins**k):
        a, b = lo.copy(), hi.copy()
        for i in range(k):
            d = s % bins
            s //= bins
            a[i], b[i] = edges[d][i], edges[d + 1][i]
        cells.append((a, b))
    return cells
