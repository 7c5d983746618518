"""The four benchmark workloads.

Each workload is a closed loop with one client: it issues an operation only
after the previous one has returned, and a run repeats whole passes over a
fixed list of operations.  Inputs come from the workload seed and the pass
index, so no pass repeats the previous pass's sampling seeds or points.

Every output is checked against a published value, a reference recomputed
without sievelab (bench/reference.py), or a property of the method.  A check
that fails marks the run incorrect; an integral that draws more samples than
its budget is counted as a failed operation instead, because `--budget` is
documented as a cap.

Timing.  Operation times are wall seconds minus the time the speed
sampler took (bench/speed.py); pass times are also reported rescaled to the
reference core speed, which is what the end-to-end metrics use.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time
from collections import defaultdict
from itertools import combinations

import reference
import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# omega is tabulated by the trapezoid rule on a 1e-4 grid and the [3, 4)
# envelopes use an adaptive Simpson value of the same integral, so the two
# agree to about 1e-10, not exactly.  Envelope ordering and the match with
# the independent reference are checked to this tolerance.
ENVELOPE_TOL = 1e-9
BAND_SLACK = 1e-4  # the published bands are quoted to four digits
BUDGET = 1 << 22  # sievelab's default --budget

# Published omega bands: [3, 4) and the tail [4, 10].
BAND_34 = (0.5607, 0.5644)
BAND_TAIL = (0.5612, 0.5617)


class Workload:
    """Shared bookkeeping: check failures, operation counts and timings."""

    setup_code = ""
    in_process = True

    def __init__(self, seed: int, root: str):
        self.seed, self.root = seed, root
        self.refs = reference.load()
        self.errors: list[str] = []
        self.sums: dict[str, float] = defaultdict(float)  # raw seconds per label
        self.calls: dict[str, int] = defaultdict(int)
        self.attempted = 0
        self.failed = 0
        self.sampler: speed.Sampler | None = None  # set for in-process runs
        self._raw = self._norm = self.last = 0.0
        self._first = 0

    def setup(self) -> None:
        exec(self.setup_code, {})

    def prepare(self, index: int):
        """Inputs of pass `index`, made before the pass is timed or traced."""
        return None

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def pass_seed(self, index: int, op: int = 0) -> int:
        return random.Random(f"{self.seed}:{index}:{op}").randrange(1, 2**31)

    def start_pass(self) -> None:
        self._raw = self._norm = 0.0
        self._first = len(self.sampler.samples) if self.sampler else 0

    def end_pass(self) -> tuple[float, float]:
        """Seconds of the pass's operations: raw, and at the reference speed."""
        if self.in_process:
            self._norm = self._raw * (self.sampler.speed(self._first) if self.sampler else 1.0)
        return self._raw, self._norm

    def _op(self, tracer, label, fn):
        """Run one operation, traced as an "op" span when a tracer is given."""
        if tracer is not None:
            tracer.op_id = tracer.new_id()
            tracer.open("op", label, tracer.op_id)
        stolen = self.sampler.stolen if self.sampler else 0.0
        start = time.perf_counter()
        try:
            out = fn()
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.close()
        if self.sampler:
            elapsed -= self.sampler.stolen - stolen
        self.last = elapsed
        self._raw += elapsed
        self.sums[label] += elapsed
        self.calls[label] += 1
        self.attempted += 1
        return out

    def mean(self, label: str) -> float:
        return self.sums[label] / self.calls[label]


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------


def envelope_errors(u: float, lower: float, om: float, upper: float, refs: dict) -> list[str]:
    """Published envelope properties of omega at one grid point u in [1, 10]."""
    errs = []
    where = f"u={u!r}"
    if not lower - ENVELOPE_TOL <= om <= upper + ENVELOPE_TOL:
        errs.append(f"{where}: lower {lower!r} <= omega {om!r} <= upper {upper!r} fails")
    if u <= 3.0:
        exact = 1.0 / u if u <= 2.0 else (1.0 + math.log(u - 1.0)) / u
        for label, v in (("omega", om), ("lower", lower), ("upper", upper)):
            if abs(v - exact) > 1e-12:
                errs.append(f"{where}: {label} {v!r} != closed form {exact!r}")
    elif u <= 4.0:
        grid = refs["omega_34"]
        pos = (u - grid["u0"]) / grid["step"]
        idx = int(round(pos))
        if abs(pos - idx) > 1e-6:
            errs.append(f"{where}: not on the reference grid")
        elif abs(om - grid["values"][idx]) > ENVELOPE_TOL:
            errs.append(f"{where}: omega {om!r} vs reference {grid['values'][idx]!r}")
        if u < 4.0 and not BAND_34[0] - BAND_SLACK <= om <= BAND_34[1] + BAND_SLACK:
            errs.append(f"{where}: omega {om!r} outside the published [3,4) band")
    if u >= 4.0 and not BAND_TAIL[0] - BAND_SLACK <= om <= BAND_TAIL[1] + BAND_SLACK:
        errs.append(f"{where}: omega {om!r} outside the published tail band")
    return errs


def merged_matches(got: list[tuple[float, float]], want: list[list[float]], tol=1e-12) -> bool:
    return len(got) == len(want) and all(
        abs(g[0] - w[0]) <= tol and abs(g[1] - w[1]) <= tol for g, w in zip(got, want)
    )


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

# (label, arguments, takes a seed, samples).  The seeded commands get
# --seed from the workload seed; the rest are the same in every run.
CLI_SCRIPT = (
    ("typeii_a0101", "typeii 0.36 0.141 --format csv", False, False),
    ("typeii_a0104", "typeii 0.39 0.135 --format csv", False, False),
    ("typeii_e0101", "typeii 0.28 0.23 --family e --format csv", False, False),
    ("typeii_theta", "typeii 0.52 --format csv", False, False),
    ("buchstab", "buchstab 1 10 0.01 --format csv", False, False),
    ("verify_buchstab", "verify buchstab", False, False),
    ("verify_tables26", "verify tables26", False, False),
    ("verify_divisor", "verify divisor", True, False),
    ("integral_s235", "integral S235 --theta 0.52 --format csv", True, True),
    ("integral_i5", "integral I5 --theta1 0.32 --theta2 0.20 --tol 3e-6 --format csv", True, True),
    ("verify_l7", "verify L7", True, True),
)
TYPEII_REGION = {"typeii_a0101": "A0101", "typeii_a0104": "A0104",
                 "typeii_e0101": "E0101", "typeii_theta": "theta_mode"}


def _parse_typeii(out: str):
    region, kappa_start, merged = None, None, []
    for line in out.splitlines():
        if line.startswith("region: "):
            region = line.split(": ", 1)[1]
        elif line.startswith("kappa_start: "):
            kappa_start = float(line.split(": ", 1)[1])
        elif line.startswith("merged,"):
            _, lo, hi, _ = line.split(",")
            merged.append((float(lo), float(hi)))
    return region, kappa_start, merged


def _parse_integral(out: str) -> dict:
    header, row = out.strip().splitlines()[-2:]
    rec = dict(zip(header.split(","), row.split(",")))
    return {"value": float(rec["value"]), "est_error": float(rec["est_error"]),
            "samples": int(rec["samples"])}


class CliSession(Workload):
    """Fresh-process CLI calls, one at a time, as a user would type them."""

    setup_code = "import sievelab.cli\nsievelab.cli.default_catalog()\n"
    in_process = False

    def __init__(self, seed, root):
        super().__init__(seed, root)
        src = os.path.join(root, "src")
        pp = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + pp if pp else ""))
        self.env.pop("SIEVELAB_CATALOG", None)

    def run_pass(self, index: int, inputs, tracer=None, trace_file=None) -> None:
        for i, (label, argline, seeded, _) in enumerate(CLI_SCRIPT):
            args = argline.split()
            if seeded:
                args += ["--seed", str(self.pass_seed(index, i))]
            cmd = [sys.executable, os.path.join(BENCH_DIR, "timed.py"), "-m", "sievelab.cli",
                   *args]

            def call(cmd=cmd):
                env = self.env
                if tracer is not None:
                    env = dict(env, BENCH_TRACE_FILE=trace_file, BENCH_TRACE_OP=str(tracer.op_id),
                               BENCH_TRACE_PARENT=str(tracer.stack[-1][0]))
                return subprocess.run(cmd, env=env, cwd=self.root, capture_output=True,
                                      text=True, timeout=150)

            proc = self._op(tracer, f"cli.{label}_s", call)
            self.failed += self._check_cli(label, args, self._account(f"cli.{label}_s", proc))

    def _account(self, label: str, proc):
        """Take the child's speed report off its stderr and book its time."""
        proc.stderr, stolen, rate = speed.parse_report(proc.stderr)
        self.sums[label] -= stolen
        self._raw -= stolen
        self._norm += (self.last - stolen) * rate
        return proc

    def _check_cli(self, label: str, args: list[str], proc) -> bool:
        """Check one command's output; True when it overran its budget."""
        where = f"cli {' '.join(args)}"
        if proc.returncode != 0:
            self.check(False, f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
            return False
        out = proc.stdout
        if label in TYPEII_REGION:
            want = TYPEII_REGION[label]
            closed = self.refs["typeii"][want]["merged"]
            region, kappa_start, merged = _parse_typeii(out)
            self.check(region == want, f"{where}: region {region} != {want}")
            self.check(merged_matches(merged, closed), f"{where}: merged {merged} != {closed}")
            self.check(kappa_start is not None, f"{where}: no kappa_start")
        elif label == "buchstab":
            rows = out.strip().splitlines()[1:]
            self.check(len(rows) == 901, f"{where}: {len(rows)} rows, expected 901")
            for row in rows:
                u, lo, om, up, _ = row.split(",")
                for err in envelope_errors(float(u), float(lo), float(om), float(up), self.refs):
                    self.check(False, f"{where}: {err}")
        elif label.startswith("verify"):
            lines = out.strip().splitlines()
            self.check(bool(lines) and all(line.startswith("[pass]") for line in lines),
                       f"{where}: {[l for l in lines if not l.startswith('[pass]')]}")
            if label == "verify_tables26":
                self.check(len(lines) == 35, f"{where}: {len(lines)} rows, expected 35")
        elif label == "integral_s235":
            rec = _parse_integral(out)
            ref = self.refs["S235_theta_0.52"]
            self.check(abs(rec["value"] - ref) <= 1e-3,
                       f"{where}: {rec['value']!r} not within tol 1e-3 of {ref!r}")
            return rec["samples"] > BUDGET
        elif label == "integral_i5":
            rec = _parse_integral(out)
            bound = 1e-5 + 3 * rec["est_error"]
            self.check(0 <= rec["value"] <= bound, f"{where}: I5 {rec['value']!r} > {bound!r}")
            return rec["samples"] > BUDGET
        return False

    def info(self) -> dict:
        out = {f"cli.{label}_s": (self.mean(f"cli.{label}_s"), "s") for label, *_ in CLI_SCRIPT}
        exact = sorted(self.mean(f"cli.{label}_s") for label, _, _, samples in CLI_SCRIPT
                       if not samples)
        out["cli_exact_p50_s"] = ((exact[len(exact) // 2 - 1] + exact[len(exact) // 2]) / 2, "s")
        return out


# ---------------------------------------------------------------------------
# exact-sweep
# ---------------------------------------------------------------------------

REGION_POINTS = 60
PATTERNS = 3000
U_STEP = 0.001  # the u-grid on [1, 10]
A_TOP = tuple(f"A{i:02d}" for i in range(1, 18))


def _brute_force(alphas: tuple[float, ...]):
    """Signed below-sqrt divisor count, mid-range triple count and whether a
    sum sits within 1e-9 of a comparison boundary, by plain enumeration
    (independent of sievelab's doubling table)."""
    sums = [0.0]
    signs = [1]
    for a in alphas:
        sums += [s + a for s in sums]
        signs += [-g for g in signs]
    triples = 0
    near = any(abs(s - 0.5) <= 1e-9 for s in sums)
    for i, j, l in combinations(range(len(alphas)), 3):
        s = alphas[i] + alphas[j] + alphas[l]
        upper = (1.0 + alphas[l]) / 2.0
        near |= abs(s - 0.5) <= 1e-9 or abs(s - upper) <= 1e-9
        triples += 0.5 < s < upper
    mobius = sum(g for s, g in zip(sums, signs) if s < 0.5)
    return mobius, 2 * triples, near


def _merge_open(pieces):
    """Union of (lo, hi, lo_open, hi_open) pieces as sorted disjoint pieces."""
    live = sorted(
        (p for p in pieces if p[1] > p[0] or (p[1] == p[0] and not (p[2] or p[3]))),
        key=lambda p: (p[0], p[2]),
    )
    out = []
    for p in live:
        if out and (p[0] < out[-1][1] or (p[0] == out[-1][1] and not (p[2] and out[-1][3]))):
            q = out[-1]
            if (p[1], not p[3]) > (q[1], not q[3]):
                out[-1] = (q[0], p[1], q[2], p[3])
            continue
        out.append(p)
    return out


def draw_points(rng, n, cat, params, regions) -> list[tuple[float, float, bool, bool]]:
    """n points (theta1, theta2, in Amaster, in Emaster), uniform over
    [0.25, 0.55] x [0, 0.3] with theta2 <= theta1, kept when in either region."""
    amaster, emaster = cat.region("Amaster"), cat.region("Emaster")
    pts = []
    while len(pts) < n:
        t1, t2 = rng.uniform(0.25, 0.55), rng.uniform(0.0, 0.3)
        if t2 > t1:
            continue
        vals = params.ThetaParams(t1, t2).values()
        in_a = regions.contains(amaster, [t1, t2], vals, cat)
        in_e = regions.contains(emaster, [t1, t2], vals, cat)
        if in_a or in_e:
            pts.append((t1, t2, in_a, in_e))
    return pts


def draw_patterns(rng, n) -> list[tuple[tuple[float, ...], int, int]]:
    """n uniform-simplex patterns of 1-12 factors with their brute-force
    counts, dropping near-equal entries and sums near a boundary."""
    pats = []
    while len(pats) < n:
        k = rng.randint(1, 12)
        cuts = sorted(rng.random() for _ in range(k - 1))
        parts = tuple(sorted((b - a for a, b in zip([0.0] + cuts, cuts + [1.0])), reverse=True))
        if any(a - b <= 1e-6 for a, b in zip(parts, parts[1:])):
            continue
        mobius, triples, near = _brute_force(parts)
        if not near:
            pats.append((parts, mobius, triples))
    return pats


class ExactSweep(Workload):
    """In-process sweeps over the layers that never sample."""

    setup_code = (
        "import sievelab.params, sievelab.divisors, sievelab.tables, sievelab.regions\n"
        "import sievelab.buchstab, sievelab.catalog\n"
        "sievelab.catalog.default_catalog()\nsievelab.buchstab.default_table()\n"
    )

    def setup(self):
        super().setup()
        from sievelab import buchstab, catalog, divisors, params, regions, tables

        self.bb, self.dv, self.pm, self.rg, self.tb = buchstab, divisors, params, regions, tables
        self.cat = catalog.default_catalog()
        self.a_leaves = set(self.cat.groups["a_leaves"])
        self.e_leaves = set(self.cat.groups["e_leaves"])
        n = int(round(9.0 / U_STEP))
        self.u_grid = [round(1.0 + i * U_STEP, 12) for i in range(n + 1)]
        self.counts = {"points": 0, "patterns": 0, "u": 0}

    def prepare(self, index: int):
        rng = random.Random(f"exact:{self.seed}:{index}")
        return (draw_points(rng, REGION_POINTS, self.cat, self.pm, self.rg),
                draw_patterns(rng, PATTERNS))

    def run_pass(self, index: int, inputs, tracer=None, trace_file=None) -> None:
        pts, pats = inputs
        for point in pts:
            self._region_point(tracer, *point)
        for pat in pats:
            self._pattern(tracer, *pat)
        for u in self.u_grid:
            self._envelope(tracer, u)
        rows = self._op(tracer, "tables", self.tb.verify_triple_tables)
        self.check(len(rows) == 35 and all(ok for _, ok, _ in rows),
                   f"triple tables: {[r for r in rows if not r[1]]}")
        self.counts["points"] += len(pts)
        self.counts["patterns"] += len(pats)
        self.counts["u"] += len(self.u_grid)

    def _region_point(self, tracer, t1, t2, in_a, in_e) -> None:
        pm, cat = self.pm, self.cat
        p = pm.ThetaParams(t1, t2)
        where = f"point ({t1!r}, {t2!r})"
        res = {group: self._op(tracer, "classify", lambda g=group: pm.classify(p, g, cat))
               for group in ("a_catalog", "e_catalog", "master")}
        self.check(("Amaster" in res["master"]) == in_a and ("Emaster" in res["master"]) == in_e,
                   f"{where}: master {res['master']} disagrees with Amaster/Emaster membership")
        if in_a:
            top = [n for n in res["a_catalog"] if n in A_TOP]
            self.check(len(top) == 1, f"{where}: in Amaster but A01-A17 matches {top}")
        a_leaf = [n for n in res["a_catalog"] if n in self.a_leaves]
        e_leaf = [n for n in res["e_catalog"] if n in self.e_leaves]
        self.check(len(a_leaf) <= 1 and len(e_leaf) <= 1,
                   f"{where}: overlapping leaves {a_leaf} {e_leaf}")
        rep = self._op(tracer, "type_ii", lambda: pm.type_ii_range(p, cat))
        expect = (a_leaf or e_leaf or [None])[0]
        if expect is not None:
            self.check(rep.matched_region == expect,
                       f"{where}: type-II leaf {rep.matched_region} != {expect}")
        if rep.raw_ranges:
            flags = cat.ranges[rep.matched_region].pieces
            want = _merge_open([(r.lo, r.hi, f.lo_open, f.hi_open)
                                for r, f in zip(rep.raw_ranges, flags)])
            got = [(m.lo, m.hi, m.lo_open, m.hi_open) for m in rep.merged]
            self.check(got == want, f"{where}: merged {got} != union of raw pieces {want}")
        theta = t1 + t2
        if 0.5 <= theta < 4 / 7 and rep.kappa_start is not None:
            k0 = reference.kappa(theta)
            ks = rep.kappa_start
            self.check(ks >= k0 - 1e-15, f"{where}: kappa_start {ks!r} < kappa {k0!r}")
            inside = [m for m in rep.merged
                      if (ks > m.lo if m.lo_open else ks >= m.lo) and ks < m.hi]
            self.check(not inside, f"{where}: kappa_start {ks!r} still inside {inside}")

    def _pattern(self, tracer, parts, mobius, triples) -> None:
        dv = self.dv
        pat = dv.FactorizationPattern(parts)
        k = len(parts)
        where = f"pattern {parts}"
        m = self._op(tracer, "mobius_half_sum", lambda: dv.mobius_half_sum(pat))
        c3 = self._op(tracer, "omega3_midrange", lambda: dv.omega3_midrange_count(pat))
        self.check(m == mobius, f"{where}: mobius_half_sum {m} != brute force {mobius}")
        self.check(c3 == triples, f"{where}: omega3_midrange_count {c3} != brute force {triples}")
        # Case table of acceptance criterion 4: (applies, expected value).
        cases = ((k % 2 == 0, 0), (k == 1, 1), (k >= 2 and parts[0] > 0.5, 0),
                 (k == 3 and parts[0] < 0.5, -2), (k == 7 and parts[-1] > 0.125, -20))
        for applies, want in cases:
            self.check(not applies or m == want, f"{where}: mobius_half_sum {m} != {want}")
        if k == 5:
            g = self._op(tracer, "divisor_count_gap", lambda: dv.divisor_count_gap(pat))
            self.check(g == triples - mobius and 0 <= g <= 2, f"{where}: gap {g} out of [0, 2]")
            if parts[1] + parts[2] > parts[0] + parts[4]:
                self.check(g == 0, f"{where}: gap {g} with a2 + a3 > a1 + a5")

    def _envelope(self, tracer, u) -> None:
        bb = self.bb
        lo = self._op(tracer, "omega_lower", lambda: bb.omega_lower(u))
        om = self._op(tracer, "omega", lambda: bb.omega(u))
        up = self._op(tracer, "omega_upper", lambda: bb.omega_upper(u))
        for err in envelope_errors(u, lo, om, up, self.refs):
            self.check(False, f"envelope {err}")

    def info(self) -> dict:
        s, c = self.sums, self.counts
        divisor_s = s["mobius_half_sum"] + s["omega3_midrange"] + s["divisor_count_gap"]
        envelope_s = s["omega_lower"] + s["omega"] + s["omega_upper"]
        return {
            "classify_points_per_s": (c["points"] / s["classify"], "points/s"),
            "typeii_points_per_s": (c["points"] / s["type_ii"], "points/s"),
            "divisor_patterns_per_s": (c["patterns"] / divisor_s, "patterns/s"),
            "envelope_points_per_s": (c["u"] / envelope_s, "points/s"),
        }


# ---------------------------------------------------------------------------
# quad-affine and quad-nonlocal
# ---------------------------------------------------------------------------


class Quadrature(Workload):
    """In-process integrals at their stated tolerances and default budget."""

    setup_code = (
        "import scipy.stats.qmc\nimport sievelab.quadrature, sievelab.params\n"
        "import sievelab.buchstab, sievelab.catalog\n"
        "sievelab.catalog.default_catalog()\nsievelab.buchstab.default_table()\n"
    )
    # (label, budget the samples are held to, fixed seed or None for seeded)
    integrals: tuple = ()

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.samples: dict[str, int] = defaultdict(int)

    def setup(self):
        super().setup()
        from sievelab import catalog, params, quadrature

        self.qd, self.pm = quadrature, params
        self.cat = catalog.default_catalog()

    def run_pass(self, index: int, inputs, tracer=None, trace_file=None) -> None:
        for i, (label, budget, fixed_seed) in enumerate(self.integrals):
            seed = fixed_seed if fixed_seed is not None else self.pass_seed(index, i)
            res = self._op(tracer, label, lambda label=label, seed=seed: self.call(label, seed))
            self.samples[label] += res.samples
            self.check_result(label, res, seed)
            # An overrun is a failed operation, but its output is still checked.
            self.failed += res.samples > budget

    def call(self, label: str, seed: int):
        raise NotImplementedError

    def check_result(self, label: str, res, seed: int) -> None:
        raise NotImplementedError

    def info(self) -> dict:
        out = {}
        for label, *_ in self.integrals:
            out[f"quadrature.{label}.s"] = (self.mean(label), "s")
            out[f"quadrature.{label}.samples"] = (self.samples[label] // self.calls[label],
                                                  "count")
        return out


CAL_TOL, CAL_REL_TOL = 1e-4, 5e-4  # as in `sievelab verify calibration`


class QuadAffine(Quadrature):
    """Pure affine conjunctions: the time goes to the sampling machinery."""

    integrals = (
        *((f"cal{k}", BUDGET, None) for k in range(2, 7)),
        ("L7_1_11", 3 * BUDGET, None),  # eval_L7 sums three integrals
        ("L7_1_12", 3 * BUDGET, None),
        ("S235", BUDGET, None),
        ("S236", BUDGET, None),
        ("S237", BUDGET, None),
    )

    def call(self, label, seed):
        qd, cat = self.qd, self.cat
        if label.startswith("cal"):
            return qd.integrate(cat.integrals[label], {}, tol=CAL_TOL, rel_tol=CAL_REL_TOL,
                                seed=seed, budget=BUDGET, cat=cat)
        if label.startswith("L7"):
            kappa = 1 / 11 if label == "L7_1_11" else 1 / 12
            return qd.eval_L7(kappa, tol=5e-3, seed=seed, budget=BUDGET, cat=cat)
        return qd.named_integral(label, self.pm.ThetaParams(0.52), seed=seed, budget=BUDGET,
                                 cat=cat)

    def check_result(self, label, res, seed):
        where = f"{label} seed {seed}"
        if label.startswith("cal"):
            # Within the requested tolerance of 1/k!: for cal2-cal4 that is
            # tighter than 0.3 %; cal5 and cal6 are asked for 1e-4 absolute
            # (1.2 % and 7 %), and 0.3 % does not hold for them on every seed.
            exact = 1 / math.factorial(int(label[3:]))
            target = max(CAL_TOL, CAL_REL_TOL * exact)
            self.check(abs(res.value - exact) <= target,
                       f"{where}: {res.value!r} not within {target:.3g} of 1/k! = {exact!r}")
        elif label == "L7_1_11":
            self.check(res.value < 0.84, f"{where}: L7(1/11) = {res.value!r} >= 0.84")
        elif label == "L7_1_12":
            self.check(res.value > 1.2, f"{where}: L7(1/12) = {res.value!r} <= 1.2")
        elif label == "S235":
            ref = self.refs["S235_theta_0.52"]
            self.check(abs(res.value - ref) <= 1e-3,
                       f"{where}: {res.value!r} not within tol 1e-3 of {ref!r}")
        else:
            self.check(math.isfinite(res.value) and res.value > 0 and res.est_error <= 1e-3,
                       f"{where}: value {res.value!r} err {res.est_error!r}")


class QuadNonlocal(Quadrature):
    """Regions using not in(G), in(R...) and splits: region evaluation dominates."""

    integrals = (
        # I1 ends in no-hits, so its sample count does not depend on the
        # seed, and it overruns the budget every time.  Its seed is fixed so
        # that this failed operation is the same in every run.
        ("I1", BUDGET, 0x5EED),
        ("U234", BUDGET, None),
        ("I3", BUDGET, None),
        ("U233", BUDGET, None),
        ("I5", BUDGET, None),
        ("I6", BUDGET, None),
    )

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.i5 = None

    def call(self, label, seed):
        if label in ("I5", "I6"):
            p, tol = self.pm.ThetaParams(0.32, 0.20), 3e-6
        else:
            p, tol = self.pm.ThetaParams(0.52), 1e-3
        return self.qd.named_integral(label, p, tol=tol, seed=seed, budget=BUDGET, cat=self.cat)

    def check_result(self, label, res, seed):
        where = f"{label} seed {seed}"
        if label in ("I1", "U234"):
            self.check(res.value == 0.0 and (res.flag == "no-hits" or res.flag.startswith("empty")),
                       f"{where}: {res.value!r} flag {res.flag!r}, expected 0 with no hits")
        elif label in ("I3", "U233"):
            self.check(math.isfinite(res.value) and res.value > 0 and res.est_error <= 1e-3,
                       f"{where}: value {res.value!r} err {res.est_error!r}")
        elif label == "I5":
            self.i5 = res
        elif label == "I6" and self.i5 is not None:
            total = self.i5.value + res.value
            bound = 1e-5 + 3 * (self.i5.est_error + res.est_error)
            self.check(total <= bound, f"{where}: I5 + I6 = {total!r} > {bound!r}")
            self.i5 = None


WORKLOADS = {
    "cli-session": CliSession,
    "exact-sweep": ExactSweep,
    "quad-affine": QuadAffine,
    "quad-nonlocal": QuadNonlocal,
}
