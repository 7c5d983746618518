import builtins
import dataclasses
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sievelab
from sievelab import exact, quadrature, regions
from sievelab.catalog import default_catalog, dumps, loads
from sievelab.params import ThetaParams, theta_only
from sievelab.quadrature import (
    DEFAULT_SEED,
    QuadratureResult,
    SpecificationError,
    eval_L7,
    integrate,
    named_integral,
)
from sievelab.regions import RegionSpec, contains

CAT = default_catalog()
FAST = 1 << 19


def test_simplex_calibration_small_dims():
    for k in (2, 3, 4):
        res = integrate(CAT.integrals[f"cal{k}"], {}, tol=1e-9, rel_tol=1e-3, budget=FAST)
        assert res.value == pytest.approx(1 / math.factorial(k), rel=3 * max(1e-3, 3e-3))


def test_seed_determinism_bitwise():
    a = quadrature.sampled(CAT.integrals["cal3"], {}, tol=1e-9, budget=FAST, seed=7)
    b = quadrature.sampled(CAT.integrals["cal3"], {}, tol=1e-9, budget=FAST, seed=7)
    assert a == b  # every field, bit for bit


def test_seed_independence_within_error():
    a = quadrature.sampled(CAT.integrals["cal3"], {}, tol=1e-9, budget=FAST, seed=7)
    b = quadrature.sampled(CAT.integrals["cal3"], {}, tol=1e-9, budget=FAST, seed=8)
    assert a.value != b.value  # the seed reaches the scrambling
    assert abs(a.value - b.value) <= 3 * (a.est_error + b.est_error) + 1e-6


def test_empty_box_returns_zero():
    res = named_integral("U234", theta_only(0.51), tol=1e-3, budget=FAST)
    assert res.value == 0.0 and res.flag == "empty-box"


def test_u234_zero_below_threshold():
    # kappa >= 1/7 below the 29/56 threshold forces the six-variable region
    # empty (seven copies of kappa already exceed the budget).
    below = named_integral("U234", theta_only(29 / 56 - 0.002), tol=1e-3, budget=FAST)
    assert below.value == 0.0 and below.flag == "empty-box"
    # Far beyond the threshold the region holds points again (the covering
    # predicate no longer absorbs the whole ordered box).
    vals = theta_only(0.545).values()
    reg = CAT.region("U234")
    lo, hi = reg.box(vals, 6)
    assert (hi > lo).all()
    rng = np.random.default_rng(3)
    x = lo + rng.random((400_000, 6)) * (hi - lo)
    x = -np.sort(-x, axis=1)
    assert reg.eval(x, vals, CAT).any()


def test_s235_monotone_in_kappa():
    # Larger starting point means a smaller region, so the loss shrinks as
    # kappa grows (kappa decreases along theta = 0.51, 0.52, 0.53).
    vals = {}
    results = []
    for th in (0.51, 0.52, 0.53):
        res = named_integral("S235", theta_only(th), tol=1e-3, budget=FAST)
        results.append(res)
        assert res.value >= 0
    assert results[0].value <= results[1].value <= results[2].value


def test_named_integral_arity_checks():
    with pytest.raises(Exception):
        named_integral("I5", theta_only(0.52))
    with pytest.raises(Exception):
        named_integral("S235", ThetaParams(0.32, 0.20))
    with pytest.raises(Exception):
        named_integral("nosuch", theta_only(0.52))


def test_region_shrink_monotonicity():
    extra = (
        "region U235s dim=3\n"
        "  bound t1 = [kappa, (1 - 3*kappa)/2]\n"
        "  bound t2 = [kappa, (1 - 3*kappa)/2]\n"
        "  bound t3 = [kappa, (1 - 3*kappa)/2]\n"
        "  where in(U235) and t1 < 7/25\n"
        "end\n"
        "integral S235s dim=3 region=U235s weight=reciprocal mult=2 sorted\n"
    )
    cat2 = loads(dumps(CAT) + extra)
    full = integrate(cat2.integrals["S235"], theta_only(0.52), tol=1e-9, budget=FAST, cat=cat2)
    shrunk = integrate(cat2.integrals["S235s"], theta_only(0.52), tol=1e-9, budget=FAST, cat=cat2)
    assert shrunk.value <= full.value + 3 * (full.est_error + shrunk.est_error)


def test_unbounded_integrand_rejected():
    extra = (
        "region badbox dim=2\n"
        "  bound t1 = [0, 1/2]\n"
        "  bound t2 = [0, 1/2]\n"
        "  where tsum < 1\n"
        "end\n"
        "integral badint dim=2 region=badbox weight=reciprocal mult=1\n"
    )
    cat2 = loads(dumps(CAT) + extra)
    with pytest.raises(SpecificationError):
        integrate(cat2.integrals["badint"], {}, tol=1e-3, budget=FAST, cat=cat2)


def test_unbounded_sliver_rejected():
    # The region is the sliver t1 < 1e-5 of its box, which a pilot of 8,192
    # points over the box missed; the sampled points inside it are checked.
    extra = (
        "region sliver dim=2\n"
        "  bound t1 = [0, 1/2]\n"
        "  bound t2 = [1/10, 1/5]\n"
        "  where t1 < 1/100000\n"
        "end\n"
        "integral sliverint dim=2 region=sliver weight=reciprocal mult=1\n"
    )
    cat2 = loads(dumps(CAT) + extra)
    with pytest.raises(SpecificationError, match="integrand unbounded"):
        integrate(cat2.integrals["sliverint"], {}, tol=1e-3, budget=FAST, cat=cat2)


def test_budget_caps_the_points_a_region_sees(monkeypatch):
    seen, evaluate = [0], RegionSpec.eval

    def counting(self, x, *args, **kwargs):
        seen[0] += len(x)
        return evaluate(self, x, *args, **kwargs)

    monkeypatch.setattr(RegionSpec, "eval", counting)
    res = quadrature.sampled(CAT.integrals["I5"], ThetaParams(0.32, 0.20), budget=4096)
    assert res.samples <= 4096 and 0 < seen[0] <= 4096


def test_sampled_blocks_reach_the_region_uncopied(monkeypatch):
    # A batch is the (rows, k) transpose of a C-ordered float64 block, so the
    # program's coordinate-major copy, np.ascontiguousarray(batch.T), is the
    # block itself: the drawn block for cal2, the sorted one for S235.
    blocks, evaluate = [], RegionSpec.eval

    def recording(self, x, *args, **kwargs):
        blocks.append(x.T)
        return evaluate(self, x, *args, **kwargs)

    monkeypatch.setattr(RegionSpec, "eval", recording)
    quadrature.sampled(CAT.integrals["S235"], ThetaParams(0.52), budget=1 << 16)
    quadrature.sampled(CAT.integrals["cal2"], {}, budget=1 << 16)
    assert len(blocks) > 2
    for block in blocks:
        assert block.flags.c_contiguous and block.dtype == np.float64
        assert np.ascontiguousarray(block, dtype=float) is block


def test_sampled_results_do_not_depend_on_block_size(monkeypatch):
    # S235 runs the sorting network, I3 the Buchstab weight and not in(G)'s
    # splits chunks, and U233 its nested residual, each over blocks of
    # other sizes than the default's
    runs = [("S235", 0.52), ("I3", 0.5167), ("U233", 0.52)]

    def results():
        return [quadrature.sampled(CAT.integrals[name], theta_only(theta), budget=1 << 16,
                                   seed=3) for name, theta in runs]

    want = results()
    for block_rows in (64, 1000):
        monkeypatch.setattr(quadrature, "BLOCK_ROWS", block_rows)
        assert results() == want


def test_integral_beyond_direction_table_rejected():
    wide = dataclasses.replace(CAT.integrals["cal6"], name="wide", dim=25)
    with pytest.raises(SpecificationError, match="at most 24 allowed"):
        integrate(wide, {}, budget=FAST)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        integrate(CAT.integrals["S235"], theta_only(0.52), budget=FAST, seed=-1)


@pytest.mark.parametrize("bad", [{"tol": math.nan}, {"tol": math.inf}, {"rel_tol": math.nan}])
def test_non_finite_tolerance_rejected(bad):
    with pytest.raises(ValueError):
        integrate(CAT.integrals["cal2"], {}, budget=FAST, **bad)


def test_l7_thresholds_and_monotone():
    r11 = eval_L7(1 / 11, tol=6e-3, budget=FAST)
    r12 = eval_L7(1 / 12, tol=6e-3, budget=FAST)
    assert r11.value < 0.84
    assert r12.value > 1.2
    assert r11.value < r12.value
    with pytest.raises(ValueError):
        eval_L7(0.2)


def test_l7_nonincreasing_in_kappa_grid():
    kappas = np.linspace(1 / 13 + 1e-4, 1 / 8, 10)
    values = [eval_L7(float(k), tol=0.02, budget=1 << 17).value for k in kappas]
    for a, b in zip(values, values[1:]):
        assert b <= a + 0.02


def test_u73_emptiness_matches_grid_oracle():
    # Dense ordered-grid oracle over the 5-simplex agrees with the sampler
    # about emptiness at the domain edge kappa = 1/8.
    kap = 0.125
    grid = np.linspace(kap + 1e-4, (1 - 4 * kap) / 2, 12)
    pts = np.stack(np.meshgrid(*[grid] * 5, indexing="ij"), axis=-1).reshape(-1, 5)
    pts = -np.sort(-pts, axis=1)
    vals = {"kappa": kap}
    hits = CAT.region("U73").eval(pts, vals, CAT).sum()
    res = integrate(CAT.integrals["L73"], vals, tol=1e-2, budget=FAST)
    assert (hits > 0) == (res.value > 0)
    assert hits > 0  # the corner region survives at the edge


def test_i5_i6_small_at_target_points():
    p = ThetaParams(0.32, 0.20)
    r5 = named_integral("I5", p, tol=3e-6, budget=1 << 22)
    r6 = named_integral("I6", p, tol=3e-6, budget=1 << 22)
    assert r5.value + r6.value <= 1e-5 + 3 * (r5.est_error + r6.est_error)
    assert r5.value > 0


def test_result_is_float_like():
    res = QuadratureResult(1.5, 0.0, 0, 0)
    assert float(res) == 1.5


def test_floor_variant_agrees_where_floor_never_binds():
    # The covering-predicate floor is far below every coordinate in these
    # regions, so both variants must agree within tolerance.
    p = ThetaParams(0.32, 0.20)
    with_floor = named_integral("I5", p, tol=1e-6, budget=FAST)
    without = named_integral("I5", p, tol=1e-6, budget=FAST, min_alpha_floor=False)
    assert abs(with_floor.value - without.value) <= 1e-6 + 3 * (
        with_floor.est_error + without.est_error
    )


def test_budget_is_a_hard_cap():
    for e in range(14, 20):
        budget = 1 << e
        cal6 = integrate(CAT.integrals["cal6"], {}, tol=1e-4, rel_tol=5e-4, budget=budget)
        i1 = named_integral("I1", theta_only(0.52), budget=budget)
        assert cal6.samples <= budget, (budget, cal6)
        assert i1.samples <= budget, (budget, i1)


def test_budget_below_one_point_per_stratum_rejected():
    # cal2 keeps 2080 of its 4096 cells; four replicates need 8320 points
    with pytest.raises(SpecificationError, match="below one point per stratum"):
        quadrature.sampled(CAT.integrals["cal2"], {}, tol=1e-4, budget=1 << 12)
    res = quadrature.sampled(CAT.integrals["cal2"], {}, tol=1e-4, budget=8320)
    assert res.samples == 8320 and abs(res.value - 0.5) < 0.01


def per_cell_live(region, vals, lo, hi, bins):
    """The cells the box test does not judge empty, one cell at a time."""
    k = len(lo)
    edges = [lo + (hi - lo) * i / bins for i in range(bins + 1)]
    live = []
    for s in range(bins**k):
        d = [s // bins**i % bins for i in range(k)]
        cell_lo = np.array([edges[d[i]][i] for i in range(k)])
        cell_hi = np.array([edges[d[i] + 1][i] for i in range(k)])
        if regions.definitely(region, cell_lo, cell_hi, vals, CAT) is not False:
            live.append(s)
    return live


@pytest.mark.parametrize("name", ["cal2", "cal3", "cal4", "cal5", "cal6", "I3"])
def test_bisection_keeps_the_per_cell_strata(name, monkeypatch):
    spec = CAT.integrals[name]
    params = ThetaParams(0.52) if name == "I3" else {}
    vals = quadrature._params_dict(params)
    region = CAT.region(spec.region)
    lo, hi = region.box(vals, spec.dim)
    bins = 2 if name == "I3" else max(2, round(4096 ** (1 / spec.dim)))
    want = per_cell_live(region, vals, lo, hi, bins)

    bound, decide, bisect = exact._bound, regions._Bound.decide, quadrature._bisect
    binds, calls, kept = [], [0], []

    def binding(*args):
        binds.append(bound(*args))
        return binds[-1]

    def counting(self, lo, hi, ex=None):
        calls[0] += 1
        return decide(self, lo, hi, ex)

    def recording(test, lo, hi, n, cap=math.inf):
        boxes = list(bisect(test, lo, hi, n, cap))
        # the cells of the kept boxes, numbered as in per_cell_live
        cells = {sum(d * n**i for i, d in enumerate(digits))
                 for a, b in boxes for digits in itertools.product(*map(range, a, b))}
        kept.append((cap, sorted(cells)))
        return boxes

    monkeypatch.setattr(exact, "_bound", binding)
    monkeypatch.setattr(regions._Bound, "decide", counting)
    monkeypatch.setattr(quadrature, "_bisect", recording)
    quadrature.sampled(spec, params, tol=1.0, budget=max(1 << 15, 4 * len(want)))
    # one call, for the strata, which caps no box tests, on one binding of
    # the region's program for every box
    assert kept == [(math.inf, want)] and len(binds) == 1
    if name == "I3":  # a two-way grid: the whole box, then each cell
        assert calls[0] <= bins**spec.dim + 1
    else:
        assert calls[0] < bins**spec.dim


@pytest.mark.parametrize("name, samples", [("I1", 24576), ("I2", 16384)])
def test_region_without_first_round_hits_proved_empty(name, samples, monkeypatch):
    box_test, bisect = exact.BoxTest.__call__, quadrature._bisect
    calls, proofs = [0], []

    def counting(self, lo, hi):
        calls[0] += 1
        return box_test(self, lo, hi)

    def proving(test, lo, hi, n, cap=math.inf):
        before = calls[0]
        boxes = list(bisect(test, lo, hi, n, cap))
        if cap == quadrature.PROOF_CALLS:
            proofs.append((boxes == [], calls[0] - before))
        return iter(boxes)

    monkeypatch.setattr(exact.BoxTest, "__call__", counting)
    monkeypatch.setattr(quadrature, "_bisect", proving)
    res = named_integral(name, theta_only(0.52))
    # the samples of the first round, whose strata are 4 replicates of a
    # power-of-two batch each
    assert res == QuadratureResult(0.0, 0.0, samples, DEFAULT_SEED, "empty-region")
    # one proof, made by exact box tests
    assert len(proofs) == 1 and proofs[0][0]
    assert 0 < proofs[0][1] <= quadrature.PROOF_CALLS


@pytest.mark.parametrize("name, point, proved, calls", [
    ("I1", (0.52,), True, 9),
    ("I2", (0.52,), True, 1),
    ("U234", (0.52,), True, 1),
    ("I1", (0.50,), True, 1),
    ("U233", (0.52,), False, 94),
    ("I3", (0.52,), False, 128),
    ("I4", (0.52,), False, 128),
    ("I5", (0.32, 0.20), False, 126),
    ("U234", (0.56,), False, 128),
])
def test_proof_verdicts_and_box_test_counts(name, point, proved, calls, monkeypatch):
    # each proof's verdict and the box tests it makes, pinned
    box_test, made = exact.BoxTest.__call__, [0]

    def counting(self, lo, hi):
        made[0] += 1
        return box_test(self, lo, hi)

    monkeypatch.setattr(exact.BoxTest, "__call__", counting)
    spec = CAT.integrals[name]
    vals = ThetaParams(*point).values()
    region = CAT.region(spec.region)
    lo, hi = region.box(vals, spec.dim)
    assert quadrature._proved_empty(exact.BoxTest(region, spec.dim, vals, CAT), lo, hi) is proved
    assert made[0] == calls


@pytest.mark.parametrize("name", ["cal2", "cal3", "cal4", "cal5", "cal6", "S235", "I3", "I5",
                                  "U233"])
def test_no_proof_after_a_first_round_with_hits(name, monkeypatch):
    bisect = quadrature._bisect

    def refuse(test, lo, hi, n, cap=math.inf):
        if cap == quadrature.PROOF_CALLS:
            raise AssertionError("the emptiness proof ran")
        return bisect(test, lo, hi, n, cap)

    monkeypatch.setattr(quadrature, "_bisect", refuse)
    if name.startswith("cal"):
        params = {}
    else:
        params = ThetaParams(0.32, 0.20) if name == "I5" else theta_only(0.52)
    res = quadrature.sampled(CAT.integrals[name], params, budget=1 << 16)
    assert res.value > 0 and res.flag == ""


def test_bisection_yields_untested_boxes_past_its_cap():
    # three tests of an undecided box and its two halves; the four quarters
    # queued behind them are never tested
    tested = []

    def undecided(lo, hi):
        tested.append((lo, hi))

    boxes = list(quadrature._bisect(undecided, np.zeros(1), np.ones(1), 8, 3))
    assert tested == [([0.0], [1.0]), ([0.0], [0.5]), ([0.5], [1.0])]
    assert boxes == [((0,), (2,)), ((2,), (4,)), ((4,), (6,)), ((6,), (8,))]


def test_open_proof_stops_at_its_first_kept_box(monkeypatch):
    # I6 at (0.32, 0.20): the 58th box test finds a box inside the region,
    # so no proof of emptiness is left to find
    box_test, verdicts = exact.BoxTest.__call__, []

    def recording(self, lo, hi):
        verdicts.append(box_test(self, lo, hi))
        return verdicts[-1]

    monkeypatch.setattr(exact.BoxTest, "__call__", recording)
    spec = CAT.integrals["I6"]
    vals = ThetaParams(0.32, 0.20).values()
    region = CAT.region(spec.region)
    lo, hi = region.box(vals, spec.dim)
    assert not quadrature._proved_empty(exact.BoxTest(region, spec.dim, vals, CAT), lo, hi)
    assert len(verdicts) == 58 and verdicts[-1] is True
    assert True not in verdicts[:-1]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["I1", "I2", "I3", "I4", "U233", "U234"]),
       st.floats(0.5, 4 / 7, exclude_max=True))
@example("U234", 0.52)  # closed by the exact test
@example("I4", 0.53)  # likewise
def test_proved_empty_regions_hold_no_box_point(name, theta):
    spec = CAT.integrals[name]
    vals = theta_only(theta).values()
    region = CAT.region(spec.region)
    lo, hi = region.box(vals, spec.dim)
    if (hi <= lo).any() or not quadrature._proved_empty(
            exact.BoxTest(region, spec.dim, vals, CAT), lo, hi):
        return
    x = lo + np.random.default_rng(0).random((1 << 14, spec.dim)) * (hi - lo)
    if spec.sorted:
        x = -np.sort(-x, axis=1)
    assert not region.eval(x, vals, CAT).any()


def motzkin_holds(rows, weights) -> bool:
    """Rows (a, b, strict) mean a . t < b (strict) or a . t <= b: weights
    y >= 0 with y A = 0 and y b < 0, or y b = 0 with a positive weight on a
    strict row, show they have no common real solution."""
    k = len(rows[0][0])
    return (len(rows) == len(weights) and all(y >= 0 for y in weights)
            and all(sum(y * a[i] for y, (a, _, _) in zip(weights, rows)) == 0 for i in range(k))
            and (sum(y * b for y, (_, b, _) in zip(weights, rows)) < 0
                 or sum(y * b for y, (_, b, _) in zip(weights, rows)) == 0
                 and any(y > 0 and s for y, (_, _, s) in zip(weights, rows))))


@pytest.mark.parametrize("name, theta", [("U234", 0.52), ("I4", 0.53)])
def test_exact_test_certificates_hold(name, theta):
    spec = CAT.integrals[name]
    vals = theta_only(theta).values()
    region = CAT.region(spec.region)
    lo, hi = region.box(vals, spec.dim)
    test = exact.BoxTest(region, spec.dim, vals, CAT)
    assert list(quadrature._bisect(test, lo, hi, quadrature.PROOF_BINS, quadrature.PROOF_CALLS)) == []
    certificates = test.certificates
    assert certificates
    for cert in certificates:
        assert motzkin_holds(cert.rows, cert.weights)
    if name == "U234":
        # Near t = (1/7, ..., 1/7) the proof needs a strict row: with t1 >
        # t2 > ... > t6 and t3 + t4 + t5 + t6 >= 4/7, 2 t1 + t2 + ... + t6
        # exceeds 1 only strictly.
        assert any(sum(y * b for y, (_, b, _) in zip(c.weights, c.rows)) == 0
                   for c in certificates)


def test_certificates_do_not_depend_on_string_hashes():
    # The refuted residual holds junctions, whose frozensets iterate in an
    # order that follows the process's string hashes.
    src = os.path.dirname(os.path.dirname(sievelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "from sievelab.catalog import default_catalog\n"
        "from sievelab.exact import BoxTest\n"
        "from sievelab.params import theta_only\n"
        "cat = default_catalog()\n"
        "test = BoxTest(cat.region('U233'), 2, theta_only(0.56).values(), cat)\n"
        "assert test([0.1875, 0.359375], [0.453125, 0.390625]) is False\n"
        "print([(c.rows, c.weights) for c in test.certificates])\n"
    )
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=dict(env, PYTHONHASHSEED=seed), timeout=60, check=True).stdout
            for seed in ("1", "7")]
    assert outs[0] == outs[1] != "[]\n"


# points 13-15 of np.linspace(0.5, 4 / 7, 60, endpoint=False)
@pytest.mark.parametrize("theta", [0.5154761904761904, 0.5166666666666666, 0.5178571428571428])
def test_i4_proved_empty_near_its_threshold(theta):
    # the slowest proofs of that grid, each of more than 64 box tests
    spec = CAT.integrals["I4"]
    vals = theta_only(theta).values()
    region = CAT.region(spec.region)
    lo, hi = region.box(vals, spec.dim)
    assert quadrature._proved_empty(exact.BoxTest(region, spec.dim, vals, CAT), lo, hi)


@pytest.mark.parametrize("region_name, theta, point", [
    # test_u234_zero_below_threshold samples points of U234 here
    ("U234", 0.545, [0.273, 0.127, 0.081, 0.063, 0.06, 0.059]),
    # I4's region at 0.52 holds the segment t1 + t2 = 3/7, t3 = t4 = 1/7,
    # where four of its non-strict bounds are tight: not empty, but null
    ("D4", 0.52, [3 / 14 + 0.005, 3 / 14 - 0.005, 1 / 7, 1 / 7]),
])
def test_regions_holding_points_are_not_proved_empty(region_name, theta, point):
    vals = theta_only(theta).values()
    region = CAT.region(region_name)
    assert contains(region, point, vals, CAT)
    lo, hi = region.box(vals, len(point))
    assert not quadrature._proved_empty(exact.BoxTest(region, len(point), vals, CAT), lo, hi)


# a region the float strata keep no cell of, and its unit-weight integral
NO_CELL = loads("region R dim=2\n  bound t1 = [0, 1]\n  bound t2 = [0, 1]\n"
                "  where t1 + t2 > 3\nend\n"
                "integral X dim=2 region=R weight=one mult=1\n")


@pytest.mark.parametrize("run", [quadrature.sampled, integrate])
def test_strata_without_a_cell_are_proved_empty(run, monkeypatch):
    # float bounds are rounded: empty-region follows an exact proof.  The
    # sampler's is the bisection of the proof; integrate's is the one walk
    # of the sampling box, whose residual is False, and no bisection runs.
    bisect, bisections, walks = quadrature._bisect, [], []
    decide = regions._Bound.decide

    def recording(test, lo, hi, n, cap=math.inf):
        bisections.append(n)
        return bisect(test, lo, hi, n, cap)

    def walking(self, lo, hi, ex=None):
        if ex is not None:
            walks.append(lo)
        return decide(self, lo, hi, ex)

    monkeypatch.setattr(quadrature, "_bisect", recording)
    monkeypatch.setattr(regions._Bound, "decide", walking)
    res = run(NO_CELL.integrals["X"], {}, cat=NO_CELL)
    assert res == QuadratureResult(0.0, 0.0, 0, DEFAULT_SEED, "empty-region")
    assert len(walks) == 1
    # the sampler bisects its 64 x 64 strata grid first
    assert bisections == ([64, quadrature.PROOF_BINS] if run is quadrature.sampled else [])


def test_strata_without_a_cell_are_sampled_unless_proved_empty(monkeypatch):
    # every cell of the 64 x 64 grid is a stratum; 16 points per replicate
    # in each fill the budget in one round
    monkeypatch.setattr(quadrature, "_proved_empty", lambda *args: False)
    res = quadrature.sampled(NO_CELL.integrals["X"], {}, budget=1 << 18, cat=NO_CELL)
    assert (res.value, res.samples, res.flag) == (0.0, 1 << 18, "no-hits")


SPEC_ERRORS = loads(
    "region Q dim=2\n  bound t1 = [0, 1/4]\n  bound t2 = [0, 1/4]\n  where t1 < t2\nend\n"
    "region Far dim=2\n  bound t1 = [0, 1/4]\n  bound t2 = [0, kappa]\n  where t1 < t2\nend\n"
    "region Oblong dim=2\n  bound t1 = [0, 1/4]\n  bound t2 = [0, 1/2]\n  where t1 < t2\nend\n"
    "integral Far dim=2 region=Far weight=one mult=1\n"
    "integral Oblong dim=2 region=Oblong weight=one mult=1 sorted\n"
    "integral Buch dim=2 region=Q weight=buchstab mult=1\n")


@pytest.mark.parametrize("spec, params, message", [
    (SPEC_ERRORS.integrals["Far"], {"kappa": math.inf},
     "region Far has a non-finite bounding box"),
    (SPEC_ERRORS.integrals["Oblong"], {}, "sorted integral Oblong needs identical bounds"),
    (SPEC_ERRORS.integrals["Buch"], {}, "buchstab weight needs a kappa value"),
    (dataclasses.replace(SPEC_ERRORS.integrals["Buch"], weight="odd"), {},
     "unknown weight kind 'odd'"),
])
@pytest.mark.parametrize("run", [quadrature.sampled, integrate])
def test_specification_errors_are_typed(run, spec, params, message):
    with pytest.raises(SpecificationError) as err:
        run(spec, params, cat=SPEC_ERRORS)
    assert str(err.value) == message


# Fixed-seed results at budget 2^16 (value, est_error, samples, flag), as
# float.hex strings.  I6 and U233 are unchanged from the tree-walking region
# evaluator; I3, I4, I5 and the S23x used to draw more than 2^16 samples and
# changed when the budget became a hard cap.  I1 and I2 used to end in
# no-hits after spending the budget (65532 and 65536 samples); their first
# round has no hit, and the box bisection now proves their regions empty
# after it.  U234 ended in no-hits too (est_error 0x1.538885e2d333dp-40 after
# 65536 samples); the exact box test proves its region empty.  I4 still ends
# in no-hits: its region holds a null set of points
# (test_regions_holding_points_are_not_proved_empty).  The sampled values
# changed once more when every stream's scramble came to be drawn from one
# Generator of the seed; I1, I2, I4 and U234 read no sampled value.
PINNED_2_16 = {
    "I1": ("0x0.0p+0", "0x0.0p+0", 24576, "empty-region"),
    "I2": ("0x0.0p+0", "0x0.0p+0", 16384, "empty-region"),
    "I3": ("0x1.99b798c169aa4p-11", "0x1.702b5ff624e7ap-14", 65528, ""),
    "I4": ("0x0.0p+0", "0x1.82d4a6e9f7338p-8", 65532, "no-hits"),
    "I5": ("0x1.3a3a55286f247p-18", "0x1.4740ecbc23f05p-27", 65528, ""),
    "I6": ("0x1.11410631ebaf0p-23", "0x1.fc2ae27889e4ap-33", 65536, ""),
    "S235": ("0x1.2fe277e9bb0d1p-4", "0x1.34a14de4e3f9cp-14", 65524, ""),
    "S236": ("0x1.9845ef6765eb0p-7", "0x1.6538443ff0615p-16", 65520, ""),
    "S237": ("0x1.38f05559bacd2p-10", "0x1.2c082d8019389p-18", 65508, ""),
    "U233": ("0x1.711d1321ef70fp-2", "0x1.c2188ee4a26b6p-11", 65536, ""),
    "U234": ("0x0.0p+0", "0x0.0p+0", 16384, "empty-region"),
}


@pytest.mark.parametrize("name", sorted(PINNED_2_16))
def test_pinned_fixed_seed_results(name):
    # I5, I6 and the S23x are polytopes on their sampling boxes, and U233
    # splits into cells on its residual's rows, which integrate takes by
    # cubature; sampled U233 pins the sorting network
    if name in ("I5", "I6"):
        res = quadrature.sampled(CAT.integrals[name], ThetaParams(0.32, 0.20), tol=3e-6,
                                 budget=1 << 16)
    elif name.startswith("S23") or name == "U233":
        res = quadrature.sampled(CAT.integrals[name], theta_only(0.52), budget=1 << 16)
    else:
        res = named_integral(name, theta_only(0.52), budget=1 << 16)
    value, err, samples, flag = PINNED_2_16[name]
    want = QuadratureResult(float.fromhex(value), float.fromhex(err), samples, DEFAULT_SEED, flag)
    assert res == want


# Fine-grid calibration integrals and both L7 sums at budget 2^16, as above.
# The calibration integrals run up to thousands of strata (cal2 keeps 2080
# cells), where one round spans the most streams.
PINNED_FINE_2_16 = {
    "cal2": ("0x1.000db6db6db6ep-1", "0x1.1cd9ba9e388edp-13", 58240, ""),
    "cal3": ("0x1.552db0285dcacp-3", "0x1.7a1f611890302p-14", 64932, ""),
    "cal4": ("0x1.5479f498d5f0fp-5", "0x1.11a5bcd2cacfap-14", 64784, ""),
    "cal5": ("0x1.109a9103fda74p-7", "0x1.12922c934fc5fp-15", 65328, ""),
    "cal6": ("0x1.6be8f520079f9p-10", "0x1.5fba827172560p-18", 65380, ""),
    "L7_1_11": ("0x1.aa5c38015809ap-1", "0x1.1b6d523710e93p-9", 196552, ""),
    "L7_1_12": ("0x1.36c2532403db2p+0", "0x1.723b082058b5bp-9", 196560, ""),
}


@pytest.mark.parametrize("name", sorted(PINNED_FINE_2_16))
def test_pinned_fine_grid_results(name):
    if name.startswith("cal"):
        res = quadrature.sampled(CAT.integrals[name], {}, budget=1 << 16)
    else:
        res = sampled_L7(1 / int(name[-2:]), budget=1 << 16)
    value, err, samples, flag = PINNED_FINE_2_16[name]
    want = QuadratureResult(float.fromhex(value), float.fromhex(err), samples, DEFAULT_SEED, flag)
    assert res == want


def sampled_L7(kappa: float, budget: int) -> QuadratureResult:
    """eval_L7's sum of L71-L73 at its default tol, each part sampled."""
    total, err, n = 0.0, 0.0, 0
    for name in ("L71", "L72", "L73"):
        res = quadrature.sampled(CAT.integrals[name], {"kappa": kappa}, 1e-3 / 3.0, DEFAULT_SEED,
                                 budget)
        total += res.value
        err += res.est_error
        n += res.samples
    return QuadratureResult(total, err, n, DEFAULT_SEED)


SUM = builtins.sum  # this interpreter's own


def compensated_sum(iterable, /, start=0):
    """The built-in sum of CPython 3.12 and later over floats: the first is
    added to the int 0, the rest with Neumaier's compensation, which is
    added at the end when nonzero and finite.  Other arguments go to the
    built-in sum of this interpreter."""
    items = list(iterable)
    if type(start) is not int or start or not items or any(type(v) is not float for v in items):
        return SUM(items, start)
    total, c = 0 + items[0], 0.0
    for x in items[1:]:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


@pytest.mark.parametrize("name", sorted(PINNED_2_16) + sorted(PINNED_FINE_2_16))
def test_pinned_results_under_a_compensated_sum(monkeypatch, name):
    # Python 3.12 made the built-in sum of floats compensated; a result must
    # not depend on it, so every pinned result holds under its emulation.
    assert compensated_sum([0.1] * 10) == 1.0  # 0.9999999999999999 added in order
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    if name in PINNED_2_16:
        test_pinned_fixed_seed_results(name)
    else:
        test_pinned_fine_grid_results(name)
