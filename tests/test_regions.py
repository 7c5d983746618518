import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from sievelab import catalog, regions
from sievelab.catalog import (Catalog, IntegralDef, default_catalog, dumps, loads,
                              parse_affine_expr, parse_bool_expr)
from sievelab.exact import BoxTest, Certificate, _farkas
from sievelab.params import ThetaParams, _climb, theta_only
from sievelab.regions import (
    PARAM_NAMES,
    SPECIALS,
    AffineForm,
    BoolNode,
    Comparison,
    Descending,
    IntervalPiece,
    IntervalUnion,
    NumericPiece,
    RegionError,
    contains,
    definitely,
    interval_contains,
    merge_numeric,
    Membership,
    RegionSpec,
    Splits,
)

CAT = default_catalog()


def aff(text):
    return parse_affine_expr(text)


# ---------------------------------------------------------------------------
# AffineForm
# ---------------------------------------------------------------------------


def exact_value(form, params, x):
    """A form at a point, in rationals: params and x hold Fractions."""
    specials = {"tmax": max(x), "tmin": min(x), "tsum": sum(x)}
    return (form.const + sum(w * params[p] for p, w in form.params)
            + sum(w * x[i - 1] for i, w in form.vars)
            + sum(w * specials[n] for n, w in form.specials))


def test_affine_linearity():
    rng = random.Random(3)
    f = aff("1/2 + 2*theta - 3*t1 + t2")
    g = aff("theta1 - t1/4 + 5")
    for _ in range(50):
        a, b = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        combo = f.scale(a) + g.scale(b)
        params = {"theta": Fraction(rng.random()), "theta1": Fraction(rng.random())}
        x = [Fraction(rng.random()), Fraction(rng.random())]
        assert exact_value(combo, params, x) == (a * exact_value(f, params, x)
                                                 + b * exact_value(g, params, x))


def test_affine_interval_bounds_sound():
    # the compiled interval bounds the box test judges a column by: each
    # side of each column, with tsum, tmin and tmax written out, over the box
    rng = random.Random(9)
    cat = loads("region A dim=2\n  where 1 - 2*theta + 3*t1 - t2 + tsum/2 < tmax - tmin/4\nend\n")
    params = {"theta": 0.51}
    exact_params = {"theta": Fraction(params["theta"])}
    lo, hi = [0.1, 0.2], [0.3, 0.5]
    prog = regions._program(cat.region("A"), cat, 2)
    assert len(prog.columns) == 4  # one for each coordinate tmax and tmin may take
    for (_, *sides), forms in zip(prog.columns, prog.forms):
        for (const, weights, terms), form in zip(sides, forms):
            assert not form.specials
            a, b = regions._bounds(regions._base(const, weights, params), terms, lo, hi)
            for _ in range(100):
                x = [Fraction(rng.uniform(0.1, 0.3)), Fraction(rng.uniform(0.2, 0.5))]
                assert a - 1e-12 <= exact_value(form, exact_params, x) <= b + 1e-12


# ---------------------------------------------------------------------------
# contains: worked examples and a literal structural oracle
# ---------------------------------------------------------------------------


def test_contains_examples():
    vals = theta_only(0.51).values()
    # Only s constrained: a one-dimensional point is accepted.
    assert contains(CAT.region("g1"), [0.05], vals, CAT)
    # Literal substitution: s=0.40 < 0.49 but s+2t = 1.00 > 0.98 fails.
    assert not contains(CAT.region("S"), [0.40, 0.30], vals, CAT)
    # Vacuous conjunction is true.
    from sievelab.regions import RegionSpec

    empty = RegionSpec("empty_and", 2, parse_bool_expr("true"))
    assert contains(empty, [0.9, 0.9], vals, CAT)


def test_contains_rejects_non_finite_points():
    # a NaN leaves atoms undecided; an infinity is rejected alike
    for point in ([float("nan"), 0.1], [0.1, float("inf")]):
        with pytest.raises(RegionError, match="non-finite"):
            contains(CAT.region("simplex2"), point, {}, CAT)


def test_enlarged_s_disjunct():
    # The bilinear enlargement cannot rescue (0.40, 0.30) at total 0.51:
    # s + t = 0.70 needs both 1 - theta1 > 0.7 and 1 - theta1/2 - theta2 > 0.7,
    # which force theta1 < 0.3 and theta1 > 0.42 simultaneously.
    for t1 in (0.26, 0.30, 0.36, 0.42, 0.48):
        t2 = 0.51 - t1
        if not 0 < t2 <= t1:
            continue
        from sievelab.params import ThetaParams

        vals = ThetaParams(t1, t2).values()
        assert not contains(CAT.region("S_ext"), [0.40, 0.30], vals, CAT)


LITERAL = {
    "g1": lambda s, t, v: 2 * v["theta"] - 1 < s < (5 - 8 * v["theta"]) / 6,
    "g2": lambda s, t, v: s < (17 - 33 * v["theta"]) / 36,
    "g3": lambda s, t, v: s + t > v["theta"]
    and 2 * s + 3 * t < 1 + v["theta"]
    and 5 * s + 2 * t < 2
    and 4 * s + 3 * t < 2,
    "g4": lambda s, t, v: s + t > v["theta"]
    and s + 2 * t < 2 - 2 * v["theta"]
    and 5 * s + 2 * t < 2,
    "g5": lambda s, t, v: s + t > v["theta"]
    and t < 1 - v["theta"]
    and s + t < 153 / 224 - v["theta"] / 7
    and 4 * s + t < 57 / 32 - v["theta"],
    "S": lambda s, t, v: s < 1 - v["theta"]
    and s + 2 * t < 2 - 2 * v["theta"]
    and s + 4 * t < 2 - v["theta"],
    "Tstar3": lambda s, t, v: (3 / 7 < s < 1 - v["theta"]) or (v["theta"] < s < 4 / 7),
    "Tstar": lambda s, t, v: 0 <= s <= (8 * v["theta"] - 2) / 7
    and 0 <= t <= (5 - 6 * v["theta"]) / 7,
    "U2": lambda s, t, v: v["kappa"] <= s <= 3 / 7
    and v["kappa"] <= t < min(s, (1 - s) / 2),
    "R2": lambda s, t, v: t <= s
    and s + 2 * t <= 1
    and s + 4 * t >= 3 - 3 * v["theta"]
    and 3 * t >= 2 * s
    and max(v["tau"], (31 * v["theta"] - 15) / 3) <= s <= min(3 / 7, 4 - 7 * v["theta"]),
}


def test_structural_oracle():
    rng = random.Random(23)
    thetas = [0.505, 0.51, 0.52, 0.53, 0.545]
    n_checked = 0
    for _ in range(10_000):
        name = rng.choice(list(LITERAL))
        th = rng.choice(thetas)
        vals = theta_only(th).values()
        s, t = rng.uniform(0, 0.7), rng.uniform(0, 0.7)
        got = contains(CAT.region(name), [s, t], vals, CAT)
        want = LITERAL[name](s, t, vals)
        assert got == want, (name, th, s, t)
        n_checked += 1
    assert n_checked == 10_000


def test_u235_literal():
    vals = theta_only(0.52).values()
    kap = vals["kappa"]
    rng = random.Random(6)
    reg = CAT.region("U235")
    for _ in range(2000):
        t = sorted((rng.uniform(0.1, 0.35) for _ in range(3)), reverse=True)
        got = contains(reg, t, vals, CAT)
        want = (
            kap < t[2] < t[1] < t[0]
            and t[0] + t[1] + t[2] > 0.5
            and 2 * t[0] + 2 * t[1] + t[2] < 1
        )
        assert got == want


# ---------------------------------------------------------------------------
# splits: the box walker's bipartition search, through contains
# ---------------------------------------------------------------------------


def brute_partition(entries, region, vals):
    """Independent oracle: explicit recursion over bipartitions."""
    k = len(entries)
    total = sum(entries)
    for mask in range(1 << k):
        s = sum(entries[i] for i in range(k) if mask >> i & 1)
        if contains(region, [s, total - s], vals, CAT):
            return True
    return False


def test_partition_examples():
    vals = theta_only(0.52).values()
    assert contains(CAT.region("V_nofloor"), (0.45, 0.30), vals, CAT)  # splits(Tstar3)
    cat = loads(dumps(CAT) + "\nregion G1split dim=any\n  where splits(g1)\nend\n")
    vals51 = theta_only(0.51).values()
    assert not contains(cat.region("G1split"), (0.5,), vals51, cat)


def test_partition_against_brute_oracle():
    rng = random.Random(91)
    reg, target = CAT.region("GG"), CAT.region("gunion")  # GG is splits(gunion)
    for _ in range(400):
        k = rng.randint(1, 5)
        entries = [rng.uniform(0.05, 0.3) for _ in range(k)]
        if sum(entries) > 1:
            continue
        vals = theta_only(rng.choice([0.51, 0.53])).values()
        alpha = tuple(sorted(entries, reverse=True))
        got = contains(reg, alpha, vals, CAT)
        want = brute_partition(list(alpha), target, vals)
        assert got == want


def test_partition_permutation_invariant():
    rng = random.Random(2)
    vals = theta_only(0.52).values()
    reg = CAT.region("S_fam")  # splits(S)
    for _ in range(100):
        entries = [rng.uniform(0.05, 0.3) for _ in range(4)]
        if sum(entries) > 1:
            continue
        base = contains(reg, tuple(entries), vals, CAT)
        rng.shuffle(entries)
        assert contains(reg, tuple(entries), vals, CAT) == base


# ---------------------------------------------------------------------------
# interval unions
# ---------------------------------------------------------------------------


def piece(lo, hi, lo_open=True, hi_open=True):
    return IntervalPiece(aff(str(lo)), aff(str(hi)), lo_open, hi_open)


def test_merge_overlapping():
    u = IntervalUnion([piece(0, "1/10"), piece("1/20", "1/5")])
    merged = merge_numeric(u.evaluated({}))
    assert len(merged) == 1
    assert merged[0].lo == 0.0 and merged[0].hi == pytest.approx(0.2)


def test_open_touching_does_not_merge():
    u = IntervalUnion([piece(0, "1/10"), piece("1/10", "1/5")])
    merged = merge_numeric(u.evaluated({}))
    assert len(merged) == 2


def test_closed_touching_merges():
    u = IntervalUnion([piece(0, "1/10", hi_open=False), piece("1/10", "1/5")])
    merged = merge_numeric(u.evaluated({}))
    assert len(merged) == 1


def test_merge_union_example():
    # Three ranges at (theta1, theta2) = (0.36, 0.141) collapse to one piece.
    u = IntervalUnion(
        [
            piece("2*theta1 + 2*theta2 - 1", "(5 - 8*theta1 - 8*theta2)/6"),
            piece("theta2", "(2 - 2*theta1 - 3*theta2)/6"),
            piece("0", "(4 - 7*theta1 - 8*theta2)/6"),
        ]
    )
    vals = {"theta1": 0.36, "theta2": 0.141}
    merged = merge_numeric(u.evaluated(vals))
    assert len(merged) == 1
    assert merged[0].lo == pytest.approx(0.0, abs=1e-15)
    assert merged[0].hi == pytest.approx((5 - 8 * 0.36 - 8 * 0.141) / 6, abs=1e-15)
    # membership at x = theta2 respects the merged union
    assert interval_contains(merged, 0.141)


def test_interval_contains_endpoints():
    pieces = [NumericPiece(0.0, 0.1, True, True)]
    assert interval_contains(pieces, 0.05)
    assert not interval_contains(pieces, 0.1)
    closed = [NumericPiece(0.0, 0.1, False, False)]
    assert interval_contains(closed, 0.1)


def test_merge_idempotent_and_order_free():
    rng = random.Random(77)
    for _ in range(300):
        pieces = [
            NumericPiece(
                lo := rng.uniform(0, 1),
                lo + rng.uniform(-0.05, 0.3),
                rng.random() < 0.5,
                rng.random() < 0.5,
            )
            for _ in range(rng.randint(1, 6))
        ]
        merged = merge_numeric(pieces)
        assert merge_numeric(merged) == merged
        rng.shuffle(pieces)
        assert merge_numeric(pieces) == merged


def test_merge_matches_pointwise_or():
    rng = random.Random(13)
    for _ in range(30):
        pieces = [
            NumericPiece(lo := rng.uniform(0, 1), lo + rng.uniform(0, 0.3))
            for _ in range(4)
        ]
        merged = merge_numeric(pieces)
        for x in np.linspace(-0.1, 1.5, 1000):
            direct = any(interval_contains([p], x) for p in pieces)
            assert interval_contains(merged, float(x)) == direct


def test_merge_measure_monotone():
    rng = random.Random(41)

    def measure(pieces):
        return sum(p.hi - p.lo for p in merge_numeric(pieces))

    for _ in range(200):
        pieces = [
            NumericPiece(lo := rng.uniform(0, 1), lo + rng.uniform(0, 0.3))
            for _ in range(4)
        ]
        base = measure(pieces)
        i = rng.randrange(len(pieces))
        grown = list(pieces)
        grown[i] = NumericPiece(pieces[i].lo, pieces[i].hi + rng.uniform(0, 0.2))
        assert measure(grown) >= base - 1e-12


# Pieces with half-integer endpoints in [0, 4], so ends meet and coincide
# often, each end open or closed.
_numeric_pieces = st.lists(
    st.builds(lambda a, b, lo_open, hi_open: NumericPiece(a / 2, b / 2, lo_open, hi_open),
              st.integers(0, 8), st.integers(0, 8), st.booleans(), st.booleans()),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(_numeric_pieces)
def test_merge_numeric_properties(pieces):
    merged = merge_numeric(pieces)
    assert merged == sorted(merged, key=lambda p: (p.lo, p.hi))
    assert merge_numeric(merged) == merged
    for p, q in zip(merged, merged[1:]):
        # no neighbours could be joined: a gap, or a shared end open on both sides
        assert p.hi < q.lo or (p.hi == q.lo and p.hi_open and q.lo_open)
    for x in [i / 4 for i in range(-1, 18)]:  # every endpoint and midpoint
        assert interval_contains(merged, x) == any(interval_contains([p], x) for p in pieces)


def _climb_to_fixpoint(start, merged):
    """The starting-point lift as a loop to a fixpoint, the reference for _climb."""
    k = start
    moved = True
    while moved:
        moved = False
        for p in merged:
            lo_ok = k > p.lo if p.lo_open else k >= p.lo
            if lo_ok and k < p.hi:
                k = p.hi
                moved = True
    return k


@settings(max_examples=300, deadline=None)
@given(_numeric_pieces, st.integers(-1, 17))
def test_climb_is_one_pass_over_merged_pieces(pieces, quarter):
    # starts on every endpoint, midpoint and beyond; touching ends are common
    merged = merge_numeric(pieces)
    assert _climb(quarter / 4, merged) == _climb_to_fixpoint(quarter / 4, merged)


# ---------------------------------------------------------------------------
# catalog round-trip and box pruning soundness
# ---------------------------------------------------------------------------


def test_catalog_roundtrip_lossless():
    text = dumps(CAT)
    again = loads(text)
    assert again.regions == CAT.regions
    assert again.ranges == CAT.ranges
    assert again.integrals == CAT.integrals
    assert again.groups == CAT.groups


# Random catalogs in the form loads builds: and/or nodes have at least two
# children, none of their own kind (the parser merges those), every
# region, range and integral names regions of the catalog, and no group
# lists a region twice.
_NAMES = ("R0", "R1", "R2")
_COEFS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
_PARAM_FORMS = st.builds(AffineForm.make, _COEFS,
                         st.dictionaries(st.sampled_from(PARAM_NAMES), _COEFS, max_size=2))
_FORMS = st.builds(AffineForm.make, _COEFS,
                   st.dictionaries(st.sampled_from(PARAM_NAMES), _COEFS, max_size=2),
                   st.dictionaries(st.integers(1, 6), _COEFS, max_size=3),
                   st.dictionaries(st.sampled_from(SPECIALS), _COEFS, max_size=1))
_ATOMS = st.one_of(
    st.builds(Comparison, _FORMS, st.sampled_from(["<", "<=", ">", ">="]), _FORMS),
    st.builds(Membership, st.sampled_from(_NAMES),
              st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
                       max_size=3).map(tuple)),
    st.builds(Splits, st.sampled_from(_NAMES)),
    st.just(Descending()),
).map(lambda atom: BoolNode("atom", atom=atom))
_BOOL_LEAVES = _ATOMS | st.booleans().map(lambda v: BoolNode("const", value=v))


def _junction(op, children):
    """and/or over children, those of the same kind merged in, as parsed."""
    flat = []
    for c in children:
        flat += c.children if c.op == op else (c,)
    return BoolNode(op, tuple(flat))


def _junctions(kids):
    pairs = st.lists(kids, min_size=2, max_size=3)
    return (st.builds(_junction, st.sampled_from(["and", "or"]), pairs)
            | kids.map(lambda c: BoolNode("not", (c,))))


@st.composite
def _catalogs(draw):
    regions = {}
    for name in _NAMES:
        dim = draw(st.none() | st.integers(1, 6))
        idx = st.integers(1, dim or 6)
        bounds = draw(st.dictionaries(idx, st.tuples(_PARAM_FORMS, _PARAM_FORMS), max_size=3))
        tree = draw(st.recursive(_BOOL_LEAVES, _junctions, max_leaves=6))
        regions[name] = RegionSpec(name, dim, tree, bounds)
    pieces = st.builds(IntervalPiece, _PARAM_FORMS, _PARAM_FORMS, st.booleans(), st.booleans(),
                       st.sampled_from(["u1", "u2"]))
    ranges = draw(st.dictionaries(st.sampled_from(_NAMES + ("theta_mode",)),
                                  st.lists(pieces, max_size=3).map(IntervalUnion), max_size=2))
    integrals = {}
    for i in range(draw(st.integers(0, 2))):
        integrals[f"J{i}"] = IntegralDef(
            f"J{i}", draw(st.integers(1, 6)), draw(st.sampled_from(_NAMES)),
            draw(st.sampled_from(["one", "reciprocal", "buchstab"])),
            draw(st.builds(Fraction, st.integers(0, 40), st.integers(1, 7))), draw(st.booleans()))
    groups = draw(st.dictionaries(st.sampled_from(["ga", "gb"]),
                                  st.lists(st.sampled_from(_NAMES), max_size=3, unique=True),
                                  max_size=2))
    return Catalog(regions, ranges, integrals, groups)


@settings(max_examples=60, deadline=None)
@given(_catalogs())
def test_generated_catalog_roundtrip(cat):
    assert loads(dumps(cat)) == cat


def test_env_catalog_parsed_once_per_version(tmp_path, monkeypatch):
    path = tmp_path / "cat.txt"
    path.write_text(dumps(CAT))
    monkeypatch.setenv("SIEVELAB_CATALOG", str(path))
    first = default_catalog()
    assert default_catalog() is first  # reused while the file is unchanged
    # a rewrite within one modification-time tick is seen by its size
    stat = path.stat()
    path.write_text(dumps(CAT) + "group extra: g1\n")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    again = default_catalog()
    assert again is not first and again.groups["extra"] == ["g1"]


def _outcome(test, *args):
    """What a box test gives: its verdict, or the message of its RegionError."""
    try:
        return "returns", test(*args)
    except RegionError as e:
        return "raises", str(e)


def test_box_tests_agree_on_missing_parameters():
    # Without parameters, the float box test and the exact one stop at the
    # same atom: both raise RegionError naming the same parameter, or both
    # return a verdict.
    raised = 0
    for name, spec in CAT.regions.items():
        k = spec.dimension or 3
        lo, hi = [0.0] * k, [0.5] * k
        fast = _outcome(definitely, spec, lo, hi, {}, CAT)
        exact = _outcome(lambda: BoxTest(spec, k, {}, CAT)(lo, hi))
        assert fast[0] == exact[0], name
        if fast[0] == "raises":
            assert fast == exact, name
            raised += 1
    assert raised  # the catalog has regions that read a parameter


def test_definitely_rejects_boxes_beyond_the_region_dimension():
    vals = theta_only(0.52).values()
    box = np.zeros(3), np.full(3, 0.1)
    for name in ("simplex2", "U233"):
        assert CAT.region(name).dimension == 2
        with pytest.raises(RegionError, match="dimension 2, got 3"):
            definitely(CAT.region(name), *box, vals, CAT)


_HELPERS = """
region P dim=2
  where t1 > 3/4 and t2 > 3/4
end
region Q dim=2
  where t1 > t2 + 1 and t2 > 0
end
region Qh dim=2
  where (t1 + 1/2 > t2 + 1 and t2 > 0) or (t1 > t2 + 1/2 + 1 and t2 + 1/2 > 0)
end
region W dim=2
  where t1 > 1 and t2 > t1
end
"""


@pytest.mark.parametrize("where, lo, hi, empty", [
    ("t1 < t2 and t2 < t1", [0, 0], [1, 1], True),  # only strictness closes it
    ("t1 <= t2 and t2 <= t1", [0, 0], [1, 1], False),  # the diagonal
    ("descending and t1 <= t2", [0, 0], [1, 1], True),
    ("tmin >= 1/2 and t1 + t2 < 1", [0, 0], [1, 1], True),
    ("tmin >= 1/2 and t1 + t2 <= 1", [0, 0], [1, 1], False),  # the point (1/2, 1/2)
    ("tmax <= 1/3 and tsum > 1", [0, 0, 0], [1, 1, 1], True),
    ("tmin < 1/4 and t1 + t2 > 3/2", [0, 0], [1, 1], True),  # empty within the box only
    ("tmin < 1/4 and t1 + t2 > 3/2", [0, 0], [2, 2], False),
    ("splits(P) and t1 + t2 < 3/2", [0, 0], [1, 1], True),  # one branch per bipartition
    ("splits(P) and t1 + t2 < 15/8", [0, 0], [1, 1], False),
    # Q with 1/2 joining the coordinates: 1/2 on one side or the other
    ("splits(Qh) and t1 < 3/2", [-2], [2], True),
    ("splits(Qh) and t1 <= 2", [-2], [2], False),
    ("in(W; t1+t2, t3)", [0, 0, 0], [1, 1, 1], True),
    ("in(W; t1+t2, t3)", [0, 0, 0], [1, 1, 2], False),
])
def test_certify_empty_decides_exactly(where, lo, hi, empty):
    cat = loads(_HELPERS + f"region A dim={len(lo)}\n  where {where}\nend\n")
    region = cat.region("A")
    test = BoxTest(region, len(lo), {}, cat)
    assert (test(lo, hi) is False) == empty
    assert all(c.holds() for c in test.certificates)
    if not empty:  # the region does hold a point: a rational one, on the box's grid
        grid = np.linspace(lo, hi, 9)
        assert any(contains(region, x, {}, cat)
                   for x in itertools.product(*grid.T.tolist()))


_TIES = """
region lt dim=1
  where t1 < 1/2
end
region le dim=1
  where t1 <= 1/2
end
region desc dim=2
  where descending
end
"""


@pytest.mark.parametrize("name, lo, hi, verdict", [
    ("lt", [0.25], [0.5], None),
    ("lt", [0.5], [0.75], False),
    ("lt", [0.5], [0.5], False),
    ("le", [0.25], [0.5], True),
    ("le", [0.5], [0.75], None),
    ("le", [0.5], [0.5], True),
    ("desc", [0.25, 0.5], [0.5, 0.75], False),
    ("desc", [0.5, 0.25], [0.75, 0.5], None),
])
def test_definitely_at_ties(name, lo, hi, verdict):
    # a box that touches a bound is decided by the relation's strictness
    cat = loads(_TIES)
    assert definitely(cat.region(name), np.array(lo), np.array(hi), {}, cat) is verdict


def test_certify_empty_at_ties():
    cat = loads(_TIES)
    lt, le = BoxTest(cat.region("lt"), 1, {}, cat), BoxTest(cat.region("le"), 1, {}, cat)
    assert lt([0.5], [0.75]) is False and lt.certificates == []  # no certificate needed
    assert le([0.5], [0.75]) is None


class _FractionRows(BoxTest):
    """The exact box test with each row built in Fraction from the catalog's
    forms and the parameters' Fractions, then made an integer row in lowest
    terms: the oracle of the integer rows."""

    def row(self, bound, c, sub):
        key = (bound.prog, c, sub)
        if key not in self.rows:
            (lhs, rhs), rel = bound.prog.forms[c], bound.prog.columns[c][0]
            form, vec = lhs - rhs, self.fractions(sub)
            lin = (Fraction(0),) * self.k + (self.at(form.const, form.params),)
            for i, w in form.vars:
                lin = tuple(x + w * y for x, y in zip(lin, vec[i - 1]))
            if rel in (">", ">="):  # as rhs - lhs < 0, or <= 0
                lin = tuple(-x for x in lin)
            den = math.lcm(*(x.denominator for x in lin))
            *a, c0 = (x.numerator * (den // x.denominator) for x in lin)
            strict, g = rel in ("<", ">"), math.gcd(*a)
            if not g:
                self.rows[key] = 0 < -c0 if strict else 0 <= -c0
            else:
                g = math.gcd(g, c0)
                self.rows[key] = tuple(x // g for x in a), -c0 // g, strict
        return self.rows[key]

    def at(self, const, params):
        return const + sum(w * Fraction(self.params[name]) for name, w in params)

    def fractions(self, sub):
        """The variables reached through sub as Fraction forms in the box's
        coordinates, k coefficients then a constant."""
        zero = (Fraction(0),) * (self.k + 1)
        if sub is None:
            return [zero[:i] + (Fraction(1),) + zero[i + 1 :] for i in range(self.k)]
        kind, part, parent = sub
        parent = self.fractions(parent)
        if kind == "in":
            return [tuple(map(sum, zip(zero, *(parent[i] for i in g)))) for g in part]
        return [tuple(map(sum, zip(zero, *(v for i, v in enumerate(parent)
                                           if (part >> i & 1) == side)))) for side in (1, 0)]


# (region, dimension, parameters): the named integrals' regions, on their
# sampling boxes, and Uprime and Udprime, whose splits targets are S shifted
# by a parameter value and which no named integral reaches, on [0, 1/4]^k
_EXACT_CASES = [
    (CAT.integrals[n].region, CAT.integrals[n].dim, "pair" if n in ("I5", "I6") else "theta")
    for n in ("I1", "I2", "I3", "I4", "I5", "I6", "U233", "U234", "S235", "S236", "S237")
] + [("Uprime", k, "theta") for k in (2, 3, 4)] + [("Udprime", k, "pair") for k in (3, 4)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_EXACT_CASES), st.floats(0.52, 4 / 7, exclude_max=True),
       st.floats(0.29, 0.34), st.sampled_from([0.0, 1e-3, 2.0**-20]), st.data())
def test_integer_rows_match_fraction_rows(case, theta, theta1, eps, data):
    name, k, kind = case
    params = (ThetaParams(theta, eps=eps) if kind == "theta"
              else ThetaParams(theta1, theta - theta1, eps=eps))
    region, vals = CAT.region(name), params.values()
    lo, hi = region.box(vals, k) if region.bounds else (np.zeros(k), np.full(k, 0.25))
    if (hi <= lo).any():
        return
    test, oracle = BoxTest(region, k, vals, CAT), _FractionRows(region, k, vals, CAT)
    for _ in range(3):  # a dyadic sub-box of the box, the box itself among them
        cells = [data.draw(st.integers(0, 4)) for _ in range(k)]
        at = [data.draw(st.integers(0, 2**n - 1)) for n in cells]
        a = (lo + (hi - lo) * np.array(at) / 2.0 ** np.array(cells)).tolist()
        b = (lo + (hi - lo) * (np.array(at) + 1) / 2.0 ** np.array(cells)).tolist()
        assert test.residual(a, b) == oracle.residual(a, b)
    assert test.rows == oracle.rows


# Eight rows (a, b, strict) for a . t < b, or <=, whose first, second and
# sixth sum to 0 < 0, and the box rows of [0, 1] x [-1, 1].  Fourier-Motzkin
# elimination with dominance pruning and Chernikov's rule misses the
# contradiction once the box rows come first.
_MISSED = [((-8, -14), -5, True), ((2, 9), 2, True), ((5, 0), 2, False),
           ((-44, 0), -17, True), ((5, 0), 2, False), ((6, 5), 3, True),
           ((-44, 0), -17, True), ((-19, -20), -10, True)]
_BOX_ROWS = [((-1, 0), 0, False), ((1, 0), 1, False), ((0, -1), 1, False), ((0, 1), 1, False)]


def _certificate(rows, y):
    return Certificate(tuple(rows[i] for i in sorted(y)), tuple(y[i] for i in sorted(y)))


def test_farkas_refutes_the_rows_alone():
    y = _farkas(_MISSED)
    assert y == {0: 1, 1: 1, 5: 1}
    assert _certificate(_MISSED, y).holds()


def test_farkas_refutes_after_box_rows():
    assert _farkas(_BOX_ROWS + _MISSED) is not None


@st.composite
def _systems(draw):
    """Rows (a, b, strict) in 1-6 variables: 1-14 rows with entries in
    [-9, 9], some repeated, with or without the rows of the unit box."""
    k = draw(st.integers(1, 6))
    entry = st.integers(-9, 9)
    row = st.tuples(st.tuples(*[entry] * k), entry, st.booleans())
    rows = draw(st.lists(row, min_size=1, max_size=14))
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    if draw(st.booleans()):
        units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        rows = [r for u in units for r in ((tuple(-x for x in u), 0, False), (u, 1, False))] + rows
    return k, rows


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_farkas_finds_every_refutation(system):
    # the rows have no common real solution exactly when max s subject to
    # a . x + s <= b on the strict rows, a . x <= b on the others and
    # s <= 1 is at most 0 (or has no feasible point), by HiGHS
    k, rows = system
    lp = linprog([0] * k + [-1], A_ub=[[*a, int(s)] for a, _, s in rows] + [[0] * k + [1]],
                 b_ub=[b for _, b, _ in rows] + [1], bounds=[(None, None)] * (k + 1),
                 method="highs")
    assert lp.status in (0, 2)
    empty = lp.status == 2 or -lp.fun <= 1e-9
    y = _farkas(rows)
    assert (y is not None and _certificate(rows, y).holds()) == empty


# Pairs of parameter-plane leaves that share no point, each refuted in one
# exact box test on [0, 1] x [-1, 1]
_DISJOINT_LEAVES = [("A0102", "A0104"), ("A0601", "A14"), ("E0202", "E0207"),
                    ("E0202", "E0210"), ("E0203", "E0208"), ("E0902", "E0904"),
                    ("E0902", "E1002"), ("E0903", "E1002")]


def test_disjoint_leaves_are_refuted():
    cat = loads(dumps(CAT) + "".join(f"region Q{i} dim=2\n  where in({x}) and in({y})\nend\n"
                                     for i, (x, y) in enumerate(_DISJOINT_LEAVES)))
    for i in range(len(_DISJOINT_LEAVES)):
        test = BoxTest(cat.region(f"Q{i}"), 2, {}, cat)
        assert test([0.0, -1.0], [1.0, 1.0]) is False
        assert test.certificates and all(c.holds() for c in test.certificates)


def test_definitely_agrees_with_sampling():
    rng = random.Random(55)
    vals = theta_only(0.52).values()
    names = ["S", "g3", "U235", "D5", "U233", "G"]
    for _ in range(300):
        name = rng.choice(names)
        reg = CAT.region(name)
        dim = reg.dimension if reg.dimension else 2
        lo = np.array([rng.uniform(0, 0.4) for _ in range(dim)])
        hi = lo + np.array([rng.uniform(0.01, 0.2) for _ in range(dim)])
        verdict = definitely(reg, lo, hi, vals, CAT)
        if verdict is None:
            continue
        pts = lo + np.random.default_rng(1).random((256, dim)) * (hi - lo)
        got = reg.eval(pts, vals, CAT)
        assert got.all() == verdict or (not got.any()) == (not verdict)
        if verdict:
            assert got.all()
        else:
            assert not got.any()


# ---------------------------------------------------------------------------
# catalog parser: a pin of the packaged catalog, error paths and an oracle
# ---------------------------------------------------------------------------

# sha256 of dumps(default_catalog()), recorded before the one-pass parser
# and again when Sprime and Sdprime were added and Uprime and Udprime
# restated through them; every other record dumps as before
CATALOG_SHA256 = "0318f3e4d1618b047ed01526131e745692edc3465d8b0861a39aedc90c0bb2f6"


def test_packaged_catalog_pinned():
    assert hashlib.sha256(dumps(default_catalog()).encode()).hexdigest() == CATALOG_SHA256
    assert loads(dumps(CAT)) == CAT


def test_parenthesis_parsed_once(monkeypatch):
    # the token after the matching ")" tells a comparison chain from a
    # boolean parenthesis, so no chain is tried and abandoned
    parse_chain, failed = catalog._Parser._parse_chain, [0]

    def counting(self):
        try:
            return parse_chain(self)
        except RegionError:
            failed[0] += 1
            raise

    monkeypatch.setattr(catalog._Parser, "_parse_chain", counting)
    packaged = resources.files("sievelab.data").joinpath("catalog.txt").read_text()
    assert loads(packaged) == loads(dumps(CAT)) == CAT
    assert failed[0] == 0
    assert parse_bool_expr("((t1 + t2) < 1 and (t1) - t2 > 0) or not (t2 >= 1)") == \
        parse_bool_expr("t1 + t2 < 1 and t1 - t2 > 0 or not t2 >= 1")


@pytest.mark.parametrize("text, match", [
    ("t1*t2", "nonlinear"),
    ("(1 + theta)*(2 - t1)", "nonlinear"),
    ("t1/0", "nonzero constant"),
    ("t1/(t2 - t2)", "nonzero constant"),
    ("1/t1", "nonzero constant"),
    ("2/theta", "nonzero constant"),
    ("1 + foo", "unknown symbol"),
    ("t1 + 1 2", "trailing tokens"),
    ("t1 + (2", "unexpected end"),
    ("t1 $ 2", "cannot tokenize"),
    ("1. + t1", "cannot tokenize"),
    ("t0 + 1", "t0"),
    ("-t00", "t0"),
])
def test_affine_parse_errors(text, match):
    with pytest.raises(RegionError, match=match):
        parse_affine_expr(text)


@pytest.mark.parametrize("text", ["t1 < 1 t2", "t1 <", "t1 + 2", "(t1 < 1", "in(g1; t0, t1)",
                                  "in(g1; t1 + t0)", "splits(g1; append=t1*t2)"])
def test_bool_parse_errors(text):
    with pytest.raises(RegionError):
        parse_bool_expr(text)


# A where clause that uses up the spans the clauses below begin with.
SHARED_SPANS = ("region P dim=2\n"
                "  where t1 + 1 < 2 and t1 < 1 and t2 + (2) > 1 and t1 + 2 > 0\nend\n")


@pytest.mark.parametrize("text", ["t1 < 1 t2", "t1 <", "t1 + 2", "(t1 < 1", "t1 + (2",
                                  "t1 + (2 < 1", "t1 + 1 2 < 1", "t1 + 1 < 2 t2",
                                  "t2 + (2) t1 > 1"])
def test_memoised_spans_fail_as_a_fresh_parse(text):
    with pytest.raises(RegionError) as fresh:
        parse_bool_expr(text)
    with pytest.raises(RegionError) as loaded:
        loads(SHARED_SPANS + f"region B dim=2\n  where {text}\nend\n")
    assert str(loaded.value) == str(fresh.value)


def test_each_distinct_expression_parsed_once_per_catalog():
    cat = loads(SHARED_SPANS + "region B dim=2\n  bound t1 = [0, t1 + 1]\n"
                "  where t1 + 1 < 2 and t2 > 0\nend\n")
    first = cat.regions["P"].tree.children[0].atom.lhs
    assert cat.regions["B"].tree.children[0].atom.lhs is first
    assert cat.regions["B"].bounds[1][1] is first
    assert cat == loads(dumps(cat))


REGION_A = "region A dim=2\n  where t1 < 1/2\nend\n"


@pytest.mark.parametrize("text, match", [
    ("region A\n  where t1 < 1\nend\n", "bad region header"),
    ("region A dim=two\n  where t1 < 1\nend\n", "bad region header"),
    ("region A dim=2\n  bound t1 = 0, 1\n  where t1 < 1\nend\n", "bad bound line"),
    ("region A dim=2\n  bound t0 = [0, 1]\n  where t1 < 1\nend\n", "t0"),
    ("region A dim=2\n  bound t3 = [0, 1]\n  where t1 < 1\nend\n", "bound t3 out of range"),
    ("region A dim=2\n  where t0 < 1/2\nend\n", "t0"),
    ("region A dim=2\n  where in(B; t0, t1)\nend\n", "t0"),
    ("region A dim=2\nend\n", "no where clause"),
    ("region A dim=2\n  bogus\n  where t1 < 1\nend\n", "unexpected line"),
    (REGION_A + "ranges A\n  piece 0, 1 src=x\nend\n", "bad piece line"),
    (REGION_A + "ranges A\n  piece (0, 1)\nend\n", "bad piece line"),
    (REGION_A + "ranges A extra junk\n  piece (0, 1) src=x\nend\n", "bad ranges header"),
    (REGION_A + "integral I dim=2 region=A weight=one\n", "bad integral line"),
    (REGION_A + "integral I dim=2 region=A weight=one mult=x\n", "bad integral line"),
    (REGION_A + "integral I dim=2 region=A weight=bogus mult=1\n", "bad integral line"),
    (REGION_A + "integral I dim=2 region=A weight=one mult=1/0\n", "bad integral line"),
    (REGION_A + "group G A\n", "bad group line"),
    # a second bound on one variable, and a region listed twice in a group
    ("region A dim=2\n  bound t1 = [0, 1]\n  bound t1 = [0, 1/2]\n  where t1 < 1\nend\n",
     "^region A bounds t1 twice$"),
    (REGION_A + "group G: A A\n", "^group G lists region 'A' twice$"),
    ("region A dim=2\n  where t1 < 1/2\n", "record 'region A dim=2' has no end"),
    (REGION_A + "ranges A\n  piece (0, 1) src=x\n", "record 'ranges A' has no end"),
    (REGION_A + "regions B dim=2\n", "unrecognised catalog line"),
    # the dangling references `Catalog.validate` rejects, each message whole
    (REGION_A + "region B dim=2\n  where in(A) or in(C)\nend\n",
     "^region B references unknown 'C'$"),
    (REGION_A + "ranges C\n  piece (0, 1) src=x\nend\n", "^ranges record for unknown region 'C'$"),
    (REGION_A + "integral I dim=2 region=C weight=one mult=1\n",
     "^integral I references unknown 'C'$"),
    (REGION_A + "group G: A C\n", "^group G lists unknown region 'C'$"),
])
def test_catalog_parse_errors(text, match):
    with pytest.raises(RegionError, match=match):
        loads(text)


@pytest.mark.parametrize("record, kind, name", [
    ("", "region", "A"),
    ("ranges A\n  piece (0, 1) src=x\nend\n", "ranges", "A"),
    ("integral I dim=2 region=A weight=one mult=1\n", "integral", "I"),
    ("group G: A\n", "group", "G"),
])
def test_catalog_duplicate_names_rejected(record, kind, name):
    once = REGION_A + record
    loads(once)
    with pytest.raises(RegionError, match=f"duplicate {kind} '{name}'"):
        loads(once + (record or REGION_A))


def test_dangling_reference_named_in_written_order():
    # the first unknown name as written, whatever the process's string hashes
    text = "region T dim=2\n  where in(Zed) and in(Alpha)\nend\n"
    code = "import sys, sievelab.catalog as c; c.loads(sys.argv[1])"
    src = os.path.dirname(os.path.dirname(catalog.__file__))
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code, text], capture_output=True, text=True,
                             env=env, timeout=60)
        assert "region T references unknown 'Zed'" in out.stderr, (seed, out.stderr)


def test_bound_beyond_dimension_only_in_generic_regions():
    # a dimension-generic region may bound any coordinate; under a numeric
    # dim a bound past it is an error (test_catalog_parse_errors)
    cat = loads("region A dim=any\n  bound t5 = [0, 1]\n  where t1 < 1\nend\n")
    assert sorted(cat.region("A").bounds) == [5]


def test_t1_is_the_first_coordinate():
    # t0 used to be accepted and read the last coordinate
    cat = loads(REGION_A)
    pts = np.array([[0.1, 0.9], [0.9, 0.1]])
    assert cat.region("A").eval(pts, {}, cat).tolist() == [True, False]


# Random affine expression trees: a leaf is (text, form) with the form built
# by AffineForm.make; inner nodes are ("neg", x), ("paren", x) and
# ("bin", op, left, right).
_VARS = [f"t{i}" for i in range(1, 10)]


def _symbol_form(name):
    if name in PARAM_NAMES:
        return AffineForm.make(params={name: 1})
    if name in SPECIALS:
        return AffineForm.make(specials={name: 1})
    return AffineForm.make(vars={int(name[1:]): 1})


_LEAVES = st.one_of(
    st.sampled_from(list(PARAM_NAMES) + _VARS + list(SPECIALS)).map(
        lambda s: ("leaf", s, _symbol_form(s))
    ),
    st.integers(0, 60).map(lambda n: ("leaf", str(n), AffineForm.make(const=n))),
    st.builds(lambda whole, cents: ("leaf", f"{whole}.{cents:02d}",
                                    AffineForm.make(const=Fraction(100 * whole + cents, 100))),
              st.integers(0, 9), st.integers(0, 99)),
)


def _extend(kids):
    binary = st.tuples(st.just("bin"), st.sampled_from("+-*/"), kids, kids)
    return st.one_of(binary, binary.map(lambda x: ("neg", x)), binary.map(lambda x: ("paren", x)),
                     kids.map(lambda x: ("neg", x)))


_TREES = st.recursive(_LEAVES, _extend, max_leaves=12)
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _render(node):
    """Text with the fewest parentheses that keep the tree's grouping."""
    kind = node[0]
    if kind == "leaf":
        return node[1]
    if kind == "paren":
        return f"({_render(node[1])})"
    if kind == "neg":
        inner = _render(node[1])
        return f"-({inner})" if node[1][0] == "bin" else f"-{inner}"
    _, op, left, right = node
    lt, rt = _render(left), _render(right)
    if left[0] == "bin" and _PREC[left[1]] < _PREC[op]:
        lt = f"({lt})"
    if right[0] == "bin" and _PREC[right[1]] <= _PREC[op]:
        rt = f"({rt})"
    return f"{lt} {op} {rt}"


def _reference(node):
    """The tree's form by AffineForm algebra, or None where it is not affine."""
    kind = node[0]
    if kind == "leaf":
        return node[2]
    if kind in ("paren", "neg"):
        inner = _reference(node[1])
        return inner if kind == "paren" or inner is None else -inner
    _, op, left, right = node
    a, b = _reference(left), _reference(right)
    if a is None or b is None:
        return None

    def const(f):
        return not (f.params or f.vars or f.specials)

    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        if const(b):
            return a.scale(b.const)
        return b.scale(a.const) if const(a) else None
    return a.scale(1 / b.const) if const(b) and b.const != 0 else None


@settings(max_examples=400, deadline=None)
@given(_TREES)
def test_affine_parse_matches_form_algebra(tree):
    text, want = _render(tree), _reference(tree)
    if want is None:
        with pytest.raises(RegionError):
            parse_affine_expr(text)
    else:
        assert parse_affine_expr(text) == want
