"""Properties of the compiled region programs: the subset-sum and row
helpers, the sorting network, batch invariance of point evaluation,
soundness and monotonicity of the box test, and the compiled form of
tsum, tmin, tmax and descending."""

import functools
import itertools
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sievelab.catalog import default_catalog, loads
from sievelab.exact import BoxTest
from sievelab.params import ThetaParams, classify
from sievelab.quadrature import _descending, rowwise
from sievelab.regions import (
    MAX_SPLIT,
    AffineForm,
    BoolNode,
    Comparison,
    RegionError,
    RegionSpec,
    _fold,
    _negate,
    contains,
    definitely,
    subset_sums,
)

CAT = default_catalog()

# region -> (integral whose box and point it is sampled at, parameter point)
SAMPLED = {
    "D1": ("I1", (0.52,)),
    "D5": ("I5", (0.32, 0.20)),
    "D6": ("I6", (0.32, 0.20)),
    "U233": ("U233", (0.52,)),
    "U234": ("U234", (0.545,)),
    "simplex3": ("cal3", None),
}


def setting(name):
    integral, point = SAMPLED[name]
    spec = CAT.integrals[integral]
    vals = ThetaParams(*point).values() if point else {}
    region = CAT.region(name)
    lo, hi = region.box(vals, spec.dim)
    return spec, region, vals, lo, hi


def draw(rng, spec, lo, hi, n):
    x = lo + rng.random((n, len(lo))) * (hi - lo)
    return -np.sort(-x, axis=1) if spec.sorted else x


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 12), st.integers(0, 7)),
        elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
)
def test_subset_sums_equal_numpy_sums(x):
    # Equal as floats, so bit for bit up to the sign of a zero.  The table
    # is coordinate-major: it takes the (k, n) transpose of the rows.
    n, k = x.shape
    table = subset_sums(x.T)
    assert table.shape == (1 << k, n)
    for mask in range(1 << k):
        sel = [i for i in range(k) if mask >> i & 1]
        want = x[:, sel].sum(axis=1) if sel else np.zeros(n)
        assert (table[mask] == want).all(), (mask, sel)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def left_to_right(columns, n):
    """The sum of each row of the (k, n) columns, added in index order
    from +0.0: numpy adds eight or more terms of a row pairwise."""
    return functools.reduce(np.add, columns, np.zeros(n))


# floats with ties and zeros of both signs
ROW_ELEMENTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5, -2.0]),
                         st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(0, 40)),
              elements=ROW_ELEMENTS))
def test_rowwise_equals_numpy_reductions(x):
    # Each point is a column of the (k, n) x, and every ufunc folds its
    # coordinates in index order.  From 8 coordinates on numpy's sum of a
    # row adds pairwise; its product folds in index order at every width.
    n = x.shape[1]
    for ufunc, want in ((np.add, left_to_right(x, n)), (np.multiply, x.prod(axis=0))):
        got = rowwise(ufunc, x)
        assert got.shape == want.shape and np.array_equal(bits(got), bits(want)), ufunc
    assert np.array_equal(rowwise(np.logical_and, x > 0), (x > 0).all(axis=0))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(0, 40)),
              elements=st.one_of(st.sampled_from([0.0, 0.25, 1.0]),
                                 st.floats(0.0, 1e3, allow_nan=False))))
def test_sorting_network_equals_negated_sort(x):
    # points are the columns of the (k, n) x
    got = _descending(x)
    assert got.flags.c_contiguous
    assert np.array_equal(bits(got), bits(-np.sort(-x, axis=0)))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(SAMPLED)),
    st.integers(0, 2**32 - 1),
    st.integers(1, 300),
    st.data(),
)
def test_batch_invariance(name, seed, n, data):
    spec, region, vals, lo, hi = setting(name)
    x = draw(np.random.default_rng(seed), spec, lo, hi, n)
    split = data.draw(st.integers(0, n))
    whole = region.eval(x, vals, CAT)
    parts = np.concatenate([region.eval(x[:split], vals, CAT), region.eval(x[split:], vals, CAT)])
    assert whole.dtype == bool and np.array_equal(whole, parts)


@pytest.mark.parametrize("name", ["D1", "U234"])
def test_batch_invariance_across_chunks(name):
    spec, region, vals, lo, hi = setting(name)
    x = draw(np.random.default_rng(8), spec, lo, hi, 33_068)
    whole = region.eval(x, vals, CAT)
    rows = np.concatenate([region.eval(x[i : i + 97], vals, CAT) for i in range(0, len(x), 97)])
    assert np.array_equal(whole, rows)


def test_eval_is_float64_in_any_layout():
    # 0.75 + (0.25 - 2**-26) is below 1 in float64 but rounds to 1 in
    # float32, so a float32 evaluation would put this point outside.
    point = np.array([[0.75, 0.25 - 2.0**-26]], dtype=np.float32)
    simplex2 = CAT.region("simplex2")
    assert contains(simplex2, point[0], {}, CAT)
    assert simplex2.eval(point, {}, CAT).tolist() == [True]
    rng = np.random.default_rng(11)
    for name in sorted(SAMPLED):
        spec, region, vals, lo, hi = setting(name)
        x = draw(rng, spec, lo, hi, 601)
        for y in (x, np.asfortranarray(x), x[::2], x.astype(np.float32)):
            want = region.eval(np.array(y, dtype=np.float64, order="C"), vals, CAT)
            assert np.array_equal(region.eval(y, vals, CAT), want), name


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SAMPLED)), st.integers(0, 2**32 - 1))
def test_contains_agrees_with_batch_evaluation(name, seed):
    spec, region, vals, lo, hi = setting(name)
    x = draw(np.random.default_rng(seed), spec, lo, hi, 16)
    got = [contains(region, p, vals, CAT) for p in x]
    assert got == region.eval(x, vals, CAT).tolist()


# the classification regions `typeii` tests a point against with the box
# walker, which must agree bit for bit with batch evaluation
CLASSIFIED = sorted({"Amaster", "Emaster", *CAT.groups["a_catalog"], *CAT.groups["e_catalog"],
                     *CAT.groups["a_leaves"], *CAT.groups["e_leaves"]})
# exponents below 1/2 (so any two make a point) on a grid of 1/64 or 1/128,
# where sums are exact and a point lies on a region boundary often enough
# (at 39 of the 496 points of the 1/64 grid) to tell < from <=, or anywhere
EXPONENT = st.one_of(st.integers(1, 31).map(lambda k: k / 64),
                     st.integers(1, 63).map(lambda k: k / 128), st.floats(0.001, 0.499))


@settings(max_examples=100, deadline=None)
@given(EXPONENT, EXPONENT)
def test_point_walker_agrees_with_batch_walker(a, b):
    t1, t2 = max(a, b), min(a, b)
    vals, point = ThetaParams(t1, t2).values(), [t1, t2]
    row = np.array([point])
    for name in CLASSIFIED:
        region = CAT.region(name)
        want = region.eval(row, vals, CAT).tolist()
        got = [contains(region, p, vals, CAT) for p in (point, tuple(point), row[0])]
        assert got == want * 3, name
    # a group's one walk judges each member as the batch walker does
    for group in ("a_catalog", "e_catalog", "master", "a_leaves", "e_leaves"):
        want = [name for name in CAT.groups[group] if CAT.region(name).eval(row, vals, CAT)[0]]
        assert classify(ThetaParams(t1, t2), group, CAT) == want, group


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_point_walker_rejects_non_finite_points(bad):
    vals = ThetaParams(0.36, 0.141).values()
    for point in ([bad, 0.1], (0.36, bad), np.array([0.36, bad])):
        for name in ("Amaster", "Emaster", CAT.groups["a_leaves"][0]):
            with pytest.raises(RegionError, match="non-finite"):
                contains(CAT.region(name), point, vals, CAT)


def _has_or(tree):
    return tree.op == "or" or any(_has_or(c) for c in tree.children)


# 2-D regions whose programs nest comparison-only and/or clauses, which
# batch evaluation runs under a mask of live rows (in the master regions
# below a junction that has comparisons of its own), and the pure
# conjunction g3
NESTED = ["gunion", "Tstar3", "g3", "S_ext", "B2", "C2", "Amaster", "Emaster", "Jmaster"]
NESTED += sorted(n for n in CAT.groups["a_leaves"] if _has_or(CAT.region(n).tree))
POINTS = [(0.52,), (0.545,), (0.32, 0.20), (0.36, 0.141), (0.30, 0.25)]


@functools.cache
def hit_box(name):
    """The bounding box of the region's hits among 20000 points of [0, 0.7]^2
    at (0.32, 0.20), widened by a fifth and by 0.01 on each side."""
    x = np.random.default_rng(0).random((20000, 2)) * 0.7
    hits = x[CAT.region(name).eval(x, ThetaParams(0.32, 0.20).values(), CAT)]
    lo, hi = hits.min(axis=0), hits.max(axis=0)
    pad = (hi - lo) / 5 + 0.01
    return lo - pad, hi + pad


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(NESTED), st.sampled_from(POINTS), st.integers(0, 2**32 - 1),
       st.integers(1, 300), st.data())
def test_masked_clauses_agree_with_contains(name, point, seed, n, data):
    if name == "S_ext" and len(point) == 1:
        point = (0.32, 0.20)  # S_ext reads theta1 and theta2
    vals, region = ThetaParams(*point).values(), CAT.region(name)
    lo, hi = hit_box(name)
    x = lo + np.random.default_rng(seed).random((n, 2)) * (hi - lo)
    split = data.draw(st.integers(0, n))
    want = [contains(region, p, vals, CAT) for p in x]
    assert region.eval(x, vals, CAT).tolist() == want
    parts = [region.eval(x[:split], vals, CAT), region.eval(x[split:], vals, CAT)]
    assert np.concatenate(parts).tolist() == want


def test_batch_binds_parameters_lazily():
    # S_ext at a one-exponent point has no theta2: its enlarged disjunct
    # reads it, and only rows that in(S) leaves undecided reach that clause
    vals, region = ThetaParams(0.52).values(), CAT.region("S_ext")
    assert "theta2" not in vals
    assert region.eval(np.array([[0.1, 0.1], [0.2, 0.05]]), vals, CAT).tolist() == [True, True]
    for x in ([[0.01, 0.46]], [[0.1, 0.1], [0.01, 0.46]]):
        with pytest.raises(RegionError, match="theta2"):
            region.eval(np.array(x), vals, CAT)


def test_masked_clause_binds_parameters_for_live_rows_only():
    # Row 0 fails t1 < 1/2, so only row 1 is live in the `or`, and t2 < 1/4
    # decides it: the clause reading theta2 must not be bound.
    cat = loads("region A dim=2\n"
                "  where t1 < 1/2 and (t2 < 1/4 or (t2 < 1/2 and t2 < theta2))\nend\n")
    region, vals = cat.region("A"), ThetaParams(0.52).values()
    assert region.eval(np.array([[0.9, 0.3], [0.1, 0.1]]), vals, cat).tolist() == [False, True]
    with pytest.raises(RegionError, match="theta2"):
        region.eval(np.array([[0.9, 0.3], [0.1, 0.3]]), vals, cat)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["D1", "D5", "D6", "U233", "simplex3"]),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
    st.sampled_from([1e-3, 0.05, 0.3, 1.0]),
)
def test_definitely_is_sound(name, seed, corner, width):
    spec, region, vals, lo, hi = setting(name)
    rng = np.random.default_rng(seed)
    a = lo + corner * rng.random(len(lo)) * (hi - lo)
    b = a + width * rng.random(len(lo)) * (hi - a)
    verdict = definitely(region, a, b, vals, CAT)
    if verdict is None:
        return
    inside = region.eval(a + rng.random((512, len(a))) * (b - a), vals, CAT)
    assert inside.all() if verdict else not inside.any()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.sampled_from([1e-3, 0.02, 0.2]))
def test_definitely_is_sound_with_descending(seed, dim, width):
    # A_fam: descending, tmin/tmax bounds and a sum cap (dimension-generic).
    vals = ThetaParams(0.52).values()
    region = CAT.region("A_fam")
    rng = np.random.default_rng(seed)
    a = rng.random(dim) * 0.3
    b = a + width * rng.random(dim)
    verdict = definitely(region, a, b, vals, CAT)
    if verdict is None:
        return
    inside = region.eval(a + rng.random((512, dim)) * (b - a), vals, CAT)
    assert inside.all() if verdict else not inside.any()


def sub_box(rng, a, b):
    """A random box inside [a, b], sometimes a single point."""
    c = np.clip(a + rng.random(len(a)) * (b - a), a, b)
    if rng.random() < 0.1:
        return c, c
    return c, np.clip(c + rng.random(len(a)) * (b - c), c, b)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["D1", "D5", "D6", "U233", "simplex3", "A_fam", "GG"]),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
    st.sampled_from([1e-3, 0.05, 0.3, 1.0]),
)
def test_definitely_is_monotone_under_inclusion(name, seed, corner, width):
    # A decided verdict on a box is the verdict on every box inside it:
    # pruning the grid by bisection rests on this.
    rng = np.random.default_rng(seed)
    if name in SAMPLED:
        spec, region, vals, lo, hi = setting(name)
    else:  # A_fam: descending and tmin/tmax/tsum; GG: a splits region
        vals, region = ThetaParams(0.52).values(), CAT.region(name)
        dim = 3 if name == "GG" else int(rng.integers(2, 6))
        lo, hi = np.zeros(dim), np.full(dim, 0.8 / dim if name == "GG" else 0.5)
    a = lo + corner * rng.random(len(lo)) * (hi - lo)
    b = a + width * rng.random(len(lo)) * (hi - a)
    verdict = definitely(region, a, b, vals, CAT)
    if verdict is None:
        return
    for _ in range(8):
        c, d = sub_box(rng, a, b)
        assert definitely(region, c, d, vals, CAT) is verdict


@given(st.sampled_from(["and", "or"]), st.lists(st.sampled_from([True, False, None]),
                                                max_size=6))
def test_fold_is_kleene_logic_on_float_verdicts(op, items):
    # The float box test folds by the exact mode's rule: without op's
    # stopping constant a junction is None while an item is None and op's
    # identity otherwise, and with it present it is that constant.
    stop = op == "or"
    rest = [v for v in items if v is not stop]
    assert _fold(op, rest) is (None if None in rest else op == "and")
    assert _fold(op, [*rest, stop]) is stop
    assert _fold(op, items) is (stop if stop in items else _fold(op, rest))
    assert _negate(None) is None
    for v in (True, False):
        assert _negate(v) is (not v)


ROWS = st.tuples(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), st.integers(-9, 9),
                 st.booleans())


@given(st.sampled_from(["and", "or"]), st.lists(ROWS, min_size=1, max_size=5),
       st.lists(ROWS, min_size=1, max_size=5))
def test_fold_flattens_and_negate_is_an_involution(op, rows, more):
    for r in rows:
        assert _negate(_negate(r)) == r
    nested = _fold(op, [*rows, _fold(op, more)])
    assert nested == _fold(op, rows + more)
    if nested[0] == op:
        assert all(f[0] not in ("and", "or") for f in nested[1])
    assert _negate(_negate(nested)) == nested


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["D1", "D5", "U233", "A_fam", "GG", "U234"]),
    st.floats(0.5, 4 / 7, exclude_max=True),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
    st.sampled_from([1e-3, 0.05, 0.3, 1.0]),
)
def test_float_and_exact_box_tests_agree(name, theta, seed, corner, width):
    # The float box test judges each atom by float interval bounds, the
    # exact mode by its exact row: on these boxes, where both decide they
    # agree (test_exact_where_floats_round has boxes where they do not),
    # and an exact verdict, a refutation included, holds at points in it.
    vals, region = ThetaParams(theta).values(), CAT.region(name)
    rng = np.random.default_rng(seed)
    if name in SAMPLED:
        lo, hi = region.box(vals, CAT.integrals[SAMPLED[name][0]].dim)
    else:  # A_fam: descending and tmin/tmax/tsum; GG: a splits region
        dim = 3 if name == "GG" else int(rng.integers(2, 6))
        lo, hi = np.zeros(dim), np.full(dim, 0.8 / dim if name == "GG" else 0.5)
    span = np.maximum(hi - lo, 1e-2)  # U234's box collapses below theta = 29/56
    a = lo + corner * rng.random(len(lo)) * span
    b = a + width * (0.01 + rng.random(len(lo))) * span
    test = BoxTest(region, len(a), vals, CAT)
    fast, exact = test.bound.decide(a, b), test(a.tolist(), b.tolist())
    if exact is None:
        return
    assert fast is None or fast is exact
    inside = region.eval(a + rng.random((512, len(a))) * (b - a), vals, CAT)
    assert inside.all() if exact else not inside.any()


@pytest.mark.parametrize("name,dim,rows", [
    pytest.param("GG", 3, 1 << 13, id="GG-3"),
    pytest.param("GG", 5, 1 << 13, id="GG-5"),
    pytest.param("V_nofloor", 4, 1 << 13, id="V_nofloor-4"),
    *(("GG", dim, rows) for dim in (8, 9) for rows in (1, 100, 5000, 9000, 40000)),
    pytest.param("GG", MAX_SPLIT, 3, id="GG-MAX_SPLIT"),
])
def test_splits_matches_per_mask_reference(name, dim, rows):
    # The reference tries every mask on every row.  Points run in chunks of
    # BLOCK_PAIRS >> k: the row counts from 1 to 40,000 at 8 and 9
    # coordinates span 1 to 1,250 chunks, and at MAX_SPLIT coordinates each
    # point is a chunk of its own.  The reference adds each subset sum
    # and the total left to right: from 8 coordinates on, two coordinates
    # summing to theta or just above and the rest a few ulps each put
    # t1 + t2 = theta, a boundary of g3, g4 and g5, within an ulp or two of
    # the total, which numpy's pairwise row sum would put elsewhere.
    vals = ThetaParams(0.52).values()
    rng = np.random.default_rng(dim)
    if dim < 8:
        x = rng.random((rows, dim)) * (0.8 / dim)
    else:
        a = 0.2 + 0.1 * rng.random(rows)
        x = np.column_stack([a, 0.52 - a + rng.integers(0, 4, rows) * 2.0**-54,
                             rng.integers(0, 4, (rows, dim - 2)) * 2.0**-56])
    target = CAT.region("gunion" if name == "GG" else "Tstar3")
    total = left_to_right(x.T, rows)
    want = np.zeros(len(x), dtype=bool)
    for mask in range(1 << dim):
        s = left_to_right(x.T[[i for i in range(dim) if mask >> i & 1]], rows)
        want |= target.eval(np.stack([s, total - s], axis=1), vals, CAT)
    assert rows == 1 or 0 < want.sum() < len(x)
    assert np.array_equal(CAT.region(name).eval(x, vals, CAT), want)


# Every point splits into Zle by the bipartition (all coordinates, none),
# whose empty part must sum to exactly 0.
EMPTY_PART = loads("region Zle dim=2\n  where t2 <= 0\nend\n"
                   "region SZ dim=any\n  where splits(Zle)\nend\n")


@pytest.mark.parametrize("dim", [2, 5, 7, 8, 9, 12])
def test_an_empty_part_sums_to_zero(dim):
    # A bipartition's total is its full subset's sum, so the empty part, the
    # total less that sum, is 0 in both walkers at every dimension.
    region = EMPTY_PART.region("SZ")
    x = 1.0 - np.random.default_rng(dim).random((2000, dim))  # in (0, 1]
    assert region.eval(x, {}, EMPTY_PART).all()
    assert all(contains(region, p, {}, EMPTY_PART) for p in x[:300])


# the regions of the catalog whose splits search S shifted by a parameter
# value, at a point each
@pytest.mark.parametrize("name, point", [("Uprime", (0.52,)), ("Uj", (0.52,)),
                                         ("Udprime", (0.32, 0.20))])
def test_shifted_splits_agree_with_contains(name, point):
    # descending points in [0, tau) with sum(t) <= 1, where A_fam holds and
    # the shifted splits decides: at 3 coordinates Udprime holds at every
    # one of them, so both verdicts are asked of the three dimensions together
    vals = ThetaParams(*point).values()
    region = CAT.region(name)
    verdicts = set()
    for dim in (3, 4, 5):
        x = -np.sort(-np.random.default_rng(dim).random((4096, dim)) * vals["tau"], axis=1)
        x = x[x.sum(axis=1) <= 1]
        got = region.eval(x, vals, CAT).tolist()
        assert got == [contains(region, p, vals, CAT) for p in x], dim
        verdicts.update(got)
    assert verdicts == {False, True}


# Uprime and Udprime by the paper's definition: A_fam holds and some
# bipartition (I, J) of the point's coordinates, with a constant c appended,
# has its pair of sums in S, that is (s_I + c, s_J) or (s_I, s_J + c) lies
# in S; c = 2*theta - 1 + eps for Uprime and 2*theta1 + theta2 - 1 + eps
# for Udprime.  The catalog writes the two shifted copies of S out by hand
# (Sprime, Sdprime), so these fail if they drift from S.
SHIFTED = {"Uprime": ("Sprime", [(0.505,), (0.52,), (0.54,), (0.56,)]),
           "Udprime": ("Sdprime", [(0.32, 0.20), (0.30, 0.24), (0.36, 0.19)])}


def _shifted_points(name):
    """(parameter values, c) at each point of SHIFTED[name] and eps."""
    for point, eps in itertools.product(SHIFTED[name][1], (0.0, 1e-3)):
        p = ThetaParams(*point, eps=eps)
        c = (2 * p.theta if name == "Uprime" else 2 * p.theta1 + p.theta2) - 1 + eps
        yield p.values(), c


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("name", list(SHIFTED))
def test_shifted_splits_match_the_definition(name, k):
    region, s, a_fam = CAT.region(name), CAT.region("S"), CAT.region("A_fam")
    verdicts = set()
    for n, (vals, c) in enumerate(_shifted_points(name)):
        rng = np.random.default_rng([k, n])
        x = -np.sort(-rng.random((120, k)) * vals["tau"], axis=1)
        x = x[x.sum(axis=1) <= 1]
        want = []
        for t in x.tolist():
            sides = [(sum(t[i] for i in range(k) if m >> i & 1),
                      sum(t[i] for i in range(k) if not m >> i & 1)) for m in range(1 << k)]
            want.append(contains(a_fam, t, vals, CAT) and any(
                contains(s, (u + c, v), vals, CAT) or contains(s, (u, v + c), vals, CAT)
                for u, v in sides))
        assert region.eval(x, vals, CAT).tolist() == want, (vals["theta"], vals["eps"])
        assert [contains(region, t, vals, CAT) for t in x] == want, (vals["theta"], vals["eps"])
        verdicts.update(want)
    assert True in verdicts and (k < 4 or False in verdicts)


@pytest.mark.parametrize("name", list(SHIFTED))
def test_shifted_targets_match_s(name):
    # Within A_fam the splits hold almost everywhere at 2 and 3 coordinates,
    # so the targets are also compared with S itself, on points around it.
    target, s = CAT.region(SHIFTED[name][0]), CAT.region("S")
    for n, (vals, c) in enumerate(_shifted_points(name)):
        uv = np.random.default_rng(n).random((20000, 2)) * 1.6 - 0.3
        want = (s.eval(uv + [c, 0.0], vals, CAT) | s.eval(uv + [0.0, c], vals, CAT)).tolist()
        assert 0.1 < np.mean(want) < 0.9
        assert target.eval(uv, vals, CAT).tolist() == want
        assert [contains(target, p, vals, CAT) for p in uv[:500]] == want[:500]


# Faults of compiling, each alone in its region: (region, dimension, message)
COMPILE_ERRORS = loads(
    "region S dim=2\n  where t1 < 1/2\nend\n"
    "region Wide dim=3\n  where in(S; t1, t2, t3)\nend\n"
    "region Many dim=any\n  where splits(S)\nend\n"
    "region Self dim=2\n  where t1 < 1 and in(Self)\nend\n"
    "region Group dim=2\n  where in(S; t1, t3)\nend\n")
COMPILE_ERRORS.regions.update(
    Relation=RegionSpec("Relation", 2, BoolNode("atom", atom=Comparison(
        AffineForm.make(vars={1: 1}), "=", AffineForm.make(const=Fraction(1, 2))))),
    Atom=RegionSpec("Atom", 2, BoolNode("atom", atom="t1")))


@pytest.mark.parametrize("name, dim, message", [
    ("Relation", 2, "bad relation '='"),
    ("Atom", 2, "bad atom 't1'"),
    ("Wide", 3, "region S has dimension 2, got 3"),
    ("Many", MAX_SPLIT + 1, f"bipartition enumeration capped at {MAX_SPLIT} coordinates"),
    ("Self", 2, "region Self refers to itself"),
    ("Group", 2, "group index t3 out of range"),
])
def test_compile_errors_are_typed(name, dim, message):
    # one message, whichever evaluator compiles the program first
    region = COMPILE_ERRORS.region(name)
    for ask in (lambda: contains(region, [0.25] * dim, {}, COMPILE_ERRORS),
                lambda: region.eval(np.full((1, dim), 0.25), {}, COMPILE_ERRORS),
                lambda: BoxTest(region, dim, {}, COMPILE_ERRORS)):
        with pytest.raises(RegionError) as err:
            ask()
        assert str(err.value) == message


# Regions written with tsum, tmin, tmax, descending, true and false, and the
# same regions with those written out by hand.  Constants, coordinates and
# box corners are multiples of 1/64 and coefficients multiples of 1/2, so
# every float sum is exact and a point often lies on a comparison's boundary.
_RELS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_SIXTY_FOURTHS = st.integers(-8, 8) | st.integers(-64, 64)
_HALVES = st.sampled_from([Fraction(n, 2) for n in (-4, -3, -2, -1, 1, 2, 3, 4)])


@st.composite
def _generic_trees(draw, k):
    """A boolean tree of comparisons, descending, true and false, over k
    coordinates: ("cmp", lhs, rel, rhs) with each side (constant, {symbol:
    coefficient}), ("desc",), ("true",), ("false",), ("not", x) or
    ("and" | "or", [x, y])."""
    symbols = st.sampled_from(["tsum", "tmin", "tmax"]) | st.sampled_from(
        [f"t{i}" for i in range(1, k + 1)])
    sides = st.tuples(_SIXTY_FOURTHS.map(lambda n: Fraction(n, 64)),
                      st.dictionaries(symbols, _HALVES, max_size=3))
    comparisons = st.tuples(st.just("cmp"), sides, st.sampled_from(sorted(_RELS)), sides)
    atoms = comparisons | comparisons | st.sampled_from([("desc",), ("true",), ("false",)])
    return draw(st.recursive(atoms, lambda kids: kids.map(lambda x: ("not", x))
                             | st.tuples(st.sampled_from(["and", "or"]),
                                         st.lists(kids, min_size=2, max_size=2)),
                             max_leaves=4))


def _side_text(side, k, hand):
    const, terms = side
    out = f"{const.numerator}/{const.denominator}"
    for name, w in terms.items():
        if hand and name == "tsum":
            name = "(" + " + ".join(f"t{i}" for i in range(1, k + 1)) + ")"
        out += f" {'-' if w < 0 else '+'} {abs(w.numerator)}*{name}/{w.denominator}"
    return out


def _written_out(lhs, rel, rhs, k):
    """The comparison with each tmax and tmin replaced by every coordinate
    in turn, lhs first and tmax before tmin: joined by `and` when a larger
    extreme makes the comparison harder to hold for tmax, or easier for
    tmin, and by `or` otherwise."""
    for s, (const, terms) in enumerate((lhs, rhs)):
        for name in ("tmax", "tmin"):
            if name in terms:
                w, rest = terms[name], {n: c for n, c in terms.items() if n != name}
                harder = (w > 0) == ((s == 0) == (rel in ("<", "<=")))
                alts = []
                for j in range(1, k + 1):
                    sub = (const, {**rest, f"t{j}": rest.get(f"t{j}", 0) + w})
                    alts.append(_written_out(*((sub, rel, rhs) if s == 0 else (lhs, rel, sub)), k))
                return "(" + (" and " if harder == (name == "tmax") else " or ").join(alts) + ")"
    return f"{_side_text(lhs, k, True)} {rel} {_side_text(rhs, k, True)}"


def _tree_text(tree, k, hand):
    kind = tree[0]
    if kind == "cmp":
        return _written_out(*tree[1:], k) if hand else \
            f"{_side_text(tree[1], k, False)} {tree[2]} {_side_text(tree[3], k, False)}"
    if kind == "desc":
        if not hand:
            return "descending"
        return "(" + " and ".join(f"t{i} > t{i + 1}" for i in range(1, k)) + ")" if k > 1 \
            else "0 <= 0"
    if kind in ("true", "false"):
        return kind if not hand else "0 <= 0" if kind == "true" else "0 < 0"
    if kind == "not":
        return f"not ({_tree_text(tree[1], k, hand)})"
    return "(" + f" {kind} ".join(_tree_text(c, k, hand) for c in tree[1]) + ")"


def _truth(tree, x):
    """The tree at the point x of Fractions, in rationals."""
    kind = tree[0]
    if kind == "cmp":
        _, lhs, rel, rhs = tree
        value = {"tsum": sum(x), "tmin": min(x), "tmax": max(x),
                 **{f"t{i}": v for i, v in enumerate(x, 1)}}
        lv, rv = (c + sum(w * value[n] for n, w in t.items()) for c, t in (lhs, rhs))
        return _RELS[rel](lv, rv)
    if kind == "desc":
        return all(a > b for a, b in zip(x, x[1:]))
    if kind in ("true", "false"):
        return kind == "true"
    if kind == "not":
        return not _truth(tree[1], x)
    return (all if kind == "and" else any)(_truth(c, x) for c in tree[1])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_generic_atoms_compile_as_written_out(data):
    # eval and contains give the exact verdicts of both regions at grid
    # points; definitely and BoxTest give the same verdict on both regions
    # for a grid box, and a decided verdict holds at grid points in it
    k = data.draw(st.integers(1, 9))
    tree = data.draw(_generic_trees(k))
    cat = loads("".join(f"region {name} dim={k}\n  where {_tree_text(tree, k, hand)}\nend\n"
                        for name, hand in (("A", False), ("B", True))))
    regions = cat.region("A"), cat.region("B")
    grid = st.lists(_SIXTY_FOURTHS, min_size=k, max_size=k)
    points = [data.draw(grid) for _ in range(6)]
    want = [_truth(tree, [Fraction(n, 64) for n in p]) for p in points]
    x = np.array(points) / 64
    for region in regions:
        assert region.eval(x, {}, cat).tolist() == want
        assert [contains(region, p, {}, cat) for p in x] == want
    for _ in range(2):
        lo, hi = zip(*(sorted(p) for p in zip(data.draw(grid), data.draw(grid))))
        inner = [data.draw(st.tuples(*(st.integers(a, b) for a, b in zip(lo, hi))))
                 for _ in range(4)]
        truths = {_truth(tree, [Fraction(n, 64) for n in p]) for p in (lo, hi, *inner)}
        lo, hi = np.array(lo) / 64, np.array(hi) / 64
        fast = [definitely(r, lo, hi, {}, cat) for r in regions]
        exact = [BoxTest(r, k, {}, cat)(lo.tolist(), hi.tolist()) for r in regions]
        assert fast[0] is fast[1] and exact[0] is exact[1]
        for verdict in (fast[0], exact[0]):
            assert verdict is None or truths == {verdict}


# t1 <= 1/10 and t1 >= 1/3 at the floats of their constants, which lie on
# the other side of them: 0.1 is above 1/10 and float(1/3) below 1/3.  A
# float comparison with the float of the constant holds there; the exact
# box test compares with the constant itself.  Both reach the exact test
# on their own, through the group sum of an `in` and through a `splits`
# bipartition.
_TENTH = ("cmp", (Fraction(0), {"t1": Fraction(1)}), "<=", (Fraction(1, 10), {}))
_THIRD = ("cmp", (Fraction(0), {"t1": Fraction(1)}), ">=", (Fraction(1, 3), {}))
_NONPOSITIVE = ("cmp", (Fraction(0), {"t2": Fraction(1)}), "<=", (Fraction(0), {}))
_SPLIT_TENTH = ("and", [_TENTH, _NONPOSITIVE])
_ROUNDING_REGIONS = (
    ("P", 1, _tree_text(_TENTH, 1, False)),
    ("Q", 1, _tree_text(_THIRD, 1, False)),
    ("P2", 2, _tree_text(_SPLIT_TENTH, 2, False)),
    ("Q2", 2, _tree_text(_THIRD, 2, False)),
    ("GP", 2, "in(P; t1+t2)"),
    ("GQ", 2, "in(Q; t1+t2)"),
    ("SP", "any", "splits(P2)"),
    ("SQ", "any", "splits(Q2)"),
)
ROUNDING = loads("".join(f"region {name} dim={dim}\n  where {where}\nend\n"
                         for name, dim, where in _ROUNDING_REGIONS))


def _splits_truth(tree, x):
    """Some bipartition (I, J) of the coordinates of x has (sum_I, sum_J)
    in the two-dimensional tree, in rationals."""
    return any(_truth(tree, [sum(x[i] for i in range(len(x)) if m >> i & 1),
                             sum(x[i] for i in range(len(x)) if not m >> i & 1)])
               for m in range(1 << len(x)))


_ROUNDING_TRUTH = {
    "P": lambda x: _truth(_TENTH, x),
    "Q": lambda x: _truth(_THIRD, x),
    "GP": lambda x: _truth(_TENTH, [x[0] + x[1]]),
    "GQ": lambda x: _truth(_THIRD, [x[0] + x[1]]),
    "SP": lambda x: _splits_truth(_SPLIT_TENTH, x),
    "SQ": lambda x: _splits_truth(_THIRD, x),
}


@pytest.mark.parametrize("name,point", [
    ("P", [0.1]),
    ("Q", [1 / 3]),
    ("GP", [0.05, 0.05]),
    ("GQ", [0.25, 1 / 3 - 0.25]),  # both sums are float(1/3), exactly
    ("SP", [0.1]),
    ("SP", [0.05, 0.05]),
    ("SQ", [1 / 3]),
    ("SQ", [0.25, 1 / 3 - 0.25]),
])
def test_exact_where_floats_round(name, point):
    # On the point box the exact test gives the rational verdict and
    # contains the float one, and they differ.  On a box one ulp wide on
    # either side of the point, and on both, the exact test gives the
    # verdict of the rational truth at the corners, or None where they
    # differ: every region here is monotone in each positive coordinate.
    region, truth = ROUNDING.region(name), _ROUNDING_TRUTH[name]
    p = np.array(point)
    exact = truth([Fraction(v) for v in point])
    assert BoxTest(region, len(p), {}, ROUNDING)(point, point) is exact
    assert contains(region, p, {}, ROUNDING) is (not exact)
    down, up = np.nextafter(p, -np.inf), np.nextafter(p, np.inf)
    for lo, hi in ((down, p), (p, up), (down, up)):
        corners = {truth([Fraction(float(v)) for v in c])
                   for c in itertools.product(*zip(lo, hi))}
        want = corners.pop() if len(corners) == 1 else None
        assert BoxTest(region, len(p), {}, ROUNDING)(lo.tolist(), hi.tolist()) is want
