import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection

from sievelab import cubature, quadrature
from sievelab.catalog import default_catalog, dumps, loads
from sievelab.exact import BoxTest
from sievelab.params import ThetaParams, theta_only
from sievelab.quadrature import (
    DEFAULT_SEED,
    QuadratureResult,
    SpecificationError,
    eval_L7,
    integrate,
    named_integral,
)

CAT = default_catalog()


@pytest.mark.parametrize("k", range(2, 7))
def test_calibration_volumes_are_exact(k):
    res = integrate(CAT.integrals[f"cal{k}"], {}, tol=1e-4, rel_tol=5e-4)
    assert res == QuadratureResult(1 / math.factorial(k), 0.0, 0, DEFAULT_SEED, "cubature")


def test_s235_matches_its_reference():
    # the bench's reference, an iterated scipy quadrature
    res = named_integral("S235", theta_only(0.52), tol=1e-12)
    assert res.flag == "cubature" and abs(res.value - 0.0742537694) <= 1e-10


@pytest.mark.parametrize("kappa, want", [(1 / 11, 0.833198851426), (1 / 12, 1.215060714530)])
def test_l7_matches_scipy_references(kappa, want):
    res = eval_L7(kappa, tol=1e-12)
    assert res.flag == "cubature" and abs(res.value - want) <= 1e-10


# recorded before the exact layer's rows and vertices were made integer
PINNED_BENCH_CUBATURES = [
    ("S236", 0.012486088697804534, 2.4224438003577625e-06, 272),
    ("S237", 0.0011918086761491717, 4.117748976929618e-08, 1056),
    (1 / 11, 0.8331962140200264, 0.0016626701213802164, 1544),
    (1 / 12, 1.2150552560604988, 0.002067306880060349, 10352),
]


@pytest.mark.parametrize("what, value, err, samples", PINNED_BENCH_CUBATURES)
def test_the_bench_cubatures_are_pinned(what, value, err, samples):
    # S236 and S237 at theta = 0.52, and L7 at tol 5e-3, as the bench runs them
    res = (named_integral(what, theta_only(0.52)) if isinstance(what, str)
           else eval_L7(what, tol=5e-3))
    assert res == QuadratureResult(value, err, samples, DEFAULT_SEED, "cubature")


def test_l72_at_one_twelfth_keeps_its_exact_vertices():
    # At kappa = float(1/12) the box bound (1 - 3 kappa)/2 is exactly 3/8, and
    # 2 t1 + 2 t2 + t3 <= 1 meets t2 = t3 = kappa just beyond it: vertices
    # that round to one float are distinct, and one of them only is feasible.
    spec, vals = CAT.integrals["L72"], {"kappa": 1 / 12}
    region = CAT.region(spec.region)
    lo, hi = region.box(vals, spec.dim)
    rows, _ = cubature._rows(BoxTest(region, spec.dim, vals, CAT), lo, hi, spec.sorted)
    verts, _ = cubature._vertices(rows, spec.dim)
    assert len(verts) == 8
    assert len({tuple(x / d for x in num) for num, d in verts}) < 8
    res = integrate(spec, vals, tol=1e-12)
    ref = quadrature.sampled(spec, vals, tol=1e-12, budget=1 << 20)
    assert res.flag == "cubature" and abs(res.value - ref.value) <= 3 * ref.est_error


def test_l7_keeps_the_flag_its_parts_share(tmp_path):
    assert eval_L7(1 / 11).flag == "cubature"
    # U71 cut down to t1 < t2 < t1: L71 is sampled and proved empty, while
    # L72 and L73 stay cubatures
    where = ("where kappa < t3 and t3 < t2 and t2 < t1 and t1 + t2 + t3 > 1/2"
             " and 2*t1 + 2*t2 + t3 < 1")
    text = dumps(CAT)
    assert text.count(where) == 2  # U235 and U71
    start = text.index("region U71 ")
    text = text[:start] + text[start:].replace(where, "where t1 < t2 and t2 < t1", 1)
    cat = loads(text)
    parts = [integrate(cat.integrals[n], {"kappa": 1 / 11}, cat=cat).flag
             for n in ("L71", "L72", "L73")]
    assert parts == ["empty-region", "cubature", "cubature"]
    assert eval_L7(1 / 11, cat=cat).flag == ""


I56_POINTS = [(0.32, 0.20), (0.33, 0.19), (0.33, 0.1902)]


@pytest.mark.parametrize("point", I56_POINTS)
@pytest.mark.parametrize("name", ["I5", "I6"])
def test_i5_i6_are_polytopes_on_their_sampling_boxes(name, point):
    # the whole sampling box decides not in(G), and I6's in(C2; ...), so
    # what is left is one conjunction, integrated by cubature
    spec, params = CAT.integrals[name], ThetaParams(*point)
    res = integrate(spec, params, tol=1e-30, rel_tol=1e-12, budget=4096)
    assert res.flag == "cubature" and res.samples <= 4096
    assert res.est_error <= 1e-12 * res.value
    # at verify I56's tolerance the first rules already reach the target
    coarse = named_integral(name, params, tol=3e-6)
    assert coarse.flag == "cubature" and abs(coarse.value - res.value) <= coarse.est_error


@pytest.mark.parametrize("point", I56_POINTS)
@pytest.mark.parametrize("name", ["I5", "I6"])
def test_i5_i6_agree_with_pooled_sampling(name, point):
    spec, params = CAT.integrals[name], ThetaParams(*point)
    want = named_integral(name, params, tol=3e-6).value
    runs = [quadrature.sampled(spec, params, tol=1e-15, seed=seed, budget=1 << 19)
            for seed in range(1, 5)]
    mean = sum(r.value for r in runs) / len(runs)
    pooled = math.sqrt(sum(r.est_error**2 for r in runs)) / len(runs)
    assert abs(mean - want) <= 4 * pooled


@pytest.mark.parametrize("theta", [0.52, 0.545])
def test_u233_agrees_with_pooled_sampling(theta):
    # U233's residual holds disjunctions: the cubature sums over its cells
    spec, params = CAT.integrals["U233"], theta_only(theta)
    want = named_integral("U233", params, tol=1e-6)
    assert want.flag == "cubature" and want.est_error <= 1e-6
    runs = [quadrature.sampled(spec, params, tol=1e-15, seed=seed, budget=1 << 19)
            for seed in range(1, 5)]
    mean = sum(r.value for r in runs) / len(runs)
    pooled = math.sqrt(sum(r.est_error**2 for r in runs)) / len(runs)
    assert abs(mean - want.value) <= 4 * pooled


def test_a_residual_past_the_cell_cap_is_sampled(monkeypatch):
    # U233's not in(G) stays undecided on the sampling box: its residual is
    # a conjunction holding disjunctions, which split into more than 8 cells
    spec, params = CAT.integrals["U233"], theta_only(0.52)
    vals = params.values()
    region = CAT.region(spec.region)
    lo, hi = region.box(vals, spec.dim)
    test = BoxTest(region, spec.dim, vals, CAT)
    f = test.residual(lo, hi)
    assert f[0] == "and" and any(g[0] == "or" for g in f[1])
    wfn = quadrature._weight_fn(spec.weight, vals)
    assert cubature.integrate(spec, test, lo, hi, wfn, 1e-3, None, 1 << 22) is not None
    monkeypatch.setattr(cubature, "MAX_CELLS", 8)
    assert cubature.integrate(spec, test, lo, hi, wfn, 1e-3, None, 1 << 22) is None
    assert integrate(spec, params, budget=1 << 16) == quadrature.sampled(spec, params,
                                                                          budget=1 << 16)


def test_the_emptiness_proof_reuses_the_route_checks_residual(monkeypatch):
    # U234's 53 rows pass MAX_SUBSETS, so it is sampled; the proof's first
    # box is the sampling box, whose residual the route check has walked
    spec, vals = CAT.integrals["U234"], theta_only(0.52).values()
    region = CAT.region(spec.region)
    lo, hi = region.box(vals, spec.dim)
    test = BoxTest(region, spec.dim, vals, CAT)
    walks = []
    decide = test.bound.decide
    monkeypatch.setattr(test.bound, "decide", lambda *args: walks.append(args) or decide(*args))
    assert cubature.integrate(spec, test, lo, hi, None, 1e-3, None, 1 << 22) is None
    assert quadrature._proved_empty(test, lo, hi)
    assert len(walks) == 1 and len(test.certificates) == 1


def test_too_small_a_budget_falls_back_to_sampling():
    # the rules n = 2 and 4 over S237's simplices need more than 100
    # evaluations, and the sampler needs a point per stratum and replicate
    with pytest.raises(SpecificationError, match="below one point per stratum"):
        named_integral("S237", theta_only(0.52), budget=100)


@pytest.mark.parametrize("budget", [500, 2_000, 10_000, 50_000])
@pytest.mark.parametrize("name, vals", [
    ("S235", theta_only(0.52)), ("S236", theta_only(0.52)), ("S237", theta_only(0.52)),
    ("L71", {"kappa": 1 / 12}), ("L72", {"kappa": 1 / 12}), ("L73", {"kappa": 1 / 12}),
])
def test_cubature_stays_within_its_budget(name, vals, budget):
    spec = CAT.integrals[name]
    res = integrate(spec, vals, tol=1e-15, budget=budget)
    assert res.samples <= budget
    if res.flag == "cubature":  # the rules n = 2 and 4 at least
        assert res.samples >= 2**spec.dim + 4**spec.dim


def _fraction_rank_det(rows):
    """The rank of integer rows by Gauss elimination in Fraction, and the
    product of the pivots up to sign, their determinant when square."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank, det = 0, Fraction(1)
    for j in range(len(m[0])):
        p = next((r for r in range(rank, len(m)) if m[r][j]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        det *= m[rank][j]
        for r in range(rank + 1, len(m)):
            f = m[r][j] / m[rank][j]
            m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank, det


def _polytope_rows(lo, hi, cuts):
    """The rows of {lo <= t <= hi, a . t <= c}, made primitive, the tightest
    of each direction kept and sorted, as `cubature._rows` makes them."""
    k = len(lo)
    unit = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    given = [(tuple(-x for x in e), -l) for e, l in zip(unit, lo)] + list(zip(unit, hi)) + cuts
    best = {}
    for a, b in given:
        g = math.gcd(*a)
        a, b = tuple(x // g for x in a), Fraction(b) / g
        if a not in best or b < best[a]:
            best[a] = b
    return sorted(best.items())


def _integer_solve(rows):
    """The solution of a . t = b over k rows as (numerators, denominator) in
    lowest terms, by Gauss-Jordan elimination that cross-multiplies integer
    rows, or None when they are singular."""
    k = len(rows)
    m = [[x * b.denominator for x in a] + [b.numerator] for a, b in rows]
    for i in range(k):
        p = next((r for r in range(i, k) if m[r][i]), None)
        if p is None:
            return None
        m[i], m[p] = m[p], m[i]
        m = [r if j == i else [m[i][i] * x - r[i] * y for x, y in zip(r, m[i])]
             for j, r in enumerate(m)]
    den = math.lcm(*(r[i] for i, r in enumerate(m)))  # positive
    num = [r[k] * (den // r[i]) for i, r in enumerate(m)]
    g = math.gcd(den, *num)
    return tuple(x // g for x in num), den // g


def _oracle_vertices(rows, k):
    """Every k-subset of rows solved, in `itertools.combinations` order: the
    feasible solutions, each at its first nonsingular subset, and the bit
    masks of the rows tight at each."""
    verts = {}
    for subset in itertools.combinations(range(len(rows)), k):
        x = _integer_solve([rows[i] for i in subset])
        if x is None or x in verts:
            continue
        num, den = x
        sides = [b.denominator * sum(w * y for w, y in zip(a, num)) - b.numerator * den
                 for a, b in rows]
        if all(s <= 0 for s in sides):
            verts[x] = sum(1 << i for i, s in enumerate(sides) if s == 0)
    return list(verts), list(verts.values())


def _full_dimensional(verts, k) -> bool:
    """Whether points (numerators, denominator) span k dimensions."""
    if len(verts) <= k:
        return False
    (n0, d0), *rest = verts
    return _fraction_rank_det([[Fraction(x, d) - Fraction(y, d0) for x, y in zip(n, n0)]
                               for n, d in rest])[0] == k


def _assert_vertices_match(rows, k):
    verts, tight = cubature._vertices(rows, k)
    want, want_tight = _oracle_vertices(rows, k)
    bound = dict(rows)
    upper = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    if any(-bound[tuple(-x for x in e)] >= bound[e] for e in upper):
        # an axis with no width: no vertices, and the oracle's are flat
        assert verts == tight == [] and not _full_dimensional(want, k)
    else:
        assert (verts, tight) == (want, want_tight)


quarter = st.integers(-4, 8).map(lambda n: Fraction(n, 4))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5).flatmap(lambda k: st.tuples(
    st.lists(quarter, min_size=k, max_size=k),
    st.lists(st.integers(1, 6).map(lambda n: Fraction(n, 4)), min_size=k, max_size=k),
    st.lists(st.tuples(
        st.one_of(  # unit directions tighten the box, down to no width
            st.tuples(st.integers(0, k - 1), st.sampled_from([-1, 1])).map(
                lambda e: tuple(e[1] * int(i == e[0]) for i in range(k))),
            st.lists(st.integers(-3, 3), min_size=k, max_size=k).filter(any).map(tuple)),
        st.integers(-3, 4).map(lambda n: Fraction(n, 4))), min_size=1, max_size=7))))
def test_vertices_match_every_subset_solved(box):
    # the double description against every k-subset of rows solved
    # exactly: the same vertices, tight rows and order, degenerate
    # vertices, flat and empty polytopes included
    lo, widths, cuts = box
    hi = [x + w for x, w in zip(lo, widths)]
    # each cut a . t <= a . mid + offset, near the box's middle
    cuts = [(a, sum(x * (l + h) / 2 for x, l, h in zip(a, lo, hi)) + offset) for a, offset in cuts]
    _assert_vertices_match(_polytope_rows(lo, hi, cuts), len(lo))


def test_l72_at_one_eighth_has_a_corner_in_lowest_terms():
    # the box [1/8, 5/16]^4 in sixteenths: its corner (2, 2, 2, 2)/16 is
    # the vertex (1, 1, 1, 1)/8
    spec, vals = CAT.integrals["L72"], {"kappa": 1 / 8}
    region = CAT.region(spec.region)
    lo, hi = region.box(vals, spec.dim)
    rows, _ = cubature._rows(BoxTest(region, spec.dim, vals, CAT), lo, hi, spec.sorted)
    assert ((1, 1, 1, 1), 8) in cubature._vertices(rows, spec.dim)[0]
    _assert_vertices_match(rows, spec.dim)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.data())
def test_elimination_rank_and_determinant(n, data):
    # products of n x r and r x k factors: rank at most r, so columns with
    # no pivot left are common, and every division must stay exact
    k = data.draw(st.one_of(st.just(n), st.integers(1, 7)))
    r = data.draw(st.one_of(st.just(min(n, k)), st.integers(0, min(n, k))))
    factor = st.integers(-3, 3)
    left = data.draw(st.lists(st.lists(factor, min_size=r, max_size=r), min_size=n, max_size=n))
    right = data.draw(st.lists(st.lists(factor, min_size=k, max_size=k), min_size=r, max_size=r))
    rows = [[sum(row[i] * right[i][j] for i in range(r)) for j in range(k)] for row in left]
    want_rank, want_det = _fraction_rank_det(rows)
    rank, pivot = cubature._eliminate([row[:] for row in rows])
    assert rank == want_rank
    if rank == n == k:
        assert abs(pivot) == abs(want_det)


FALLBACK = QuadratureResult(-1.0, 0.0, 0, 0, "sampled")
EMPTY = QuadratureResult(0.0, 0.0, 0, DEFAULT_SEED, "empty-region")


def _reference_volume(lo, hi, cuts):
    """The volume of {lo <= t <= hi, a . t <= c} by scipy, or None when it
    holds no ball of radius 1e-9."""
    d = len(lo)
    a = [list(row) for row, _ in cuts] + [list(-np.eye(d)[i]) for i in range(d)] \
        + [list(np.eye(d)[i]) for i in range(d)]
    c = [float(cut) for _, cut in cuts] + [-x for x in lo] + list(hi)
    a, c = np.array(a, dtype=float), np.array(c)
    norms = np.linalg.norm(a, axis=1)
    # the Chebyshev centre: the largest ball inside
    lp = linprog(np.r_[np.zeros(d), -1.0], A_ub=np.c_[a, norms], b_ub=c,
                 bounds=[(None, None)] * d + [(0, None)])
    if lp.status != 0 or lp.x[-1] <= 1e-9:
        return None
    hs = HalfspaceIntersection(np.c_[a, -c], lp.x[:d])
    return ConvexHull(hs.intersections).volume


coefficient = st.integers(-3, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda d: st.tuples(
    st.lists(st.sampled_from([Fraction(0), Fraction(1, 4)]), min_size=d, max_size=d),
    st.lists(st.sampled_from([Fraction(3, 4), Fraction(1)]), min_size=d, max_size=d),
    st.lists(st.tuples(st.lists(coefficient, min_size=d, max_size=d).filter(any),
                       st.integers(-4, 6).map(lambda n: Fraction(n, 2)),
                       st.sampled_from(["<", "<="])),
             min_size=1, max_size=4))))
def test_unit_weight_cubature_is_the_polytope_volume(box):
    lo, hi, cuts = box
    d = len(lo)
    lines = [f"region P dim={d}"]
    lines += [f"  bound t{i + 1} = [{a}, {b}]" for i, (a, b) in enumerate(zip(lo, hi))]
    atoms = [" + ".join(f"{w}*t{i + 1}" for i, w in enumerate(row) if w) + f" {rel} {c}"
             for row, c, rel in cuts]
    lines += ["  where " + " and ".join(atoms), "end",
              f"integral P dim={d} region=P weight=one mult=1"]
    cat = loads("\n".join(lines) + "\n")
    want = _reference_volume(lo, hi, [(row, c) for row, c, _ in cuts])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_sample", lambda *args, **kwargs: FALLBACK)
        res = integrate(cat.integrals["P"], {}, cat=cat)
    if want is None:  # empty or lower-dimensional: proved empty on the box, or sampled
        assert res is FALLBACK or res == EMPTY
    else:
        assert res.flag == "cubature" and abs(res.value - want) <= 1e-12


def test_the_residual_not_the_syntax_picks_the_route():
    # a disjunction the sampling box decides leaves a box; one it leaves
    # open splits the box into cells on its rows
    cat = loads("region Q dim=2\n  bound t1 = [0, 1/4]\n  bound t2 = [0, 1]\n"
                "  where t1 < 1/2 or t2 < 1/3\nend\n"
                "region R dim=2\n  bound t1 = [0, 1]\n  bound t2 = [0, 1]\n"
                "  where t1 < 1/2 or t2 < 1/3\nend\n"
                "integral Q dim=2 region=Q weight=one mult=1\n"
                "integral R dim=2 region=R weight=one mult=1\n")
    res = integrate(cat.integrals["Q"], {}, cat=cat)
    assert res == QuadratureResult(0.25, 0.0, 0, DEFAULT_SEED, "cubature")
    res = integrate(cat.integrals["R"], {}, cat=cat)
    assert res == QuadratureResult(2 / 3, 0.0, 0, DEFAULT_SEED, "cubature")


def _formula(atoms: int):
    """Formulas over atom numbers 0 .. atoms - 1: a number, or ("and" |
    "or", two or three formulas)."""
    return st.recursive(st.integers(0, atoms - 1), lambda inner: st.tuples(
        st.sampled_from(["and", "or"]), st.lists(inner, min_size=2, max_size=3)), max_leaves=10)


def _holds(f, signs) -> bool:
    if isinstance(f, int):
        return signs[f]
    return (all if f[0] == "and" else any)(_holds(g, signs) for g in f[1])


def _text(f, atoms) -> str:
    if isinstance(f, int):
        return atoms[f]
    return "(" + f" {f[0]} ".join(_text(g, atoms) for g in f[1]) + ")"


def _brute_volume(lo, hi, cuts, f) -> Fraction:
    """The volume of the points of the box where f holds: every sign vector
    of the cuts as one polytope, its volume summed where f holds."""
    d, total = len(lo), Fraction(0)
    for signs in itertools.product([True, False], repeat=len(cuts)):
        if not _holds(f, signs):
            continue
        rows = _polytope_rows(lo, hi, [(a, c) if s else (tuple(-x for x in a), -c)
                                       for (a, c), s in zip(cuts, signs)])
        verts, tight = cubature._vertices(rows, d)
        if not verts:
            continue
        faces, everything = cubature._Faces(verts, tight, len(rows)), (1 << len(verts)) - 1
        if faces.dim(everything) == d:
            total += sum((cubature._det(verts, s) for s in faces.triangulate(everything, d)),
                         Fraction(0)) / math.factorial(d)
    return total


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(lambda d: st.tuples(
    st.lists(st.sampled_from([Fraction(0), Fraction(1, 4)]), min_size=d, max_size=d),
    st.lists(st.sampled_from([Fraction(3, 4), Fraction(1)]), min_size=d, max_size=d),
    st.lists(st.tuples(st.lists(coefficient, min_size=d, max_size=d).filter(any).map(tuple),
                       st.integers(-4, 6).map(lambda n: Fraction(n, 2))),
             min_size=2, max_size=8))).flatmap(lambda box: st.tuples(
                 st.just(box), _formula(len(box[2])))))
def test_unit_weight_cells_sum_to_the_formulas_volume(case):
    # a nested and/or formula of rows: the cells' volumes against every
    # sign vector of the rows' polytopes
    (lo, hi, cuts), f = case
    d = len(lo)
    atoms = [" + ".join(f"{w}*t{i + 1}" for i, w in enumerate(a) if w) + f" <= {c}"
             for a, c in cuts]
    lines = [f"region P dim={d}"]
    lines += [f"  bound t{i + 1} = [{a}, {b}]" for i, (a, b) in enumerate(zip(lo, hi))]
    lines += ["  where " + _text(f, atoms), "end", f"integral P dim={d} region=P weight=one mult=1"]
    cat = loads("\n".join(lines) + "\n")
    want = _brute_volume(lo, hi, cuts, f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_sample", lambda *args, **kwargs: FALLBACK)
        res = integrate(cat.integrals["P"], {}, cat=cat)
    if want:
        assert res == QuadratureResult(float(want), 0.0, 0, DEFAULT_SEED, "cubature")
    else:
        assert res is FALLBACK or res == EMPTY


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5).flatmap(lambda k: st.tuples(
    st.lists(quarter, min_size=k, max_size=k),
    st.lists(st.integers(1, 6).map(lambda n: Fraction(n, 4)), min_size=k, max_size=k),
    st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=k, max_size=k).filter(any).map(tuple),
                       st.integers(-3, 4).map(lambda n: Fraction(n, 4))), min_size=1, max_size=6),
    st.booleans())))
def test_a_split_cuts_the_cells_vertices_once(case):
    # the last row cuts the polytope of the others: both sides' vertices, cut
    # from the cell's, are those enumerated from the box's corners
    lo, widths, cuts, negate = case
    k = len(lo)
    hi = [x + w for x, w in zip(lo, widths)]
    cuts = [(a, sum(x * (l + h) / 2 for x, l, h in zip(a, lo, hi)) + c) for a, c in cuts]
    (a, c), cuts = cuts[-1], cuts[:-1]
    if negate:
        a, c = tuple(-x for x in a), -c
    rows = _polytope_rows(lo, hi, cuts)
    verts, tight = cubature._vertices(rows, k)
    sides = [sum(x * y for x, y in zip(a, num)) - c * d for num, d in verts]
    if not sides or max(sides) <= 0 or min(sides) >= 0:
        return  # no split: the row is decided on the cell
    child = _polytope_rows(lo, hi, [*cuts, (a, c)])
    assert cubature._split(rows, verts, tight, (a, c), k) == (child,
                                                              *cubature._vertices(child, k))
