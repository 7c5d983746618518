import os
import random
from fractions import Fraction

import numpy as np
import pytest

from sievelab.catalog import default_catalog, dumps, loads, parse_affine_expr
from sievelab.params import theta_only
from sievelab.regions import (
    AffineForm,
    IntervalPiece,
    IntervalUnion,
    NumericPiece,
    RegionError,
    contains,
    definitely,
    interval_contains,
    merge_intervals,
    merge_numeric,
    partitions_into,
)

CAT = default_catalog()


def aff(text):
    return parse_affine_expr(text)


# ---------------------------------------------------------------------------
# AffineForm
# ---------------------------------------------------------------------------


def test_affine_linearity():
    rng = random.Random(3)
    f = aff("1/2 + 2*theta - 3*t1 + t2")
    g = aff("theta1 - t1/4 + 5")
    for _ in range(50):
        a, b = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        combo = f.scale(a) + g.scale(b)
        params = {"theta": rng.random(), "theta1": rng.random()}
        x = np.array([[rng.random(), rng.random()]])
        lhs = combo.eval_points(x, params)[0]
        rhs = float(a) * f.eval_points(x, params)[0] + float(b) * g.eval_points(x, params)[0]
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_affine_interval_bounds_sound():
    rng = random.Random(9)
    f = aff("1 - 2*theta + 3*t1 - t2 + tsum/2")
    params = {"theta": 0.51}
    lo, hi = np.array([0.1, 0.2]), np.array([0.3, 0.5])
    a, b = f.interval(lo, hi, params)
    for _ in range(200):
        x = np.array([[rng.uniform(0.1, 0.3), rng.uniform(0.2, 0.5)]])
        v = f.eval_points(x, params)[0]
        assert a - 1e-12 <= v <= b + 1e-12


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
    from sievelab.catalog import parse_bool_expr
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
# partitions_into
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
    assert partitions_into((0.45, 0.30), CAT.region("Tstar3"), vals, CAT)
    vals51 = theta_only(0.51).values()
    assert not partitions_into((0.5,), CAT.region("g1"), vals51, CAT)


def test_partition_against_brute_oracle():
    rng = random.Random(91)
    reg = CAT.region("gunion")
    for _ in range(400):
        k = rng.randint(1, 5)
        entries = [rng.uniform(0.05, 0.3) for _ in range(k)]
        if sum(entries) > 1:
            continue
        vals = theta_only(rng.choice([0.51, 0.53])).values()
        alpha = tuple(sorted(entries, reverse=True))
        got = partitions_into(alpha, reg, vals, CAT)
        want = brute_partition(list(alpha), reg, vals)
        assert got == want


def test_partition_permutation_invariant():
    rng = random.Random(2)
    vals = theta_only(0.52).values()
    reg = CAT.region("S")
    for _ in range(100):
        entries = [rng.uniform(0.05, 0.3) for _ in range(4)]
        if sum(entries) > 1:
            continue
        base = partitions_into(tuple(entries), reg, vals, CAT)
        rng.shuffle(entries)
        assert partitions_into(tuple(entries), reg, vals, CAT) == base


# ---------------------------------------------------------------------------
# interval unions
# ---------------------------------------------------------------------------


def piece(lo, hi, lo_open=True, hi_open=True):
    return IntervalPiece(aff(str(lo)), aff(str(hi)), lo_open, hi_open)


def test_merge_overlapping():
    u = IntervalUnion([piece(0, "1/10"), piece("1/20", "1/5")])
    merged = merge_intervals(u, {})
    assert len(merged) == 1
    assert merged[0].lo == 0.0 and merged[0].hi == pytest.approx(0.2)


def test_open_touching_does_not_merge():
    u = IntervalUnion([piece(0, "1/10"), piece("1/10", "1/5")])
    merged = merge_intervals(u, {})
    assert len(merged) == 2


def test_closed_touching_merges():
    u = IntervalUnion([piece(0, "1/10", hi_open=False), piece("1/10", "1/5")])
    merged = merge_intervals(u, {})
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
    merged = merge_intervals(u, vals)
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
