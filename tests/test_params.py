import math
import random

import pytest

from sievelab import regions
from sievelab.catalog import default_catalog, loads
from sievelab.params import (
    AmbiguityError,
    ThetaParams,
    classify,
    kappa,
    kappa_prime,
    nu,
    nu_prime,
    tau,
    tau_prime,
    theta_only,
    type_ii_range,
)
from sievelab.regions import RegionError, contains

CAT = default_catalog()


# ---------------------------------------------------------------------------
# Piecewise parameter functions
# ---------------------------------------------------------------------------


def test_kappa_branches():
    assert kappa(0.53) == pytest.approx(0.76 / 6, abs=1e-12)
    assert kappa(0.535) == pytest.approx(0.06, abs=1e-12)
    assert kappa(0.55) == pytest.approx(0.25 / 7, abs=1e-12)
    with pytest.raises(ValueError):
        kappa(0.49)
    with pytest.raises(ValueError):
        kappa(4 / 7)


def test_kappa_prime_and_tau():
    assert kappa_prime(0.545) == pytest.approx((11 - 10.9) / 6, abs=1e-12)
    assert tau(0.50) == pytest.approx(0.30, abs=1e-12)
    assert tau_prime(0.54) == pytest.approx((5 - 3.24) / 7, abs=1e-12)
    # outside the primed window kappa_prime falls back to kappa
    assert kappa_prime(0.51) == kappa(0.51)
    assert tau_prime(0.51) == tau(0.51)


def test_nu_values():
    assert nu(0.525) == pytest.approx(0.20, abs=1e-12)
    assert nu(19 / 36 - 1e-12) == pytest.approx(1 / 9, abs=1e-9)
    assert nu_prime(0.528) == pytest.approx(0.104, abs=1e-12)
    with pytest.raises(ValueError):
        nu(0.53)


def test_kappa_jump_at_second_breakpoint():
    # The first breakpoint halves the value; assert the jump direction and
    # size rather than continuity.
    below = kappa(17 / 32 - 1e-9)
    above = kappa(17 / 32 + 1e-9)
    assert above < below
    assert above == pytest.approx(below / 2, rel=1e-6)


def test_epsilon_enters_as_printed():
    assert kappa(0.53, eps=1e-3) == pytest.approx(0.76 / 6 - 1e-3, abs=1e-12)
    assert kappa(0.535, eps=1e-3) == pytest.approx((5 - 8 * 0.535) / 12 - 3e-3, abs=1e-12)


def test_breakpoint_continuity_and_jumps():
    h = 1e-10
    # tau is continuous at its first breakpoint ...
    assert tau(11 / 21 - h) == pytest.approx(tau(11 / 21 + h), abs=1e-8)
    assert tau(11 / 21) == pytest.approx(2 / 7, abs=1e-9)
    # ... and genuinely jumps at the second one.
    assert tau(6 / 11 + 1e-9) < tau(6 / 11 - 1e-9) - 0.03
    # kappa jumps down again where its last two branches meet.
    assert kappa(7 / 13 + 1e-9) < kappa(7 / 13 - 1e-9) - 0.01
    # nu is continuous everywhere on its domain (a max of affine pieces).
    for th in (0.512, 0.520, 0.525, 0.527):
        assert nu(th - h) == pytest.approx(nu(th + h), abs=1e-8)


# ---------------------------------------------------------------------------
# ThetaParams
# ---------------------------------------------------------------------------


def test_theta_params_validation():
    with pytest.raises(ValueError):
        ThetaParams(0.5, 0.5)  # total reaches 1
    with pytest.raises(ValueError):
        ThetaParams(0.2, 0.3)  # normalisation theta1 >= theta2
    p = ThetaParams(0.3, 0.2, 0.01)
    assert p.arity == 3
    assert p.theta == pytest.approx(0.51)
    q = p.reduce_to_two()
    assert q.arity == 2 and q.theta == pytest.approx(0.51)
    assert q.theta1 == pytest.approx(0.3) and q.theta2 == pytest.approx(0.21)


@pytest.mark.parametrize("eps", [-1e-3, math.nan, math.inf, -math.inf])
def test_theta_params_reject_a_non_finite_or_negative_eps(eps):
    # NaN fails every comparison, so a check of eps < 0 alone lets it through
    for point in ((0.52,), (0.32, 0.20)):
        with pytest.raises(ValueError, match="eps must be finite and nonnegative"):
            ThetaParams(*point, eps=eps)


def test_theta_params_reject_an_eps_that_makes_kappa_nonpositive():
    # kappa(0.52, 0.05) = -0.043 would put a sampling box at negative
    # coordinates; near 4/7, kappa is still 1/49 - 2 * eps > 0 at eps = 1e-3
    for point, eps in (((0.52,), 0.05), ((0.36, 0.141), 1e6)):
        with pytest.raises(ValueError, match="kappa must be positive"):
            ThetaParams(*point, eps=eps)
    assert kappa(ThetaParams(0.5714, eps=1e-3).theta, 1e-3) > 0


def test_values_carry_derived_parameters():
    vals = theta_only(0.52).values()
    assert vals["kappa"] == pytest.approx(kappa(0.52))
    assert vals["tau"] == pytest.approx(tau(0.52))
    assert "nu" in vals
    assert vals["delta"] == 0.0


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_examples():
    got = classify(ThetaParams(0.36, 0.141), "a_catalog")
    assert "A01" in got and "A0101" in got
    got = classify(ThetaParams(0.28, 0.23), "master")
    assert "Z1" in got
    assert "E0101" in classify(ThetaParams(0.28, 0.23), "e_catalog")
    got = classify(ThetaParams(0.30, 0.10), "master")
    assert "Imaster" in got


def test_classify_point_from_three_exponents():
    # The trilinear mode reduces through theta2 + theta3.
    p = ThetaParams(0.46, 0.031, 0.030)
    assert 2 * 0.46 + 0.061 < 1 and 0.061 < 1 / 16
    got = classify(p, "master")
    assert "Z5" in got


# M2's one column, t1 < 1/4, is also B's, which M1 reaches through in()
# and S through splits(), at points of their own
SHARED_ATOM = """
region B dim=2
  where t1 < 1/4
end
region M2 dim=2
  where t1 < 1/4
end
region M1 dim=2
  where in(B; t2, t1)
end
region S dim=2
  where splits(B)
end
group g: M2 M1 S
"""


def test_classify_keeps_top_level_verdicts_out_of_nested_walks():
    cat = loads(SHARED_ATOM)
    p = ThetaParams(0.5, 0.1)
    alone = [n for n in cat.groups["g"] if contains(cat.region(n), [0.5, 0.1], p.values(), cat)]
    # t1 < 1/4 fails at (1/2, 1/10), and holds at B's points (1/10, 1/2)
    # and, for the empty part, (0, 3/5)
    assert classify(p, "g", cat) == alone == ["M1", "S"]
    assert len({regions._program(cat.region(n), cat, 2).ids[0] for n in ("B", "M2")}) == 1


def test_a_family_tiles_master_region():
    rng = random.Random(12)
    tops = [f"A{i:02d}" for i in range(1, 18)]
    leaves = CAT.groups["a_leaves"]
    checked = 0
    while checked < 2000:
        t1 = rng.uniform(5 / 14, 11 / 20)
        t2 = rng.uniform(1e-4, 0.25)
        try:
            p = ThetaParams(t1, t2)
        except ValueError:
            continue
        vals = p.values()
        if not contains(CAT.region("Amaster"), [t1, t2], vals, CAT):
            continue
        matches = [n for n in tops if contains(CAT.region(n), [t1, t2], vals, CAT)]
        assert len(matches) == 1, (t1, t2, matches)
        in_leaves = [n for n in leaves if contains(CAT.region(n), [t1, t2], vals, CAT)]
        assert len(in_leaves) <= 1, (t1, t2, in_leaves)
        checked += 1


def test_e_family_mutually_exclusive():
    rng = random.Random(21)
    tops = [f"E{i:02d}" for i in range(1, 12)]
    leaves = CAT.groups["e_leaves"]
    checked = 0
    while checked < 2000:
        t1 = rng.uniform(0.25, 0.55)
        t2 = rng.uniform(1e-4, 0.30)
        try:
            p = ThetaParams(t1, t2)
        except ValueError:
            continue
        vals = p.values()
        if not contains(CAT.region("Emaster"), [t1, t2], vals, CAT):
            continue
        matches = [n for n in tops if contains(CAT.region(n), [t1, t2], vals, CAT)]
        assert len(matches) <= 1, (t1, t2, matches)
        in_leaves = [n for n in leaves if contains(CAT.region(n), [t1, t2], vals, CAT)]
        assert len(in_leaves) <= 1, (t1, t2, in_leaves)
        checked += 1


# ---------------------------------------------------------------------------
# type-II assembly
# ---------------------------------------------------------------------------


def test_type_ii_single_exponent():
    rep = type_ii_range(theta_only(0.52))
    assert rep.matched_region == "theta_mode"
    assert len(rep.merged) == 1
    assert rep.merged[0].lo == pytest.approx(2 * 0.52 - 1, abs=1e-12)
    assert rep.merged[0].hi == pytest.approx((5 - 8 * 0.52) / 6, abs=1e-12)
    assert rep.kappa_start == pytest.approx((5 - 8 * 0.52) / 6, abs=1e-12)
    # below the small-range threshold the pieces fuse from zero
    rep2 = type_ii_range(theta_only(0.503))
    assert len(rep2.merged) == 1 and rep2.merged[0].lo == pytest.approx(0.0)


def test_type_ii_asymptotic_regime():
    rep = type_ii_range(ThetaParams(0.30, 0.10))
    assert rep.matched_region == "Imaster"
    assert "asymptotic" in rep.note
    assert rep.merged == []


def test_type_ii_subregion_reports():
    rep = type_ii_range(ThetaParams(0.36, 0.141))
    assert rep.matched_region == "A0101"
    assert rep.kappa_start == pytest.approx((5 - 8 * 0.501) / 6, abs=1e-12)
    assert len(rep.raw_ranges) == 3
    # merged output is order-independent in the raw list
    assert len(rep.merged) == 1


def test_type_ii_point_near_boundary_is_a0104():
    # Substitution places (0.39, 0.135) in the fourth sub-split: theta2
    # exceeds (5 - 8*theta1)/14 = 0.134285...
    rep = type_ii_range(ThetaParams(0.39, 0.135))
    assert rep.matched_region == "A0104"
    assert len(rep.merged) == 3


def test_type_ii_family_selection():
    repa = type_ii_range(ThetaParams(0.28, 0.23))
    assert repa.matched_region == "B01"
    repe = type_ii_range(ThetaParams(0.28, 0.23), family="e")
    assert repe.matched_region == "E0101"


def test_type_ii_overlap_conditions_inside_a0101():
    # Interior points satisfy both overlap inequalities that fuse the
    # three ranges into one.
    rng = random.Random(8)
    reg = CAT.region("A0101")
    found = 0
    while found < 500:
        t1 = rng.uniform(5 / 14, 2 / 5)
        t2 = rng.uniform(0.10, 0.16)
        try:
            p = ThetaParams(t1, t2)
        except ValueError:
            continue
        vals = p.values()
        if not contains(reg, [t1, t2], vals, CAT):
            continue
        assert (4 - 7 * t1 - 8 * t2) / 6 > 2 * t1 + 2 * t2 - 1
        assert (5 - 8 * t1 - 8 * t2) / 6 > (2 - 2 * t1 - 3 * t2) / 6
        rep = type_ii_range(p)
        assert rep.matched_region == "A0101"
        assert len(rep.merged) == 1
        found += 1


def test_type_ii_merged_permutation_invariant():
    from sievelab.regions import IntervalUnion, merge_numeric

    rng = random.Random(4)
    union = CAT.ranges["A0104"]
    vals = ThetaParams(0.39, 0.135).values()
    base = merge_numeric(union.evaluated(vals))
    for _ in range(10):
        pieces = list(union.pieces)
        rng.shuffle(pieces)
        assert merge_numeric(IntervalUnion(pieces).evaluated(vals)) == base


def test_type_ii_errors():
    with pytest.raises(ValueError):
        type_ii_range(ThetaParams(0.50, 0.50))
    with pytest.raises(RegionError):
        type_ii_range(theta_only(0.58))
    # a boundary between sub-splits belongs to neither (strict/non-strict
    # bounds are complementary), so the a-family search reports no region
    with pytest.raises(RegionError):
        type_ii_range(ThetaParams(0.39, (5 - 8 * 0.39) / 14), family="a")
    # an unknown family is rejected, not searched as "auto"
    for params in (ThetaParams(0.28, 0.23), theta_only(0.52)):
        with pytest.raises(RegionError, match="unknown family 'x'"):
            type_ii_range(params, family="x")
    # a group member that cannot be judged raises what contains raises for
    # it alone, once the members before it are judged: X reads kappa, which
    # theta = 0.8 leaves undefined, and Z's dimension is below the point's
    bad = ("region X dim=2\n  where t1 < kappa\nend\nregion Y dim=2\n  where t1 < 1/4\nend\n"
           "region Z dim=1\n  where t1 < 1/4\nend\n")
    p = ThetaParams(0.7, 0.1)
    for members, message in (("Y X Z", "missing parameter 'kappa'"),
                             ("Y Z X", "region Z has dimension 1, got 2")):
        cat = loads(bad + f"group g: {members}\n")
        with pytest.raises(RegionError) as want:
            [n for n in cat.groups["g"] if contains(cat.region(n), [0.7, 0.1], p.values(), cat)]
        with pytest.raises(RegionError) as got:
            classify(p, "g", cat)
        assert str(got.value) == str(want.value) == message


def test_type_ii_ambiguity_on_overlapping_catalog():
    from sievelab.catalog import default_catalog, dumps, loads

    text = dumps(default_catalog())
    dup = text.replace("region A0101 dim=2", "region A0101dup dim=2", 1)
    start = dup.index("region A0101dup")
    end = dup.index("end", start) + 3
    extra = dup[start:end]
    members = " ".join(default_catalog().groups["a_leaves"])
    # record names are unique, so the group line is rewritten, not repeated
    text = text.replace(f"group a_leaves: {members}\n", f"group a_leaves: {members} A0101dup\n")
    cat2 = loads(text + "\n" + extra + "\n")
    with pytest.raises(AmbiguityError) as err:
        type_ii_range(ThetaParams(0.36, 0.141), cat2)
    assert set(err.value.matches) == {"A0101", "A0101dup"}
